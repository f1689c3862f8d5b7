// Randomized operation-sequence tests ("fuzz-style", seeded and
// deterministic): drive the mutable index structures with long random
// workloads and compare against simple reference implementations after
// every batch.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "algo/bnl.h"
#include "algo/oracle.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "core/query_service.h"
#include "core/windowed_skyline.h"
#include "gen/synthetic.h"
#include "index/dynamic_skyline.h"
#include "index/zbtree.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 8;  // Small domain -> many dominance events.

std::vector<Coord> RandomPoint(Rng& rng, uint32_t dim) {
  std::vector<Coord> p(dim);
  for (auto& c : p) c = static_cast<Coord>(rng.NextBounded(256));
  return p;
}

// Reference skyline container: flat vectors, O(n) operations.
class ReferenceSkyline {
 public:
  explicit ReferenceSkyline(uint32_t dim) : points_(dim) {}

  bool ExistsDominatorOf(std::span<const Coord> p) const {
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i] && Dominates(points_[i], p)) return true;
    }
    return false;
  }
  size_t RemoveDominatedBy(std::span<const Coord> p) {
    size_t removed = 0;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i] && Dominates(p, points_[i])) {
        alive_[i] = 0;
        ++removed;
      }
    }
    return removed;
  }
  void Append(std::span<const Coord> p, uint32_t id) {
    points_.Append(p);
    ids_.push_back(id);
    alive_.push_back(1);
  }
  std::vector<uint32_t> AliveIds() const {
    std::vector<uint32_t> out;
    for (size_t i = 0; i < ids_.size(); ++i) {
      if (alive_[i]) out.push_back(ids_[i]);
    }
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  PointSet points_;
  std::vector<uint32_t> ids_;
  std::vector<uint8_t> alive_;
};

class DynamicSkylineFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(DynamicSkylineFuzz, RandomOpSequenceMatchesReference) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t dim = 2 + static_cast<uint32_t>(rng.NextBounded(4));
  ZOrderCodec codec(dim, kBits);
  DynamicSkyline sky(&codec);
  ReferenceSkyline reference(dim);

  uint32_t next_id = 0;
  for (int step = 0; step < 3000; ++step) {
    const auto p = RandomPoint(rng, dim);
    const uint64_t op = rng.NextBounded(10);
    if (op < 6) {
      // Skyline-style insert: query, evict, append.
      const bool dominated = sky.ExistsDominatorOf(p);
      ASSERT_EQ(dominated, reference.ExistsDominatorOf(p)) << "step " << step;
      if (!dominated) {
        ASSERT_EQ(sky.RemoveDominatedBy(p), reference.RemoveDominatedBy(p));
        sky.Append(p, next_id);
        reference.Append(p, next_id);
        ++next_id;
      }
    } else if (op < 8) {
      // Pure removal probe.
      ASSERT_EQ(sky.RemoveDominatedBy(p), reference.RemoveDominatedBy(p))
          << "step " << step;
    } else {
      // Pure query probe.
      ASSERT_EQ(sky.ExistsDominatorOf(p), reference.ExistsDominatorOf(p))
          << "step " << step;
    }
    if (step % 500 == 499) {
      PointSet out(dim);
      std::vector<uint32_t> ids;
      sky.Export(out, ids);
      std::sort(ids.begin(), ids.end());
      ASSERT_EQ(ids, reference.AliveIds()) << "step " << step;
      ASSERT_EQ(sky.size(), ids.size());
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DynamicSkylineFuzz,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u));

class ZBTreeFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ZBTreeFuzz, InterleavedCountAndRemove) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t dim = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  ZOrderCodec codec(dim, kBits);
  const PointSet ps =
      GenerateQuantized(Distribution::kIndependent, 700, dim, seed,
                        Quantizer(kBits));
  ZBTree tree(&codec, ps);
  std::vector<uint8_t> alive(ps.size(), 1);

  for (int step = 0; step < 200; ++step) {
    const auto p = RandomPoint(rng, dim);
    // Reference counts over alive rows.
    size_t dominators = 0;
    size_t dominated = 0;
    for (size_t i = 0; i < ps.size(); ++i) {
      if (!alive[i]) continue;
      if (Dominates(ps[i], p)) ++dominators;
      if (Dominates(p, ps[i])) ++dominated;
    }
    ASSERT_EQ(tree.CountDominatorsOf(p, 10'000), dominators)
        << "step " << step;
    ASSERT_EQ(tree.ExistsDominatorOf(p), dominators > 0);
    if (rng.NextBounded(3) == 0) {
      ASSERT_EQ(tree.RemoveDominatedBy(p), dominated);
      for (size_t i = 0; i < ps.size(); ++i) {
        if (alive[i] && Dominates(p, ps[i])) alive[i] = 0;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ZBTreeFuzz, ::testing::Values(7u, 8u, 9u));

class WindowedFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(WindowedFuzz, LongStreamSpotChecks) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t dim = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  const size_t window = 64 + rng.NextBounded(200);
  WindowedSkyline sky(dim, window);
  PointSet history(dim);
  for (int step = 0; step < 2500; ++step) {
    const auto p = RandomPoint(rng, dim);
    history.Append(p);
    sky.Insert(p, static_cast<uint32_t>(step));
    if (step % 311 == 310) {
      // Brute-force skyline of the current window.
      const size_t begin = history.size() >= window
                               ? history.size() - window
                               : 0;
      SkylineIndices expected;
      for (size_t i = begin; i < history.size(); ++i) {
        bool dom = false;
        for (size_t j = begin; j < history.size() && !dom; ++j) {
          dom = j != i && Dominates(history[j], history[i]);
        }
        if (!dom) expected.push_back(static_cast<uint32_t>(i));
      }
      ASSERT_EQ(sky.CurrentIds(), expected) << "step " << step;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, WindowedFuzz,
                         ::testing::Values(11u, 12u, 13u));

// QueryService randomized-op fuzz: a seeded sequence of SetDataset swaps,
// single queries with random QueryDescs (random boxes, dim subsets,
// directions, k in 1..4), and concurrent query bursts against one
// service, every answer checked against the all-variant oracle over the
// dataset that was current when the batch was issued. Exercises plan
// invalidation + lazy rebuild, the per-plan variant cache under
// concurrent shape misses, bounded admission, and the shared-pool ticket
// under churn.
class QueryServiceFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryServiceFuzz, RandomOpSequenceMatchesBnlOracle) {
  const uint64_t seed = GetParam();
  Rng rng(seed);
  const uint32_t dim = 3 + static_cast<uint32_t>(rng.NextBounded(3));

  QueryServiceOptions options;
  options.executor.partitioning = PartitioningScheme::kZdg;
  options.executor.local = LocalAlgorithm::kZSearch;
  options.executor.merge = MergeAlgorithm::kZMerge;
  options.executor.num_groups = 4;
  options.executor.num_map_tasks = 8;
  options.executor.num_threads = 4;
  options.executor.bits = kBits;
  options.executor.seed = seed;
  options.max_in_flight = 4;
  QueryService service(options);

  auto make_dataset = [&] {
    // Mostly mid-sized datasets; occasionally degenerate (empty / tiny)
    // ones to hit the empty-plan and trivial-skyline paths.
    const size_t n = rng.NextBounded(8) == 0
                         ? rng.NextBounded(4)
                         : 200 + rng.NextBounded(1500);
    PointSet ps(dim);
    for (size_t i = 0; i < n; ++i) ps.Append(RandomPoint(rng, dim));
    return ps;
  };

  constexpr Coord kMaxCoord = (1u << kBits) - 1;
  // Random query variant: box / dim subset / direction flips / k are each
  // drawn independently, so defaults, single-axis variants, and fully
  // combined descs all occur.
  auto random_desc = [&] {
    QueryDesc desc;
    if (rng.NextBounded(2) == 0) {
      desc.box_lo.assign(dim, 0);
      desc.box_hi.assign(dim, kMaxCoord);
      const uint64_t constrained = 1 + rng.NextBounded(2);
      for (uint64_t c = 0; c < constrained; ++c) {
        const size_t d = rng.NextBounded(dim);
        const Coord a = static_cast<Coord>(rng.NextBounded(kMaxCoord + 1));
        const Coord b = static_cast<Coord>(rng.NextBounded(kMaxCoord + 1));
        desc.box_lo[d] = std::min(a, b);
        desc.box_hi[d] = std::max(a, b);
      }
    }
    if (rng.NextBounded(3) == 0) {
      for (uint32_t d = 0; d < dim; ++d) {
        if (rng.NextBounded(2) == 0) desc.dims.push_back(d);
      }
    }
    if (rng.NextBounded(3) == 0) {
      desc.maximize.assign(dim, 0);
      desc.maximize[rng.NextBounded(dim)] = 1;
    }
    desc.k = 1 + static_cast<uint32_t>(rng.NextBounded(4));
    desc.Canonicalize();
    return desc;
  };

  auto sorted_oracle = [kMaxCoord](const PointSet& ps,
                                   const QueryDesc& desc) {
    SkylineIndices expected = OracleQuery(ps, desc, kMaxCoord);
    std::sort(expected.begin(), expected.end());
    return expected;
  };

  PointSet current = make_dataset();
  service.SetDataset(current);

  for (int step = 0; step < 14; ++step) {
    const uint64_t op = rng.NextBounded(4);
    if (op == 0) {
      // Swap the dataset; in-flight state must not leak into the oracle.
      current = make_dataset();
      service.SetDataset(current);
    } else if (op < 3) {
      QueryRequest request;
      request.desc = random_desc();
      const SkylineIndices expected = sorted_oracle(current, request.desc);
      SkylineIndices got = service.Query(request).skyline;
      std::sort(got.begin(), got.end());
      ASSERT_EQ(got, expected) << "seed " << seed << " step " << step;
    } else {
      // Concurrent burst: more clients than admission slots, each with its
      // own random variant (descs drawn up front — the rng is not
      // thread-safe).
      constexpr size_t kClients = 6;
      std::vector<QueryRequest> requests(kClients);
      std::vector<SkylineIndices> expected(kClients);
      for (size_t c = 0; c < kClients; ++c) {
        requests[c].desc = random_desc();
        expected[c] = sorted_oracle(current, requests[c].desc);
      }
      std::vector<SkylineIndices> got(kClients);
      std::vector<std::thread> clients;
      clients.reserve(kClients);
      for (size_t c = 0; c < kClients; ++c) {
        clients.emplace_back([&service, &requests, &got, c] {
          got[c] = service.Query(requests[c]).skyline;
          std::sort(got[c].begin(), got[c].end());
        });
      }
      for (std::thread& t : clients) t.join();
      for (size_t c = 0; c < kClients; ++c) {
        ASSERT_EQ(got[c], expected[c])
            << "seed " << seed << " step " << step << " client " << c;
      }
    }
  }

  const QueryService::Stats stats = service.stats();
  EXPECT_GE(stats.queries, 1u);
  EXPECT_GE(stats.plan_builds, 1u);
  EXPECT_LE(stats.peak_in_flight, options.max_in_flight);
  EXPECT_GE(stats.query_ms_total, 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryServiceFuzz,
                         ::testing::Values(21u, 22u, 23u, 24u));

// ---------------------------------------------------------------------------
// QueryServiceMutateFuzz: randomized insert / delete / query / merge /
// SetDataset interleavings, differentially checked against an incrementally
// maintained mirror whose answers come from the BNL oracle. Every op carries
// its own data seed, so a trace is self-contained text: a failing run prints
// the seed (replayable via ZSKY_FUZZ_SEED) plus a ddmin-minimized trace, and
// crafted traces committed under tests/corpus/updates/ are replayed by the
// corpus test below.
// ---------------------------------------------------------------------------

struct MutOp {
  char kind = 'Q';    // 'S' SetDataset, 'I' insert, 'D' delete, 'M' merge,
                      // 'Q' query (random desc: box / dims / flips / k 1..4).
  uint32_t n = 0;     // Batch size for S/I/D; unused for M/Q.
  uint64_t seed = 0;  // Per-op data seed; unused for M.
};

std::string SerializeTrace(uint32_t dim, const std::vector<MutOp>& ops) {
  std::ostringstream out;
  out << "dim " << dim << "\n";
  for (const MutOp& op : ops) {
    out << op.kind << " " << op.n << " " << op.seed << "\n";
  }
  return out.str();
}

bool ParseTrace(std::istream& in, uint32_t* dim, std::vector<MutOp>* ops) {
  std::string line;
  bool have_dim = false;
  while (std::getline(in, line)) {
    std::istringstream ls(line);
    std::string tok;
    if (!(ls >> tok) || tok[0] == '#') continue;  // Blank / comment lines.
    if (!have_dim) {
      if (tok != "dim" || !(ls >> *dim) || *dim == 0) return false;
      have_dim = true;
      continue;
    }
    if (tok.size() != 1 || std::string("SIDMQ").find(tok[0]) ==
                               std::string::npos) {
      return false;
    }
    MutOp op;
    op.kind = tok[0];
    ls >> op.n >> op.seed;  // Missing fields default to zero.
    ops->push_back(op);
  }
  return have_dim;
}

// Flat reference copy of the service's logical-id space: base rows then
// delta rows in insertion order, tombstones as alive flags. Compact()
// reproduces the service's merge renumbering exactly (drop dead rows,
// preserve order), and the rows before `base_rows_` are the service's
// base.
class MutationMirror {
 public:
  explicit MutationMirror(uint32_t dim) : points_(dim) {}

  void Reset(const PointSet& ps) {
    points_ = ps;
    alive_.assign(ps.size(), 1);
    base_rows_ = ps.size();
  }
  void Insert(const PointSet& batch) {
    for (size_t i = 0; i < batch.size(); ++i) {
      points_.Append(batch[i]);
      alive_.push_back(1);
    }
  }
  // Sequential alive-check, same rule as QueryService::Delete: a duplicate
  // or dead or out-of-range id is skipped. Returns rows actually killed.
  size_t Delete(std::span<const uint32_t> ids) {
    size_t applied = 0;
    for (uint32_t id : ids) {
      if (id < alive_.size() && alive_[id]) {
        alive_[id] = 0;
        ++applied;
      }
    }
    return applied;
  }
  void Compact() {
    PointSet next(points_.dim());
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i]) next.Append(points_[i]);
    }
    points_ = std::move(next);
    alive_.assign(points_.size(), 1);
    base_rows_ = points_.size();
  }
  size_t logical_rows() const { return alive_.size(); }

  // The delta overlay's counts by brute force: `delta_candidates`, the
  // alive delta rows no alive row strictly dominates, and `band_covered`,
  // the members of the alive base's skyline some candidate dominates.
  DeltaStats Counts() const {
    PointSet base(points_.dim());
    for (size_t i = 0; i < base_rows_; ++i) {
      if (alive_[i]) base.Append(points_[i]);
    }
    const SkylineIndices band = BnlSkyline(base);
    std::vector<size_t> candidates;
    for (size_t i = base_rows_; i < points_.size(); ++i) {
      bool dominated = !alive_[i];
      for (size_t j = 0; j < points_.size() && !dominated; ++j) {
        dominated = alive_[j] && Dominates(points_[j], points_[i]);
      }
      if (!dominated) candidates.push_back(i);
    }
    DeltaStats out;
    out.delta_candidates = candidates.size();
    for (uint32_t b : band) {
      for (size_t c : candidates) {
        if (Dominates(points_[c], base[b])) {
          ++out.band_covered;
          break;
        }
      }
    }
    return out;
  }

  // Oracle answer over the alive rows, mapped back to logical ids, sorted.
  SkylineIndices Expected(const QueryDesc& desc, Coord max_coord) const {
    PointSet alive_ps(points_.dim());
    std::vector<uint32_t> logical;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i]) {
        alive_ps.Append(points_[i]);
        logical.push_back(static_cast<uint32_t>(i));
      }
    }
    SkylineIndices idx = OracleQuery(alive_ps, desc, max_coord);
    SkylineIndices out;
    out.reserve(idx.size());
    for (uint32_t i : idx) out.push_back(logical[i]);
    std::sort(out.begin(), out.end());
    return out;
  }

 private:
  PointSet points_;
  std::vector<uint8_t> alive_;
  size_t base_rows_ = 0;
};

QueryDesc RandomVariantDesc(Rng& rng, uint32_t dim) {
  constexpr Coord kMaxCoord = (1u << kBits) - 1;
  QueryDesc desc;
  if (rng.NextBounded(2) == 0) {
    desc.box_lo.assign(dim, 0);
    desc.box_hi.assign(dim, kMaxCoord);
    const uint64_t constrained = 1 + rng.NextBounded(2);
    for (uint64_t c = 0; c < constrained; ++c) {
      const size_t d = rng.NextBounded(dim);
      const Coord a = static_cast<Coord>(rng.NextBounded(kMaxCoord + 1));
      const Coord b = static_cast<Coord>(rng.NextBounded(kMaxCoord + 1));
      desc.box_lo[d] = std::min(a, b);
      desc.box_hi[d] = std::max(a, b);
    }
  }
  if (rng.NextBounded(3) == 0) {
    for (uint32_t d = 0; d < dim; ++d) {
      if (rng.NextBounded(2) == 0) desc.dims.push_back(d);
    }
  }
  if (rng.NextBounded(3) == 0) {
    desc.maximize.assign(dim, 0);
    desc.maximize[rng.NextBounded(dim)] = 1;
  }
  desc.k = 1 + static_cast<uint32_t>(rng.NextBounded(4));
  desc.Canonicalize();
  return desc;
}

struct TraceFailure {
  size_t step = 0;
  std::string detail;
};

// Applies a trace to a fresh service and mirror. Ops that precede the first
// 'S' are no-ops on both sides, so any sub-slice of a trace is itself a
// valid trace — this is what keeps ddmin chunk removal sound.
std::optional<TraceFailure> RunMutationTrace(uint32_t dim,
                                             const std::vector<MutOp>& ops,
                                             size_t merge_threshold = 64) {
  constexpr Coord kMaxCoord = (1u << kBits) - 1;
  QueryServiceOptions options;
  options.executor.partitioning = PartitioningScheme::kZdg;
  options.executor.local = LocalAlgorithm::kZSearch;
  options.executor.merge = MergeAlgorithm::kZMerge;
  options.executor.num_groups = 4;
  options.executor.num_map_tasks = 8;
  options.executor.num_threads = 4;
  options.executor.bits = kBits;
  options.max_in_flight = 4;
  options.delta_merge_threshold = merge_threshold;
  QueryService service(options);
  MutationMirror mirror(dim);
  bool have_dataset = false;

  auto fail = [](size_t step, std::string detail) {
    return TraceFailure{step, std::move(detail)};
  };

  for (size_t step = 0; step < ops.size(); ++step) {
    const MutOp& op = ops[step];
    Rng rng(op.seed);
    switch (op.kind) {
      case 'S': {
        PointSet ps(dim);
        for (uint32_t i = 0; i < op.n; ++i) ps.Append(RandomPoint(rng, dim));
        service.SetDataset(ps);
        mirror.Reset(ps);
        have_dataset = true;
        break;
      }
      case 'I': {
        if (!have_dataset) break;
        PointSet batch(dim);
        for (uint32_t i = 0; i < op.n; ++i) {
          batch.Append(RandomPoint(rng, dim));
        }
        const MutationResult mr = service.Insert(batch);
        if (!mr.ok || mr.applied != batch.size()) {
          return fail(step, "insert rejected: " + mr.error);
        }
        if (batch.size() > 0 &&
            mr.first_id != mirror.logical_rows()) {
          return fail(step, "first_id " + std::to_string(mr.first_id) +
                                " != logical rows " +
                                std::to_string(mirror.logical_rows()));
        }
        mirror.Insert(batch);
        if (mr.merged) mirror.Compact();
        break;
      }
      case 'D': {
        if (!have_dataset) break;
        std::vector<uint32_t> ids;
        // Mostly valid ids, with a few out-of-range ones to exercise the
        // reject counter; duplicates occur naturally.
        const size_t rows = mirror.logical_rows();
        for (uint32_t i = 0; i < op.n; ++i) {
          ids.push_back(static_cast<uint32_t>(rng.NextBounded(rows + 4)));
        }
        const size_t expect_applied = mirror.Delete(ids);
        const MutationResult mr = service.Delete(ids);
        if (!mr.ok) return fail(step, "delete failed: " + mr.error);
        if (mr.applied != expect_applied ||
            mr.rejected != ids.size() - expect_applied) {
          return fail(step, "delete applied " + std::to_string(mr.applied) +
                                " rejected " + std::to_string(mr.rejected) +
                                ", expected applied " +
                                std::to_string(expect_applied));
        }
        if (mr.merged) mirror.Compact();
        break;
      }
      case 'M': {
        if (!have_dataset) break;
        if (service.Merge()) mirror.Compact();
        break;
      }
      case 'Q': {
        if (!have_dataset) break;
        QueryRequest request;
        request.desc = RandomVariantDesc(rng, dim);
        SkylineIndices got = service.Query(request).skyline;
        std::sort(got.begin(), got.end());
        const SkylineIndices expected =
            mirror.Expected(request.desc, kMaxCoord);
        if (got != expected) {
          return fail(step, "query mismatch: got " +
                                std::to_string(got.size()) + " ids, expected " +
                                std::to_string(expected.size()));
        }
        break;
      }
      default:
        return fail(step, std::string("unknown op '") + op.kind + "'");
    }
    // The overlay's cover bookkeeping, exact after every operation. A
    // SetDataset is published by the next operation, so delta_stats()
    // still describes the old dataset right after one.
    if (have_dataset && op.kind != 'S') {
      const DeltaStats got = service.delta_stats();
      const DeltaStats expected = mirror.Counts();
      if (got.band_covered != expected.band_covered ||
          got.delta_candidates != expected.delta_candidates) {
        return fail(step, "band_covered " + std::to_string(got.band_covered) +
                              " delta_candidates " +
                              std::to_string(got.delta_candidates) +
                              ", expected " +
                              std::to_string(expected.band_covered) + " / " +
                              std::to_string(expected.delta_candidates));
      }
    }
  }
  // Final exact check on the default path.
  if (have_dataset) {
    QueryRequest request;
    SkylineIndices got = service.Query(request).skyline;
    std::sort(got.begin(), got.end());
    if (got != mirror.Expected(request.desc, kMaxCoord)) {
      return fail(ops.size(), "final default-query mismatch");
    }
  }
  return std::nullopt;
}

// Greedy ddmin-lite: repeatedly drop chunks (halving the chunk size) as long
// as the remaining trace still fails. Quadratic in the worst case but only
// runs on an already-failing trace.
std::vector<MutOp> MinimizeTrace(uint32_t dim, std::vector<MutOp> ops) {
  for (size_t chunk = std::max<size_t>(ops.size() / 2, 1);; chunk /= 2) {
    for (size_t begin = 0; begin + chunk <= ops.size();) {
      std::vector<MutOp> trial(ops.begin(),
                               ops.begin() + static_cast<ptrdiff_t>(begin));
      trial.insert(trial.end(),
                   ops.begin() + static_cast<ptrdiff_t>(begin + chunk),
                   ops.end());
      if (RunMutationTrace(dim, trial).has_value()) {
        ops = std::move(trial);
      } else {
        begin += chunk;
      }
    }
    if (chunk == 1) break;
  }
  return ops;
}

constexpr uint64_t kMutateFuzzSeeds[] = {101u, 102u, 103u, 104u, 105u, 106u};

class QueryServiceMutateFuzz : public ::testing::TestWithParam<uint64_t> {};

TEST_P(QueryServiceMutateFuzz, MutationTraceMatchesBnlOracle) {
  uint64_t seed = GetParam();
  if (const char* env = std::getenv("ZSKY_FUZZ_SEED")) {
    // A pinned seed replaces the whole matrix; run it exactly once.
    if (seed != kMutateFuzzSeeds[0]) {
      GTEST_SKIP() << "ZSKY_FUZZ_SEED pins a single seed";
    }
    seed = std::strtoull(env, nullptr, 10);
  }
  Rng rng(seed);
  const uint32_t dim = 2 + static_cast<uint32_t>(rng.NextBounded(3));
  std::vector<MutOp> ops;
  ops.push_back(MutOp{
      'S',
      static_cast<uint32_t>(rng.NextBounded(8) == 0
                                ? rng.NextBounded(3)
                                : 64 + rng.NextBounded(256)),
      rng.Next()});
  constexpr size_t kSteps = 900;
  for (size_t i = 0; i < kSteps; ++i) {
    const uint64_t pick = rng.NextBounded(100);
    MutOp op;
    op.seed = rng.Next();
    if (pick < 30) {
      op.kind = 'I';
      op.n = 1 + static_cast<uint32_t>(rng.NextBounded(12));
    } else if (pick < 55) {
      op.kind = 'D';
      op.n = 1 + static_cast<uint32_t>(rng.NextBounded(10));
    } else if (pick < 90) {
      op.kind = 'Q';
    } else if (pick < 96) {
      op.kind = 'M';
    } else {
      op.kind = 'S';
      op.n = static_cast<uint32_t>(rng.NextBounded(6) == 0
                                       ? rng.NextBounded(3)
                                       : 32 + rng.NextBounded(300));
    }
    ops.push_back(op);
  }

  const auto failure = RunMutationTrace(dim, ops);
  if (failure.has_value()) {
    const std::vector<MutOp> min_ops = MinimizeTrace(dim, ops);
    FAIL() << "seed " << seed << " failed at step " << failure->step << ": "
           << failure->detail
           << "\nreplay with ZSKY_FUZZ_SEED=" << seed
           << "; minimized trace (drop into tests/corpus/updates/*.trace):\n"
           << SerializeTrace(dim, min_ops);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, QueryServiceMutateFuzz,
                         ::testing::ValuesIn(kMutateFuzzSeeds));

#ifdef ZSKY_CORPUS_DIR
// Replays every committed trace in tests/corpus/updates/. Traces come from
// two sources: crafted regressions for specific code paths (delete-repair
// resurfacing, merge renumbering, k-skyband over mutated data) and minimized
// traces printed by a failing MutationTraceMatchesBnlOracle run.
TEST(QueryServiceMutateCorpus, ReplaysCommittedTraces) {
  namespace fs = std::filesystem;
  const fs::path dir(ZSKY_CORPUS_DIR);
  ASSERT_TRUE(fs::is_directory(dir)) << dir;
  std::vector<fs::path> files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".trace") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  ASSERT_GE(files.size(), 3u) << "corpus went missing";
  for (const fs::path& file : files) {
    std::ifstream in(file);
    ASSERT_TRUE(in.is_open()) << file;
    uint32_t dim = 0;
    std::vector<MutOp> ops;
    ASSERT_TRUE(ParseTrace(in, &dim, &ops)) << "unparseable trace " << file;
    const auto failure = RunMutationTrace(dim, ops);
    EXPECT_FALSE(failure.has_value())
        << file << " failed at step " << failure->step << ": "
        << failure->detail;
  }
}
#endif  // ZSKY_CORPUS_DIR

// Concurrent mutators + readers, phase 1: insert-only traffic with periodic
// merges. The base dataset holds an anchor at the origin and every other
// row (base or inserted) has all coordinates >= 1, so the default skyline is
// exactly {anchor} in every epoch and the anchor keeps logical id 0 across
// merge renumbering (it is the first alive base row). Readers assert that
// invariant while mutators race inserts and merges against them.
TEST(QueryServiceMutateConcurrent, InsertOnlyMutatorsWithMergesAndReaders) {
  constexpr uint32_t dim = 4;
  QueryServiceOptions options;
  options.executor.partitioning = PartitioningScheme::kZdg;
  options.executor.local = LocalAlgorithm::kZSearch;
  options.executor.merge = MergeAlgorithm::kZMerge;
  options.executor.num_groups = 4;
  options.executor.num_map_tasks = 8;
  options.executor.num_threads = 4;
  options.executor.bits = kBits;
  options.max_in_flight = 4;
  options.delta_merge_threshold = 128;
  QueryService service(options);

  Rng rng(2026);
  auto elevated_point = [&](Rng& r) {
    std::vector<Coord> p(dim);
    for (auto& c : p) c = static_cast<Coord>(1 + r.NextBounded(255));
    return p;
  };
  PointSet base(dim);
  base.Append(std::vector<Coord>(dim, 0));  // Anchor.
  for (int i = 0; i < 200; ++i) base.Append(elevated_point(rng));
  service.SetDataset(base);

  constexpr size_t kMutators = 2;
  constexpr size_t kReaders = 2;
  constexpr int kBatches = 400;
  std::atomic<bool> stop{false};
  std::atomic<size_t> inserted{0};
  std::atomic<size_t> mutation_failures{0};
  std::atomic<size_t> reader_mismatches{0};
  std::atomic<size_t> reader_queries{0};

  std::vector<std::thread> threads;
  for (size_t m = 0; m < kMutators; ++m) {
    threads.emplace_back([&, m] {
      Rng mrng(1000 + m);
      for (int b = 0; b < kBatches; ++b) {
        PointSet batch(dim);
        const size_t k = 1 + mrng.NextBounded(8);
        for (size_t i = 0; i < k; ++i) batch.Append(elevated_point(mrng));
        const MutationResult mr = service.Insert(batch);
        if (!mr.ok || mr.applied != batch.size()) {
          mutation_failures.fetch_add(1, std::memory_order_relaxed);
        }
        inserted.fetch_add(mr.applied, std::memory_order_relaxed);
        if (b % 64 == 63) service.Merge();
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;  // Default desc.
        const SkylineIndices got = service.Query(request).skyline;
        if (got.size() != 1 || got[0] != 0) {
          reader_mismatches.fetch_add(1, std::memory_order_relaxed);
        }
        reader_queries.fetch_add(1, std::memory_order_relaxed);
      }
    });
  }
  for (size_t m = 0; m < kMutators; ++m) threads[m].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t r = kMutators; r < threads.size(); ++r) threads[r].join();

  EXPECT_EQ(mutation_failures.load(), 0u);
  EXPECT_EQ(reader_mismatches.load(), 0u);
  EXPECT_GT(reader_queries.load(), 0u);

  // Exact row accounting: nothing was deleted, so a k-skyband with k larger
  // than the row count must return every alive row — base plus every
  // insert — regardless of how many merges raced through.
  QueryRequest all;
  all.desc.k = 1u << 30;
  all.desc.Canonicalize();
  SkylineIndices rows = service.Query(all).skyline;
  EXPECT_EQ(rows.size(), base.size() + inserted.load());

  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.inserts, inserted.load());  // Counts rows, not batches.
  EXPECT_EQ(stats.deletes, 0u);
}

// Concurrent mutators + readers, phase 2: mixed insert/delete traffic with
// auto-merge disabled, so logical ids stay stable for the whole phase. Each
// mutator deletes only rows it inserted itself (tracked via first_id), which
// keeps every delete exact under concurrency. After the join the full state
// is reconstructed into a mirror from the mutators' logs and checked
// differentially — including deleting the anchor (a guaranteed
// skyline-member delete, forcing the exclusive-region repair path) and a
// final merge with exact post-compaction ids.
TEST(QueryServiceMutateConcurrent, MixedMutatorsExactDifferentialAfterJoin) {
  constexpr uint32_t dim = 3;
  constexpr Coord kMaxCoord = (1u << kBits) - 1;
  QueryServiceOptions options;
  options.executor.partitioning = PartitioningScheme::kZdg;
  options.executor.local = LocalAlgorithm::kZSearch;
  options.executor.merge = MergeAlgorithm::kZMerge;
  options.executor.num_groups = 4;
  options.executor.num_map_tasks = 8;
  options.executor.num_threads = 4;
  options.executor.bits = kBits;
  options.max_in_flight = 4;
  options.delta_merge_threshold = 0;  // No auto-merge: ids stay stable.
  QueryService service(options);

  Rng rng(4097);
  auto elevated_point = [&](Rng& r) {
    std::vector<Coord> p(dim);
    for (auto& c : p) c = static_cast<Coord>(1 + r.NextBounded(255));
    return p;
  };
  PointSet base(dim);
  base.Append(std::vector<Coord>(dim, 0));  // Anchor, logical id 0.
  for (int i = 0; i < 150; ++i) base.Append(elevated_point(rng));
  service.SetDataset(base);

  struct MutatorLog {
    std::vector<std::pair<uint32_t, std::vector<Coord>>> rows;
    std::vector<uint32_t> deleted;
  };
  constexpr size_t kMutators = 2;
  constexpr size_t kReaders = 2;
  constexpr int kBatches = 300;
  std::vector<MutatorLog> logs(kMutators);
  std::atomic<bool> stop{false};
  std::atomic<size_t> mutation_failures{0};
  std::atomic<size_t> reader_mismatches{0};

  std::vector<std::thread> threads;
  for (size_t m = 0; m < kMutators; ++m) {
    threads.emplace_back([&, m] {
      Rng mrng(7000 + m);
      MutatorLog& log = logs[m];
      std::vector<uint32_t> own_live;
      for (int b = 0; b < kBatches; ++b) {
        PointSet batch(dim);
        const size_t k = 1 + mrng.NextBounded(6);
        for (size_t i = 0; i < k; ++i) batch.Append(elevated_point(mrng));
        const MutationResult mr = service.Insert(batch);
        if (!mr.ok || mr.applied != batch.size()) {
          mutation_failures.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        for (size_t i = 0; i < batch.size(); ++i) {
          const uint32_t id = mr.first_id + static_cast<uint32_t>(i);
          std::span<const Coord> row = batch[i];
          log.rows.emplace_back(id,
                                std::vector<Coord>(row.begin(), row.end()));
          own_live.push_back(id);
        }
        if (b % 3 == 2 && !own_live.empty()) {
          std::vector<uint32_t> victims;
          const size_t kills = 1 + mrng.NextBounded(3);
          for (size_t i = 0; i < kills && !own_live.empty(); ++i) {
            const size_t at = mrng.NextBounded(own_live.size());
            victims.push_back(own_live[at]);
            own_live.erase(own_live.begin() + static_cast<ptrdiff_t>(at));
          }
          const MutationResult dr = service.Delete(victims);
          if (!dr.ok || dr.applied != victims.size()) {
            mutation_failures.fetch_add(1, std::memory_order_relaxed);
          }
          log.deleted.insert(log.deleted.end(), victims.begin(),
                             victims.end());
        }
      }
    });
  }
  for (size_t r = 0; r < kReaders; ++r) {
    threads.emplace_back([&] {
      while (!stop.load(std::memory_order_relaxed)) {
        QueryRequest request;  // Default desc; anchor owns the skyline.
        const SkylineIndices got = service.Query(request).skyline;
        if (got.size() != 1 || got[0] != 0) {
          reader_mismatches.fetch_add(1, std::memory_order_relaxed);
        }
      }
    });
  }
  for (size_t m = 0; m < kMutators; ++m) threads[m].join();
  stop.store(true, std::memory_order_relaxed);
  for (size_t r = kMutators; r < threads.size(); ++r) threads[r].join();

  ASSERT_EQ(mutation_failures.load(), 0u);
  EXPECT_EQ(reader_mismatches.load(), 0u);

  // Reconstruct the exact logical state from the mutators' logs: batch ids
  // were handed out under the mutation lock, so sorting by id recovers the
  // service's insertion order and the id range must be contiguous.
  std::vector<std::pair<uint32_t, std::vector<Coord>>> all_rows;
  std::vector<uint32_t> all_deleted;
  for (const MutatorLog& log : logs) {
    all_rows.insert(all_rows.end(), log.rows.begin(), log.rows.end());
    all_deleted.insert(all_deleted.end(), log.deleted.begin(),
                       log.deleted.end());
  }
  std::sort(all_rows.begin(), all_rows.end(),
            [](const auto& a, const auto& b) { return a.first < b.first; });
  for (size_t i = 0; i < all_rows.size(); ++i) {
    ASSERT_EQ(all_rows[i].first, base.size() + i) << "non-contiguous ids";
  }
  MutationMirror mirror(dim);
  mirror.Reset(base);
  PointSet delta_rows(dim);
  for (const auto& [id, coords] : all_rows) delta_rows.Append(coords);
  mirror.Insert(delta_rows);
  ASSERT_EQ(mirror.Delete(all_deleted), all_deleted.size());

  // Delete the anchor: a guaranteed base-band member, so the repair pipeline
  // must resurface the true skyline of the surviving rows.
  const std::vector<uint32_t> anchor{0};
  const MutationResult dr = service.Delete(anchor);
  ASSERT_TRUE(dr.ok);
  ASSERT_EQ(dr.applied, 1u);
  ASSERT_EQ(mirror.Delete(anchor), 1u);

  Rng qrng(515);
  auto check = [&](const QueryDesc& desc, const char* what) {
    QueryRequest request;
    request.desc = desc;
    SkylineIndices got = service.Query(request).skyline;
    std::sort(got.begin(), got.end());
    EXPECT_EQ(got, mirror.Expected(desc, kMaxCoord)) << what;
  };
  check(QueryDesc{}, "default after join");
  for (int q = 0; q < 4; ++q) {
    check(RandomVariantDesc(qrng, dim), "variant after join");
  }

  // Merge, then re-check with compacted ids on both sides.
  ASSERT_TRUE(service.Merge());
  mirror.Compact();
  check(QueryDesc{}, "default after merge");
  for (int q = 0; q < 4; ++q) {
    check(RandomVariantDesc(qrng, dim), "variant after merge");
  }
  const QueryService::Stats stats = service.stats();
  EXPECT_GE(stats.repairs, 1u);
  EXPECT_GE(stats.merges, 1u);
}

}  // namespace
}  // namespace zsky
