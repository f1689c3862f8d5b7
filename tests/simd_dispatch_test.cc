// Parity tests for the runtime CPU dispatch layer: every ISA tier of the
// dominance kernels and every Z-order codec path must produce
// bit-identical results, and the whole pipeline must be invariant to the
// active tier. `scripts/check.sh simd` additionally re-runs the entire
// suite under each ZSKY_FORCE_ISA value.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "algo/bnl.h"
#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "common/cpu.h"
#include "common/dominance.h"
#include "common/dominance_block.h"
#include "common/dominance_kernels.h"
#include "common/point_set.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/query_plan.h"
#include "gen/synthetic.h"
#include "index/zbtree.h"
#include "zorder/zorder_codec.h"

namespace zsky {
namespace {

// Restores the dispatch tier active at construction (tests must not leak
// a pinned tier into the rest of the suite).
class ScopedIsa {
 public:
  ScopedIsa() : saved_(ActiveIsa()) {}
  ~ScopedIsa() { SetActiveIsa(saved_); }

 private:
  Isa saved_;
};

std::vector<Isa> SupportedIsas() {
  std::vector<Isa> isas = {Isa::kScalar};
  if (IsaSupported(Isa::kSse42)) isas.push_back(Isa::kSse42);
  if (IsaSupported(Isa::kAvx2)) isas.push_back(Isa::kAvx2);
  return isas;
}

PointSet RandomBatch(uint32_t dim, size_t n, uint64_t seed, Coord alphabet) {
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<Coord> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      p[k] = static_cast<Coord>(rng.NextBounded(alphabet));
    }
    ps.Append(p);
  }
  return ps;
}

TEST(CpuDispatchTest, ActiveIsaIsSupportedAndNamesRoundTrip) {
  EXPECT_TRUE(IsaSupported(ActiveIsa()));
  for (Isa isa : {Isa::kScalar, Isa::kSse42, Isa::kAvx2}) {
    Isa parsed;
    ASSERT_TRUE(ParseIsa(IsaName(isa), &parsed));
    EXPECT_EQ(parsed, isa);
  }
  Isa ignored;
  EXPECT_FALSE(ParseIsa("neon", &ignored));
  EXPECT_FALSE(ParseIsa("", &ignored));
}

TEST(CpuDispatchTest, ScalarTierDisablesBmi2Codec) {
  ScopedIsa guard;
  SetActiveIsa(Isa::kScalar);
  EXPECT_FALSE(UseBmi2Codec());
  ZOrderCodec codec(4, 8);
  EXPECT_FALSE(codec.uses_bmi2());
}

// Every dispatched kernel tier must agree with the scalar tier (and the
// scalar tier with per-pair Dominates) on random batches whose sizes
// straddle the 4/8-point vector groups and the 128-point scalar tile.
TEST(KernelIsaParityTest, AllTiersAgreeWithScalar) {
  const size_t sizes[] = {1,  3,  4,   5,   7,   8,   9,  31, 32,
                          33, 65, 127, 128, 129, 300, 1000};
  const auto isas = SupportedIsas();
  for (uint32_t dim = 2; dim <= 16; ++dim) {
    for (size_t n : sizes) {
      for (Coord alphabet : {Coord{4}, Coord{100000}}) {
        const uint64_t seed = dim * 7919 + n * 271 + alphabet;
        const PointSet batch = RandomBatch(dim, n, seed, alphabet);
        const PointSet probes = RandomBatch(dim, 16, seed + 1, alphabet);
        // Column-major mirror with a stride larger than n, to exercise
        // the strided-lane form the ZB-tree and DominanceBlock use.
        const size_t stride = n + 13;
        std::vector<Coord> soa(stride * dim, 0);
        for (size_t i = 0; i < n; ++i) {
          for (uint32_t k = 0; k < dim; ++k) soa[k * stride + i] = batch[i][k];
        }
        const auto& scalar = simd::KernelTableFor(Isa::kScalar);
        for (size_t q = 0; q < probes.size(); ++q) {
          const Coord* p = probes[q].data();
          const bool ref_any =
              scalar.any_dominates(soa.data(), stride, dim, 0, n, p);
          const size_t ref_count =
              scalar.count_dominators(soa.data(), stride, dim, 0, n, p);
          std::vector<uint8_t> ref_flags(n, 0);
          scalar.mark_dominated_by(soa.data(), stride, dim, 0, n, p,
                                   ref_flags.data());
          // Scalar tier vs the per-pair definition.
          bool pair_any = false;
          for (size_t i = 0; i < n && !pair_any; ++i) {
            pair_any = Dominates(batch[i], probes[q]);
          }
          ASSERT_EQ(ref_any, pair_any) << "dim=" << dim << " n=" << n;
          for (Isa isa : isas) {
            const auto& table = simd::KernelTableFor(isa);
            EXPECT_EQ(table.any_dominates(soa.data(), stride, dim, 0, n, p),
                      ref_any)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
            EXPECT_EQ(
                table.count_dominators(soa.data(), stride, dim, 0, n, p),
                ref_count)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
            std::vector<uint8_t> flags(n, 0);
            table.mark_dominated_by(soa.data(), stride, dim, 0, n, p,
                                    flags.data());
            EXPECT_EQ(flags, ref_flags)
                << IsaName(isa) << " dim=" << dim << " n=" << n;
          }
        }
      }
    }
  }
}

// Nonzero begin: kernels must honor sub-ranges (leaf scans use them).
TEST(KernelIsaParityTest, SubrangeScansAgree) {
  const uint32_t dim = 6;
  const size_t n = 200;
  const PointSet batch = RandomBatch(dim, n, 1234, 50);
  std::vector<Coord> soa(n * dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) soa[k * n + i] = batch[i][k];
  }
  const PointSet probes = RandomBatch(dim, 8, 77, 50);
  const auto& scalar = simd::KernelTableFor(Isa::kScalar);
  for (Isa isa : SupportedIsas()) {
    const auto& table = simd::KernelTableFor(isa);
    for (size_t q = 0; q < probes.size(); ++q) {
      const Coord* p = probes[q].data();
      for (size_t begin : {size_t{0}, size_t{1}, size_t{13}, size_t{130}}) {
        for (size_t end : {size_t{14}, size_t{131}, n}) {
          if (begin >= end) continue;
          EXPECT_EQ(table.any_dominates(soa.data(), n, dim, begin, end, p),
                    scalar.any_dominates(soa.data(), n, dim, begin, end, p));
          EXPECT_EQ(
              table.count_dominators(soa.data(), n, dim, begin, end, p),
              scalar.count_dominators(soa.data(), n, dim, begin, end, p));
        }
      }
    }
  }
}

// The ZB-tree node test on every tier against the scalar tier, and the
// scalar tier against its definition, over dims 1-17, 64 and 65 (above
// kMaxVectorDim) with coordinates on both sides of 2^31, where a signed
// lane compare would flip. Bounds are drawn near the probe so both result
// bits are often set; padding lanes are 0 in the rows and the probe.
TEST(KernelIsaParityTest, NodeTestAgreesWithScalar) {
  static constexpr Coord kAlphabet[] = {0u,          1u,          0x7FFFFFFFu,
                                        0x80000000u, 0x80000001u, 0xFFFFFFFFu};
  const auto& scalar = simd::KernelTableFor(Isa::kScalar);
  Rng rng(4242);
  std::vector<uint32_t> dims;
  for (uint32_t dim = 1; dim <= 17; ++dim) dims.push_back(dim);
  dims.push_back(64);
  dims.push_back(65);
  for (uint32_t dim : dims) {
    const uint32_t lanes = simd::BoundsLanes(dim);
    ASSERT_EQ(lanes % simd::kBoundsLaneWidth, 0u);
    ASSERT_GE(lanes, dim);
    size_t hits[4] = {0, 0, 0, 0};
    for (int trial = 0; trial < 400; ++trial) {
      std::vector<Coord> p(lanes, 0);
      std::vector<Coord> bounds(2 * lanes, 0);
      for (uint32_t k = 0; k < dim; ++k) {
        p[k] = kAlphabet[rng.NextBounded(6)];
        // Mostly at or below the probe, sometimes anywhere.
        for (Coord* corner : {&bounds[k], &bounds[lanes + k]}) {
          const uint64_t pick = rng.NextBounded(8);
          *corner = pick < 4   ? p[k]
                    : pick < 7 ? static_cast<Coord>(rng.NextBounded(
                                     uint64_t{p[k]} + 1))
                               : kAlphabet[rng.NextBounded(6)];
        }
      }
      bool may = true;
      bool leq = true;
      bool lt = false;
      for (uint32_t k = 0; k < dim; ++k) {
        may = may && bounds[k] <= p[k];
        leq = leq && bounds[lanes + k] <= p[k];
        lt = lt || bounds[lanes + k] < p[k];
      }
      const uint32_t want =
          may ? simd::kNodeMayHoldDominator |
                    (leq && lt ? simd::kNodeAllDominate : 0u)
              : 0u;
      const uint32_t got = scalar.node_test(bounds.data(), lanes, p.data());
      ASSERT_EQ(got, want) << "scalar dim=" << dim << " trial=" << trial;
      ++hits[got];
      for (Isa isa : SupportedIsas()) {
        EXPECT_EQ(simd::KernelTableFor(isa).node_test(bounds.data(), lanes,
                                                       p.data()),
                  want)
            << IsaName(isa) << " dim=" << dim << " trial=" << trial;
      }
    }
    // Both answers of each question were exercised (at small dims; high
    // dims rarely have every lane below the probe).
    if (dim <= 4) {
      EXPECT_GT(hits[0], 0u) << "dim=" << dim;
      EXPECT_GT(hits[simd::kNodeMayHoldDominator], 0u) << "dim=" << dim;
      EXPECT_GT(hits[simd::kNodeMayHoldDominator | simd::kNodeAllDominate],
                0u)
          << "dim=" << dim;
    }
  }
}

// Reference Z-order encoder: the seed's bit-by-bit interleave, kept here
// as the ground truth both fast paths must match.
ZAddress ReferenceEncode(const ZOrderCodec& codec,
                         std::span<const Coord> point) {
  ZAddress address(codec.num_words());
  size_t t = 0;
  for (uint32_t level = 0; level < codec.bits(); ++level) {
    const uint32_t coord_bit = codec.bits() - 1 - level;
    for (uint32_t k = 0; k < codec.dim(); ++k, ++t) {
      if ((point[k] >> coord_bit) & 1u) address.SetBit(t, true);
    }
  }
  return address;
}

PointSet RandomCoords(uint32_t dim, uint32_t bits, size_t n, uint64_t seed) {
  Rng rng(seed);
  const Coord max_value = bits == 32 ? 0xFFFFFFFFu : ((Coord{1} << bits) - 1);
  PointSet ps(dim);
  std::vector<Coord> row(dim);
  for (size_t i = 0; i < n; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      row[k] = static_cast<Coord>(rng.NextBounded(uint64_t{max_value} + 1));
    }
    ps.Append(row);
  }
  return ps;
}

void CheckCodecGeometry(uint32_t dim, uint32_t bits) {
  const ZOrderCodec codec(dim, bits);
  const PointSet ps = RandomCoords(dim, bits, 8, dim * 1000003 + bits);
  std::vector<uint64_t> scalar_words(codec.num_words());
  std::vector<uint64_t> fast_words(codec.num_words());
  std::vector<Coord> back(dim);
  for (size_t i = 0; i < ps.size(); ++i) {
    const ZAddress ref = ReferenceEncode(codec, ps[i]);
    codec.EncodeToScalar(ps[i], scalar_words);
    codec.EncodeTo(ps[i], fast_words);
    for (size_t w = 0; w < codec.num_words(); ++w) {
      ASSERT_EQ(scalar_words[w], ref.words()[w])
          << "scalar dim=" << dim << " bits=" << bits << " word=" << w;
      ASSERT_EQ(fast_words[w], ref.words()[w])
          << "dispatched dim=" << dim << " bits=" << bits << " word=" << w;
    }
    codec.DecodeScalar(ref, back);
    for (uint32_t k = 0; k < dim; ++k) ASSERT_EQ(back[k], ps[i][k]);
    codec.Decode(ref, back);
    for (uint32_t k = 0; k < dim; ++k) ASSERT_EQ(back[k], ps[i][k]);
  }
}

// Full randomized sweep of the geometries the pipeline uses: dims 2-16
// (pow2 magic shuffle and odd-dim soft paths) x every bit width.
TEST(CodecIsaParityTest, EncodeDecodeParityDims2To16AllBits) {
  for (uint32_t dim = 2; dim <= 16; ++dim) {
    for (uint32_t bits = 1; bits <= 32; ++bits) {
      CheckCodecGeometry(dim, bits);
    }
  }
}

TEST(CodecIsaParityTest, EncodeDecodeParityEdgeGeometries) {
  for (uint32_t dim : {1u, 20u, 33u, 64u, 100u}) {
    for (uint32_t bits : {1u, 7u, 13u, 32u}) {
      CheckCodecGeometry(dim, bits);
    }
  }
}

// The BMI2 path must be pinned off under a forced scalar tier, and the
// scalar reference must match it when it is on.
TEST(CodecIsaParityTest, Bmi2GateFollowsActiveTier) {
  ScopedIsa guard;
  for (Isa isa : SupportedIsas()) {
    SetActiveIsa(isa);
    ZOrderCodec codec(8, 16);
    if (isa != Isa::kAvx2 || !HostCpuFeatures().bmi2) {
      EXPECT_FALSE(codec.uses_bmi2()) << IsaName(isa);
    }
  }
}

// ZB-tree probes (the per-tier tree walks) answer identically under every
// tier, on bulk-built and append-mode trees, against brute force.
TEST(KernelIsaParityTest, TreeProbesAgreeAcrossTiers) {
  ScopedIsa guard;
  for (uint32_t dim : {1u, 3u, 9u, 17u, 65u}) {
    ZOrderCodec codec(dim, 32);
    const PointSet wide = RandomCoords(dim, 32, 300, dim * 31 + 1);
    PointSet narrow(dim);
    // A narrow alphabet around 2^31 gives dense dominance at every dim.
    Rng rng(dim);
    std::vector<Coord> row(dim);
    for (size_t i = 0; i < 300; ++i) {
      for (auto& c : row) {
        c = 0x7FFFFFFEu + static_cast<Coord>(rng.NextBounded(4));
      }
      narrow.Append(row);
    }
    for (const PointSet* points : {&wide, &std::as_const(narrow)}) {
      ZBTree::Options options;
      options.leaf_capacity = 4;
      options.fanout = 3;
      ZBTree bulk(&codec, *points, options);
      ZBTree appended(&codec, options);
      for (size_t slot = 0; slot < bulk.size(); ++slot) {
        appended.Append(bulk.point(slot), bulk.id(slot));
      }
      const size_t n = bulk.size();
      for (Isa isa : SupportedIsas()) {
        SetActiveIsa(isa);
        for (size_t slot = 0; slot < n; slot += 3) {
          const auto p = bulk.point(slot);
          for (size_t slot_end : {slot, n}) {
            size_t brute = 0;
            for (size_t j = 0; j < slot_end; ++j) {
              brute += Dominates(bulk.point(j), p) ? 1 : 0;
            }
            for (const ZBTree* t : {&bulk, &appended}) {
              EXPECT_EQ(t->ExistsDominatorOf(p, slot_end), brute > 0)
                  << IsaName(isa) << " dim=" << dim << " slot=" << slot;
              EXPECT_EQ(t->CountDominatorsOf(p, 3, slot_end),
                        std::min<size_t>(3, brute))
                  << IsaName(isa) << " dim=" << dim << " slot=" << slot;
            }
          }
        }
      }
    }
  }
}

// BNL and SB scan their windows only through the block kernel, so each
// tier must reproduce the naive skyline on its own: windows of hundreds
// of points that end mid-tile, duplicate-heavy inputs (ties are never
// dominance), and the 1- and 16-dimensional edges of the lane layout.
TEST(KernelIsaParityTest, BnlAndSortBasedMatchNaiveOnEveryTier) {
  ScopedIsa guard;
  const Quantizer q(12);
  std::vector<std::pair<std::string, PointSet>> inputs;
  inputs.emplace_back(
      "anti_1500x4",
      GenerateQuantized(Distribution::kAnticorrelated, 1500, 4, 31, q));
  inputs.emplace_back(
      "indep_1200x7",
      GenerateQuantized(Distribution::kIndependent, 1200, 7, 32, q));
  inputs.emplace_back("ties_2000x5", RandomBatch(5, 2000, 33, 6));
  inputs.emplace_back("ties_500x1", RandomBatch(1, 500, 34, 40));
  inputs.emplace_back("ties_600x16", RandomBatch(16, 600, 35, 3));
  for (const auto& [name, points] : inputs) {
    const SkylineIndices oracle = NaiveSkyline(points);
    for (Isa isa : SupportedIsas()) {
      SetActiveIsa(isa);
      EXPECT_EQ(BnlSkyline(points), oracle) << name << " " << IsaName(isa);
      EXPECT_EQ(SortBasedSkyline(points), oracle)
          << name << " " << IsaName(isa);
    }
  }
}

// The whole pipeline must return the identical skyline under every
// dispatch tier (codec words, tree shapes and kernel answers all shift,
// the result may not).
TEST(ExecutorIsaInvarianceTest, SkylineIdenticalAcrossTiers) {
  ScopedIsa guard;
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            20000, 8, 42, Quantizer(16));
  ExecutorOptions options;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 4;
  options.num_map_tasks = 8;
  options.num_threads = 2;
  options.bits = 16;

  SetActiveIsa(Isa::kScalar);
  const SkylineIndices reference =
      ParallelSkylineExecutor(options).Execute(points).skyline;
  ASSERT_FALSE(reference.empty());

  for (Isa isa : SupportedIsas()) {
    SetActiveIsa(isa);
    const SkylineIndices skyline =
        ParallelSkylineExecutor(options).Execute(points).skyline;
    EXPECT_EQ(skyline, reference) << IsaName(isa);
  }
}

// Oversized sample skylines split the batched filter into block + rest
// tree; force that split with a small workload on a high-dim
// anticorrelated set (large skyline fraction): a 6000-point sample whose
// skyline exceeds the 4096-point block.
TEST(ExecutorIsaInvarianceTest, BatchedFilterSplitMatchesBnl) {
  const PointSet points = GenerateQuantized(Distribution::kAnticorrelated,
                                            12000, 10, 7, Quantizer(16));
  ExecutorOptions options;
  options.num_groups = 4;
  options.num_map_tasks = 4;
  options.num_threads = 2;
  options.bits = 16;
  options.sample_ratio = 0.5;  // Big sample -> sample skyline > block cap.
  const PreparedPlan plan = PreparePlan(points, options);
  ASSERT_TRUE(plan.szb_block.has_value());
  ASSERT_NE(plan.szb_tree, nullptr)  // The split actually happened.
      << "sample skyline " << plan.sample_skyline.size();
  const SkylineIndices batched =
      ParallelSkylineExecutor(options).ExecuteWithPlan(plan, points).skyline;
  EXPECT_EQ(batched, BnlSkyline(points));
}

}  // namespace
}  // namespace zsky
