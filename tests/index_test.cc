#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "gen/synthetic.h"
#include "index/dynamic_skyline.h"
#include "index/zbtree.h"
#include "index/zmerge.h"
#include "index/zsearch.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

TEST(ZBTreeTest, BuildShape) {
  ZOrderCodec codec(3, kBits);
  PointSet ps = MakePoints(Distribution::kIndependent, 1000, 3, 1);
  ZBTree::Options options;
  options.leaf_capacity = 8;
  options.fanout = 4;
  ZBTree tree(&codec, ps, options);
  EXPECT_EQ(tree.size(), 1000u);
  EXPECT_EQ(tree.alive_count(), 1000u);
  EXPECT_GE(tree.height(), 3u);
  // Entries must come out in non-decreasing Z-order.
  for (size_t slot = 1; slot < tree.size(); ++slot) {
    const auto prev = tree.zwords(slot - 1);
    const auto cur = tree.zwords(slot);
    EXPECT_TRUE(std::lexicographical_compare(prev.begin(), prev.end(),
                                             cur.begin(), cur.end()) ||
                std::equal(prev.begin(), prev.end(), cur.begin()));
  }
}

TEST(ZBTreeTest, EmptyTree) {
  ZOrderCodec codec(2, kBits);
  PointSet ps(2);
  ZBTree tree(&codec, ps);
  EXPECT_TRUE(tree.empty());
  PointSet probe(2);
  probe.Append({1, 1});
  EXPECT_FALSE(tree.ExistsDominatorOf(probe[0]));
  EXPECT_EQ(tree.RemoveDominatedBy(probe[0]), 0u);
}

TEST(ZBTreeTest, ExistsDominatorMatchesBruteForce) {
  ZOrderCodec codec(4, kBits);
  PointSet ps = MakePoints(Distribution::kAnticorrelated, 400, 4, 2);
  ZBTree tree(&codec, ps);
  PointSet probes = MakePoints(Distribution::kIndependent, 200, 4, 3);
  for (size_t i = 0; i < probes.size(); ++i) {
    bool brute = false;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (Dominates(ps[j], probes[i])) {
        brute = true;
        break;
      }
    }
    EXPECT_EQ(tree.ExistsDominatorOf(probes[i]), brute) << "probe " << i;
  }
}

TEST(ZBTreeCountTest, CountDominatorsMatchesBruteForce) {
  const Quantizer quantizer(12);
  const PointSet ps =
      GenerateQuantized(Distribution::kIndependent, 800, 3, 9, quantizer);
  ZOrderCodec codec(3, 12);
  ZBTree tree(&codec, ps);
  const PointSet probes =
      GenerateQuantized(Distribution::kIndependent, 100, 3, 10, quantizer);
  for (size_t i = 0; i < probes.size(); ++i) {
    size_t brute = 0;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (Dominates(ps[j], probes[i])) ++brute;
    }
    for (size_t cap : {size_t{1}, size_t{3}, size_t{1000}}) {
      EXPECT_EQ(tree.CountDominatorsOf(probes[i], cap),
                std::min(brute, cap))
          << "probe " << i << " cap " << cap;
    }
  }
}

TEST(ZBTreeTest, RemoveDominatedMatchesBruteForce) {
  ZOrderCodec codec(3, kBits);
  PointSet ps = MakePoints(Distribution::kIndependent, 500, 3, 4);
  ZBTree tree(&codec, ps);
  PointSet probes = MakePoints(Distribution::kIndependent, 20, 3, 5);
  size_t expected_alive = ps.size();
  std::vector<uint8_t> alive(ps.size(), 1);
  for (size_t i = 0; i < probes.size(); ++i) {
    size_t brute_removed = 0;
    for (size_t j = 0; j < ps.size(); ++j) {
      if (alive[j] && Dominates(probes[i], ps[j])) {
        alive[j] = 0;
        ++brute_removed;
      }
    }
    EXPECT_EQ(tree.RemoveDominatedBy(probes[i]), brute_removed);
    expected_alive -= brute_removed;
    EXPECT_EQ(tree.alive_count(), expected_alive);
  }
  // Collect survivors and compare id sets.
  PointSet survivors(3);
  std::vector<uint32_t> ids;
  tree.CollectAlive(survivors, ids);
  EXPECT_EQ(ids.size(), expected_alive);
  std::sort(ids.begin(), ids.end());
  std::vector<uint32_t> brute_ids;
  for (uint32_t j = 0; j < ps.size(); ++j) {
    if (alive[j]) brute_ids.push_back(j);
  }
  EXPECT_EQ(ids, brute_ids);
}

// Points over a four-value alphabet that straddles 2^31, where a signed
// lane compare would order them wrongly, for codecs at 32 bits.
PointSet HighBitPoints(size_t n, uint32_t dim, uint64_t seed) {
  static constexpr Coord kAlphabet[] = {1u, 0x7FFFFFFFu, 0x80000000u,
                                        0xFFFFFFFEu};
  Rng rng(seed);
  PointSet ps(dim);
  std::vector<Coord> p(dim);
  for (size_t i = 0; i < n; ++i) {
    for (auto& c : p) c = kAlphabet[rng.NextBounded(4)];
    ps.Append(p);
  }
  return ps;
}

// An append-mode tree fed the slots of `bulk` in order.
ZBTree AppendCopy(const ZBTree& bulk) {
  ZBTree tree(&bulk.codec(), bulk.options());
  for (size_t slot = 0; slot < bulk.size(); ++slot) {
    tree.Append(bulk.point(slot), bulk.id(slot));
  }
  return tree;
}

// The slot bound restricts both queries to the alive entries in slots
// [0, slot_end), across equal points, tombstones, and the bounds 0 and
// size(), for a bulk-built tree and for an append-mode tree fed the same
// Z-ordered points. Bounds that cut leaves and inner nodes are swept
// exhaustively for points outside the tree. Geometries: 3d at 4 bits, and
// 9d and 17d at 32 bits with coordinates on both sides of 2^31.
TEST(ZBTreeTest, SlotBoundedQueriesMatchBruteForce) {
  struct Geometry {
    uint32_t dim;
    uint32_t bits;
    size_t n;
  };
  for (const Geometry g : {Geometry{3, 4, 600}, Geometry{9, 32, 300},
                           Geometry{17, 32, 200}}) {
    ZOrderCodec codec(g.dim, g.bits);
    // 4-bit coordinates over 600 points: many equal points.
    const PointSet base =
        g.bits == 4 ? GenerateQuantized(Distribution::kAnticorrelated, g.n,
                                        g.dim, 6, Quantizer(4))
                    : HighBitPoints(g.n, g.dim, g.dim);
    PointSet ps = base;
    for (size_t i = 0; i < 40; ++i) ps.AppendFrom(base, i);
    PointSet outside(g.dim);
    PointSet killers(g.dim);
    if (g.bits == 4) {
      outside.Append({15, 15, 15});
      outside.Append({12, 12, 12});
      outside.Append({8, 9, 10});
      killers.Append({3, 3, 3});
      killers.Append({1, 6, 2});
    } else {
      outside.Append(std::vector<Coord>(g.dim, 0xFFFFFFFFu));
      outside.Append(std::vector<Coord>(g.dim, 0x80000000u));
      std::vector<Coord> mixed(g.dim);
      for (uint32_t k = 0; k < g.dim; ++k) {
        mixed[k] = k % 2 == 0 ? 0x80000001u : 0xFFFFFFFEu;
      }
      outside.Append(mixed);
      killers.Append(std::vector<Coord>(g.dim, 0x7FFFFFFFu));
      killers.Append(std::vector<Coord>(g.dim, 1u));
    }
    ZBTree::Options options;
    options.leaf_capacity = 4;
    options.fanout = 3;
    ZBTree tree(&codec, ps, options);
    ZBTree appended = AppendCopy(tree);
    ASSERT_EQ(appended.height(), tree.height());
    const size_t n = tree.size();
    auto check = [&](std::span<const Coord> p, size_t slot_end) {
      size_t brute = 0;
      for (size_t j = 0; j < std::min(slot_end, n); ++j) {
        if (tree.alive(j) && Dominates(tree.point(j), p)) ++brute;
      }
      for (const ZBTree* t : {&tree, &appended}) {
        const char* mode = t == &tree ? "bulk" : "append";
        EXPECT_EQ(t->ExistsDominatorOf(p, slot_end), brute > 0)
            << mode << " dim=" << g.dim << " end=" << slot_end;
        for (size_t cap : {size_t{1}, size_t{2}, size_t{3}, n}) {
          EXPECT_EQ(t->CountDominatorsOf(p, cap, slot_end),
                    std::min(cap, brute))
              << mode << " dim=" << g.dim << " end=" << slot_end
              << " cap=" << cap;
        }
      }
    };
    auto check_all = [&] {
      for (size_t slot = 0; slot < n; slot += 7) {
        for (size_t slot_end :
             {size_t{0}, slot / 2 + 1, slot, slot + 1, n / 2 + 1, n}) {
          check(tree.point(slot), slot_end);
        }
      }
      for (size_t i = 0; i < outside.size(); ++i) {
        for (size_t slot_end = 0; slot_end <= n; ++slot_end) {
          check(outside[i], slot_end);
        }
      }
    };
    check_all();
    // A strict dominator always sits in an earlier slot.
    for (size_t slot = 0; slot < n; ++slot) {
      EXPECT_EQ(tree.CountDominatorsOf(tree.point(slot), n, slot),
                tree.CountDominatorsOf(tree.point(slot), n));
    }
    // Tombstones: every entry dominated by each killer in turn.
    size_t removed = 0;
    for (size_t i = 0; i < killers.size(); ++i) {
      size_t brute = 0;
      for (size_t j = 0; j < n; ++j) {
        if (tree.alive(j) && Dominates(killers[i], tree.point(j))) ++brute;
      }
      EXPECT_EQ(tree.RemoveDominatedBy(killers[i]), brute);
      EXPECT_EQ(appended.RemoveDominatedBy(killers[i]), brute);
      EXPECT_EQ(appended.alive_count(), tree.alive_count());
      removed += brute;
      check_all();
    }
    EXPECT_GT(removed, 0u) << "dim=" << g.dim;
  }
}

TEST(ZBTreeTest, CustomIds) {
  ZOrderCodec codec(2, kBits);
  PointSet ps(2);
  ps.Append({1, 2});
  ps.Append({3, 4});
  ZBTree tree(&codec, ps, std::vector<uint32_t>{100, 200},
              ZBTree::Options());
  PointSet out(2);
  std::vector<uint32_t> ids;
  tree.CollectAlive(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, (std::vector<uint32_t>{100, 200}));
}

TEST(DynamicSkylineTest, AppendAndQuery) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps(2);
  ps.Append({5, 5});
  ps.Append({6, 6});
  ps.Append({4, 7});
  EXPECT_FALSE(sky.ExistsDominatorOf(ps[0]));
  sky.Append(ps[0], 0);
  EXPECT_TRUE(sky.ExistsDominatorOf(ps[1]));
  EXPECT_FALSE(sky.ExistsDominatorOf(ps[2]));
  EXPECT_EQ(sky.size(), 1u);
}

TEST(DynamicSkylineTest, ManyAppendsTriggerTreeBuilds) {
  ZOrderCodec codec(3, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps = MakePoints(Distribution::kAnticorrelated, 2000, 3, 6);
  size_t appended = 0;
  for (size_t i = 0; i < ps.size(); ++i) {
    if (!sky.ExistsDominatorOf(ps[i])) {
      sky.RemoveDominatedBy(ps[i]);
      sky.Append(ps[i], static_cast<uint32_t>(i));
      ++appended;
    }
  }
  EXPECT_GT(sky.tree_count(), 0u);
  // Exported contents must equal the true skyline of the input.
  PointSet out(3);
  std::vector<uint32_t> ids;
  sky.Export(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, SortBasedSkyline(ps));
}

TEST(DynamicSkylineTest, RemoveDominatedAcrossTreesAndBuffer) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet ps(2);
  // A descending staircase: all incomparable.
  for (Coord i = 0; i < 200; ++i) ps.Append({i + 1, 200 - i});
  for (size_t i = 0; i < ps.size(); ++i) {
    sky.Append(ps[i], static_cast<uint32_t>(i));
  }
  EXPECT_EQ(sky.size(), 200u);
  PointSet killer(2);
  killer.Append({0, 0});
  EXPECT_EQ(sky.RemoveDominatedBy(killer[0]), 200u);
  EXPECT_TRUE(sky.empty());
}

TEST(DynamicSkylineTest, BoundingRegionCoversContents) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  EXPECT_FALSE(sky.BoundingRegion().has_value());
  PointSet ps(2);
  for (Coord i = 0; i < 100; ++i) ps.Append({i, 99 - i});
  for (size_t i = 0; i < ps.size(); ++i) {
    sky.Append(ps[i], static_cast<uint32_t>(i));
  }
  const auto region = sky.BoundingRegion();
  ASSERT_TRUE(region.has_value());
  for (size_t i = 0; i < ps.size(); ++i) {
    EXPECT_TRUE(region->ContainsPoint(ps[i]));
  }
}

struct ZCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

class ZSearchOracleTest : public ::testing::TestWithParam<ZCase> {};

TEST_P(ZSearchOracleTest, MatchesSortBased) {
  const ZCase& c = GetParam();
  ZOrderCodec codec(c.dim, kBits);
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  EXPECT_EQ(ZSearchSkyline(codec, ps), SortBasedSkyline(ps));
}

// The same shapes at bits = 32, with coordinates on both sides of 2^31
// and many equal points, under small leaves and fanout so the skyline
// tree grows several levels by appends.
TEST_P(ZSearchOracleTest, MatchesSortBasedAtHighBits) {
  const ZCase& c = GetParam();
  ZOrderCodec codec(c.dim, 32);
  const PointSet ps = HighBitPoints(c.n, c.dim, c.seed);
  ZBTree::Options options;
  options.leaf_capacity = 2;
  options.fanout = 3;
  EXPECT_EQ(ZSearchSkyline(codec, ps, options), SortBasedSkyline(ps));
}

// A static table keeps the padding bytes zero, so the byte dumps gtest
// prints into the case names do not change from run to run. Dims 1, 17
// and 65 (above simd::kMaxVectorDim) cover the padded bounds lanes.
constexpr ZCase kZSearchCases[] = {
    {Distribution::kIndependent, 2000, 2, 1},
    {Distribution::kIndependent, 2000, 5, 2},
    {Distribution::kIndependent, 500, 9, 3},
    {Distribution::kCorrelated, 2000, 4, 4},
    {Distribution::kAnticorrelated, 1000, 3, 5},
    {Distribution::kAnticorrelated, 800, 6, 6},
    {Distribution::kIndependent, 1, 4, 7},
    {Distribution::kIndependent, 63, 2, 8},
    {Distribution::kIndependent, 300, 1, 9},
    {Distribution::kAnticorrelated, 600, 17, 10},
    {Distribution::kCorrelated, 300, 65, 11}};

INSTANTIATE_TEST_SUITE_P(RandomInputs, ZSearchOracleTest,
                         ::testing::ValuesIn(kZSearchCases));

TEST(ZSearchTest, StatsPopulated) {
  ZOrderCodec codec(4, kBits);
  const PointSet ps = MakePoints(Distribution::kIndependent, 5000, 4, 9);
  ZSearchStats stats;
  ZSearchSkyline(codec, ps, ZBTree::Options(), &stats);
  EXPECT_GT(stats.nodes_visited, 0u);
  EXPECT_GT(stats.nodes_pruned, 0u);
  EXPECT_LT(stats.points_tested, ps.size());  // Pruning must skip points.
}

class ZMergeOracleTest : public ::testing::TestWithParam<ZCase> {};

// Z-merge of per-chunk skylines must equal the skyline of the union.
TEST_P(ZMergeOracleTest, MergedChunksEqualGlobalSkyline) {
  const ZCase& c = GetParam();
  ZOrderCodec codec(c.dim, kBits);
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  const size_t chunks = 5;
  DynamicSkyline sky(&codec);
  for (size_t chunk = 0; chunk < chunks; ++chunk) {
    const size_t begin = chunk * ps.size() / chunks;
    const size_t end = (chunk + 1) * ps.size() / chunks;
    PointSet part(c.dim);
    std::vector<uint32_t> rows;
    for (size_t i = begin; i < end; ++i) {
      part.AppendFrom(ps, i);
      rows.push_back(static_cast<uint32_t>(i));
    }
    // Local skyline of the chunk (dominance-free input for Z-merge).
    const SkylineIndices local = SortBasedSkyline(part);
    PointSet local_points(c.dim);
    std::vector<uint32_t> local_ids;
    for (uint32_t i : local) {
      local_points.AppendFrom(part, i);
      local_ids.push_back(rows[i]);
    }
    ZBTree src(&codec, local_points, std::move(local_ids),
               ZBTree::Options());
    ZMerge(src, sky);
  }
  PointSet out(c.dim);
  std::vector<uint32_t> ids;
  sky.Export(out, ids);
  std::sort(ids.begin(), ids.end());
  EXPECT_EQ(ids, SortBasedSkyline(ps));
}

// A static table keeps the padding bytes zero, so the byte dumps gtest
// prints into the case names do not change from run to run.
constexpr ZCase kZMergeCases[] = {
    {Distribution::kIndependent, 3000, 3, 11},
    {Distribution::kIndependent, 2000, 6, 12},
    {Distribution::kCorrelated, 3000, 4, 13},
    {Distribution::kAnticorrelated, 1500, 2, 14},
    {Distribution::kAnticorrelated, 1000, 5, 15},
    {Distribution::kIndependent, 10, 3, 16}};

INSTANTIATE_TEST_SUITE_P(RandomInputs, ZMergeOracleTest,
                         ::testing::ValuesIn(kZMergeCases));

TEST(ZMergeTest, StatsTrackPruning) {
  ZOrderCodec codec(2, kBits);
  // Existing skyline near the origin dominates a far-away candidate tree:
  // everything should be discarded at the region level.
  PointSet sky_points(2);
  sky_points.Append({0, 0});
  DynamicSkyline sky(&codec);
  sky.Append(sky_points[0], 0);
  PointSet far(2);
  for (Coord i = 0; i < 64; ++i) far.Append({i + 500, 500 + (64 - i)});
  const SkylineIndices far_sky = SortBasedSkyline(far);
  PointSet far_points = PointSet::Gather(far, far_sky);
  ZBTree src(&codec, far_points, ZBTree::Options());
  ZMergeStats stats;
  ZMerge(src, sky, &stats);
  EXPECT_EQ(sky.size(), 1u);
  EXPECT_GE(stats.subtrees_discarded, 1u);
  // Region-level pruning must discard most candidates without point tests.
  EXPECT_LT(stats.points_tested, far_points.size());
}

TEST(ZMergeTest, IncomparableSubtreeAppendedWholesale) {
  ZOrderCodec codec(2, kBits);
  DynamicSkyline sky(&codec);
  PointSet corner(2);
  corner.Append({1023, 0});
  sky.Append(corner[0], 9999);
  // Candidates incomparable with the single skyline point.
  PointSet cands(2);
  for (Coord i = 0; i < 32; ++i) cands.Append({i + 200, 800 - i});
  ZBTree src(&codec, cands, ZBTree::Options());
  ZMergeStats stats;
  ZMerge(src, sky, &stats);
  EXPECT_EQ(sky.size(), 1u + 32u);
  EXPECT_GE(stats.subtrees_appended, 1u);
}

}  // namespace
}  // namespace zsky
