#include <gtest/gtest.h>

#include <algorithm>

#include "algo/bnl.h"
#include "algo/dnc.h"
#include "algo/ranked.h"
#include "algo/skyband.h"
#include "algo/sort_based.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"
#include "index/zsearch.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 10;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

struct Case {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

class DncOracleTest : public ::testing::TestWithParam<Case> {};

TEST_P(DncOracleTest, MatchesBnl) {
  const Case& c = GetParam();
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  EXPECT_EQ(DncSkyline(ps), BnlSkyline(ps));
}

// A static table keeps the padding bytes zero, so the byte dumps gtest
// prints into the case names do not change from run to run.
constexpr Case kDncCases[] = {
    {Distribution::kIndependent, 2000, 2, 1},
    {Distribution::kIndependent, 2000, 5, 2},
    {Distribution::kCorrelated, 2000, 4, 3},
    {Distribution::kAnticorrelated, 1500, 3, 4},
    {Distribution::kAnticorrelated, 800, 7, 5},
    {Distribution::kIndependent, 63, 2, 6},
    {Distribution::kIndependent, 64, 2, 7},
    {Distribution::kIndependent, 65, 2, 8}};

INSTANTIATE_TEST_SUITE_P(RandomInputs, DncOracleTest,
                         ::testing::ValuesIn(kDncCases));

TEST(DncTest, SmallLeafSizes) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 500, 3, 9);
  const SkylineIndices expected = BnlSkyline(ps);
  for (size_t leaf : {1u, 2u, 7u, 100u, 1000u}) {
    EXPECT_EQ(DncSkyline(ps, leaf), expected) << "leaf=" << leaf;
  }
}

TEST(DncTest, ConstantFirstDimension) {
  PointSet ps(3);
  for (Coord i = 0; i < 200; ++i) ps.Append({7, i, 199 - i});
  EXPECT_EQ(DncSkyline(ps, /*leaf_size=*/16), BnlSkyline(ps));
}

TEST(DncTest, EmptyAndSingle) {
  PointSet empty(2);
  EXPECT_TRUE(DncSkyline(empty).empty());
  PointSet one(2);
  one.Append({1, 1});
  EXPECT_EQ(DncSkyline(one), (SkylineIndices{0}));
}

class SkybandTest : public ::testing::TestWithParam<Case> {};

TEST_P(SkybandTest, ZOrderMatchesNaive) {
  const Case& c = GetParam();
  const PointSet ps = MakePoints(c.distribution, c.n, c.dim, c.seed);
  ZOrderCodec codec(c.dim, kBits);
  for (uint32_t k : {1u, 2u, 3u, 5u, 8u}) {
    EXPECT_EQ(ZOrderSkyband(codec, ps, k), NaiveSkyband(ps, k))
        << "k=" << k;
  }
}

// Heavy duplicates: 2-bit coordinates, and the first 60 rows three times
// more. Equal points never dominate each other, so a run of equal points
// shares one dominator count.
TEST_P(SkybandTest, ZOrderMatchesNaiveWithDuplicates) {
  const Case& c = GetParam();
  const PointSet base =
      GenerateQuantized(c.distribution, c.n, c.dim, c.seed, Quantizer(2));
  PointSet ps = base;
  for (int copy = 0; copy < 3; ++copy) {
    for (size_t i = 0; i < std::min<size_t>(60, base.size()); ++i) {
      ps.AppendFrom(base, i);
    }
  }
  ZOrderCodec codec(c.dim, 2);
  for (uint32_t k : {1u, 2u, 3u, 5u}) {
    EXPECT_EQ(ZOrderSkyband(codec, ps, k), NaiveSkyband(ps, k))
        << "k=" << k;
  }
}

// A static table keeps the padding bytes zero, so the byte dumps gtest
// prints into the case names do not change from run to run.
constexpr Case kSkybandCases[] = {
    {Distribution::kIndependent, 600, 2, 11},
    {Distribution::kIndependent, 600, 4, 12},
    {Distribution::kCorrelated, 600, 3, 13},
    {Distribution::kAnticorrelated, 500, 5, 14},
    {Distribution::kAnticorrelated, 500, 8, 18},
    {Distribution::kIndependent, 400, 9, 19}};

INSTANTIATE_TEST_SUITE_P(RandomInputs, SkybandTest,
                         ::testing::ValuesIn(kSkybandCases));

TEST(SkybandPropertiesTest, OneBandIsSkyline) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 1000, 4, 15);
  ZOrderCodec codec(4, kBits);
  EXPECT_EQ(ZOrderSkyband(codec, ps, 1), SortBasedSkyline(ps));
}

TEST(SkybandPropertiesTest, MonotoneInK) {
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, 800, 3, 16);
  ZOrderCodec codec(3, kBits);
  SkylineIndices previous;
  for (uint32_t k = 1; k <= 6; ++k) {
    const SkylineIndices band = ZOrderSkyband(codec, ps, k);
    EXPECT_TRUE(std::includes(band.begin(), band.end(), previous.begin(),
                              previous.end()))
        << "band(" << k << ") must contain band(" << k - 1 << ")";
    previous = band;
  }
}

TEST(SkybandPropertiesTest, LargeKReturnsEverything) {
  const PointSet ps = MakePoints(Distribution::kCorrelated, 300, 3, 17);
  ZOrderCodec codec(3, kBits);
  EXPECT_EQ(ZOrderSkyband(codec, ps, 1000).size(), ps.size());
}

TEST(TopKSkylineTest, SizesAndMembership) {
  const PointSet ps = MakePoints(Distribution::kIndependent, 2000, 4, 18);
  const SkylineIndices sky = SortBasedSkyline(ps);
  for (SkylineRank rank :
       {SkylineRank::kDominanceCount, SkylineRank::kScoreSum}) {
    const auto top = TopKSkyline(ps, sky, 5, rank);
    EXPECT_EQ(top.size(), std::min<size_t>(5, sky.size()));
    for (const RankedPoint& rp : top) {
      EXPECT_TRUE(std::binary_search(sky.begin(), sky.end(), rp.row));
    }
  }
}

TEST(TopKSkylineTest, DominanceCountOrdering) {
  // A point dominating everything scores highest.
  PointSet ps(2);
  ps.Append({0, 0});  // Dominates all others.
  ps.Append({0, 5});
  ps.Append({5, 0});
  for (Coord i = 1; i < 20; ++i) ps.Append({i + 5, i + 5});
  const auto top = TopKSkyline(ps, 1, SkylineRank::kDominanceCount);
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].row, 0u);
  EXPECT_EQ(top[0].score, 21.0);  // Dominates rows 1..21 except itself? 22
                                  // points total, dominates 21.
}

TEST(TopKSkylineTest, ScoreSumOrdering) {
  PointSet ps(2);
  ps.Append({1, 4});  // Sum 5.
  ps.Append({2, 2});  // Sum 4: best.
  ps.Append({4, 1});  // Sum 5.
  const auto top = TopKSkyline(ps, 3, SkylineRank::kScoreSum);
  ASSERT_EQ(top.size(), 3u);
  EXPECT_EQ(top[0].row, 1u);
}

TEST(TopKSkylineTest, KLargerThanSkyline) {
  const PointSet ps = MakePoints(Distribution::kCorrelated, 500, 3, 19);
  const SkylineIndices sky = SortBasedSkyline(ps);
  const auto top = TopKSkyline(ps, 10'000, SkylineRank::kScoreSum);
  EXPECT_EQ(top.size(), sky.size());
}

TEST(TopKSkylineTest, RankNames) {
  EXPECT_EQ(SkylineRankName(SkylineRank::kDominanceCount),
            "dominance-count");
  EXPECT_EQ(SkylineRankName(SkylineRank::kScoreSum), "score-sum");
}

}  // namespace
}  // namespace zsky
