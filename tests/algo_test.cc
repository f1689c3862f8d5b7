#include <gtest/gtest.h>

#include "algo/bnl.h"
#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "algo/verify.h"
#include "common/quantizer.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

PointSet HotelExample() {
  // Figure 1(a)-style data: (distance, rate). p4 dominates p5; p0 and p2
  // sit on the skyline.
  PointSet ps(2);
  ps.Append({1, 9});   // 0: nearest, most expensive.
  ps.Append({3, 7});   // 1
  ps.Append({2, 5});   // 2: dominates 1? (2<=3, 5<=7) yes.
  ps.Append({5, 3});   // 3
  ps.Append({4, 2});   // 4: dominates 5.
  ps.Append({6, 4});   // 5
  ps.Append({8, 1});   // 6
  return ps;
}

TEST(NaiveSkylineTest, HotelExample) {
  const SkylineIndices sky = NaiveSkyline(HotelExample());
  EXPECT_EQ(sky, (SkylineIndices{0, 2, 4, 6}));
}

TEST(BnlTest, MatchesNaiveOnHotelExample) {
  EXPECT_EQ(BnlSkyline(HotelExample()), NaiveSkyline(HotelExample()));
}

TEST(BnlTest, EmptyAndSingle) {
  PointSet empty(3);
  EXPECT_TRUE(BnlSkyline(empty).empty());
  PointSet one(3);
  one.Append({1, 2, 3});
  EXPECT_EQ(BnlSkyline(one), (SkylineIndices{0}));
}

TEST(BnlTest, DuplicatePointsAllSurvive) {
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({1, 1});
  ps.Append({2, 2});
  EXPECT_EQ(BnlSkyline(ps), (SkylineIndices{0, 1}));
}

TEST(BnlTest, AllSkylineAntiDiagonal) {
  PointSet ps(2);
  for (Coord i = 0; i < 10; ++i) ps.Append({i, 9 - i});
  EXPECT_EQ(BnlSkyline(ps).size(), 10u);
}

TEST(BnlTest, SingleSkylineChain) {
  PointSet ps(2);
  for (Coord i = 0; i < 10; ++i) ps.Append({i, i});
  EXPECT_EQ(BnlSkyline(ps), (SkylineIndices{0}));
}

TEST(SortBasedTest, MatchesNaiveOnHotelExample) {
  EXPECT_EQ(SortBasedSkyline(HotelExample()), NaiveSkyline(HotelExample()));
}

TEST(SortBasedTest, EmptyAndSingle) {
  PointSet empty(2);
  EXPECT_TRUE(SortBasedSkyline(empty).empty());
  PointSet one(2);
  one.Append({5, 5});
  EXPECT_EQ(SortBasedSkyline(one), (SkylineIndices{0}));
}

TEST(SortBasedTest, DuplicatePointsAllSurvive) {
  PointSet ps(2);
  ps.Append({3, 4});
  ps.Append({3, 4});
  EXPECT_EQ(SortBasedSkyline(ps).size(), 2u);
}

struct RandomCase {
  Distribution distribution;
  size_t n;
  uint32_t dim;
  uint64_t seed;
};

class SkylineOracleTest : public ::testing::TestWithParam<RandomCase> {};

TEST_P(SkylineOracleTest, BnlAndSortBasedMatchNaive) {
  const RandomCase& c = GetParam();
  const Quantizer q(10);
  const PointSet ps =
      GenerateQuantized(c.distribution, c.n, c.dim, c.seed, q);
  const SkylineIndices oracle = NaiveSkyline(ps);
  EXPECT_EQ(BnlSkyline(ps), oracle);
  EXPECT_EQ(SortBasedSkyline(ps), oracle);
}

// A static table keeps the padding bytes zero, so the byte dumps gtest
// prints into the case names do not change from run to run.
constexpr RandomCase kRandomCases[] = {
    {Distribution::kIndependent, 300, 2, 1},
    {Distribution::kIndependent, 300, 5, 2},
    {Distribution::kIndependent, 500, 8, 3},
    {Distribution::kCorrelated, 300, 3, 4},
    {Distribution::kCorrelated, 500, 6, 5},
    {Distribution::kAnticorrelated, 300, 2, 6},
    {Distribution::kAnticorrelated, 400, 4, 7},
    {Distribution::kAnticorrelated, 200, 7, 8},
    {Distribution::kIndependent, 64, 1, 9},
    {Distribution::kIndependent, 1000, 3, 10}};

INSTANTIATE_TEST_SUITE_P(RandomInputs, SkylineOracleTest,
                         ::testing::ValuesIn(kRandomCases));

TEST(VerifySkylineTest, AcceptsCorrectSkyline) {
  const PointSet ps = GenerateQuantized(Distribution::kAnticorrelated, 500, 3,
                                        1, Quantizer(12));
  EXPECT_FALSE(VerifySkyline(ps, BnlSkyline(ps)).has_value());
}

TEST(VerifySkylineTest, DetectsDominatedMember) {
  PointSet ps(2);
  ps.Append({1, 1});
  ps.Append({2, 2});
  const auto violation = VerifySkyline(ps, {0, 1});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, SkylineViolation::Kind::kDominatedMember);
  EXPECT_EQ(violation->row, 1u);
  EXPECT_EQ(violation->witness, 0u);
  EXPECT_NE(violation->ToString().find("dominated"), std::string::npos);
}

TEST(VerifySkylineTest, DetectsMissingMember) {
  PointSet ps(2);
  ps.Append({1, 2});
  ps.Append({2, 1});
  const auto violation = VerifySkyline(ps, {0});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, SkylineViolation::Kind::kMissingMember);
  EXPECT_EQ(violation->row, 1u);
}

TEST(VerifySkylineTest, DetectsOutOfRangeAndDuplicates) {
  PointSet ps(2);
  ps.Append({1, 1});
  auto violation = VerifySkyline(ps, {5});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, SkylineViolation::Kind::kOutOfRange);
  violation = VerifySkyline(ps, {0, 0});
  ASSERT_TRUE(violation.has_value());
  EXPECT_EQ(violation->kind, SkylineViolation::Kind::kDuplicateMember);
}

}  // namespace
}  // namespace zsky
