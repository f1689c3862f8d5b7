#include <gtest/gtest.h>

#include "algo/bnl.h"
#include "algo/verify.h"
#include "common/quantizer.h"
#include "core/metrics_json.h"
#include "core/planner.h"
#include "core/report.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

TEST(VerifySkylineTest, AcceptsCorrectSkyline) {
  const PointSet ps = MakePoints(Distribution::kAnticorrelated, 500, 3, 1);
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

TEST(ChoosePlanTest, CorrelatedLowDimPicksSortBased) {
  // Tiny skyline at low dimensionality: pairwise SB locals are priced far
  // below Z-search (the window stays near 1), so the cost model must land
  // on the same regime the paper's measurements do.
  const PointSet points = MakePoints(Distribution::kCorrelated, 20000, 3, 2);
  ExecutorOptions base;
  base.bits = kBits;
  const PlanChoice choice = ChoosePlan(points, base);
  EXPECT_EQ(choice.options.local, LocalAlgorithm::kSortBased);
  EXPECT_EQ(choice.options.merge, MergeAlgorithm::kSortBased);
  EXPECT_EQ(choice.candidates.size(), 12u);
  EXPECT_GT(choice.predicted_total_ms, 0.0);
  EXPECT_FALSE(choice.rationale.empty());
}

TEST(ChoosePlanTest, AnticorrelatedHighDimPicksZSearch) {
  // Skyline-heavy data: SB's quadratic window explodes, Z-search's
  // n log n term wins.
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 20000, 9, 3);
  ExecutorOptions base;
  base.bits = kBits;
  const PlanChoice choice = ChoosePlan(points, base);
  EXPECT_EQ(choice.options.local, LocalAlgorithm::kZSearch);
  EXPECT_EQ(choice.options.merge, MergeAlgorithm::kPrefixProbe);
  EXPECT_GT(choice.estimated_skyline_fraction, 0.10);
}

TEST(ChoosePlanTest, ExtremeDimDisablesSzbFilter) {
  const Quantizer q(kBits);
  const auto values = GenerateClustered(2000, 64, 8, 0.05, 4);
  const PointSet points = q.QuantizeAll(values, 64);
  ExecutorOptions base;
  base.bits = kBits;
  EXPECT_FALSE(ChoosePlan(points, base).options.enable_szb_filter);
}

TEST(ChoosePlanTest, PredictionsCoverEveryCandidate) {
  const PointSet points = MakePoints(Distribution::kIndependent, 8000, 5, 4);
  ExecutorOptions base;
  base.bits = kBits;
  base.num_groups = 8;
  const PlanChoice choice = ChoosePlan(points, base);
  // 3 schemes x 2 locals x 2 group counts, all priced, winner among them.
  ASSERT_EQ(choice.candidates.size(), 12u);
  bool winner_listed = false;
  for (const PlanCandidateCost& cand : choice.candidates) {
    EXPECT_GT(cand.predicted_total_ms, 0.0) << cand.label;
    EXPECT_FALSE(cand.label.empty());
    if (cand.predicted_total_ms == choice.predicted_total_ms) {
      winner_listed = true;
    }
  }
  EXPECT_TRUE(winner_listed);
  // The winner may double the reducer count but never invents other
  // group figures, and caller-fixed settings survive.
  EXPECT_TRUE(choice.options.num_groups == 8u ||
              choice.options.num_groups == 16u);
  EXPECT_EQ(choice.options.bits, kBits);
}

// ChoosePlan picks the scheme, local, merge, reducer count, sample ratio
// and (at extreme dimensionality) the SZB filter; every other caller
// setting reaches the chosen options untouched.
TEST(ChoosePlanTest, PreservesCallerSettings) {
  const PointSet points = MakePoints(Distribution::kIndependent, 3000, 4, 6);
  ExecutorOptions base;
  base.bits = kBits;
  base.num_groups = 17;
  base.num_threads = 3;
  base.num_map_tasks = 5;
  base.expansion = 2;
  base.enable_combiner = false;
  base.reuse_worker_pool = false;
  base.morsel_scheduling = false;
  base.readahead = false;
  base.max_task_attempts = 3;
  base.seed = 99;
  const ExecutorOptions chosen = ChoosePlan(points, base).options;
  EXPECT_TRUE(chosen.num_groups == 17u || chosen.num_groups == 34u);
  EXPECT_EQ(chosen.bits, kBits);
  EXPECT_EQ(chosen.num_threads, 3u);
  EXPECT_EQ(chosen.num_map_tasks, 5u);
  EXPECT_EQ(chosen.expansion, 2u);
  EXPECT_FALSE(chosen.enable_combiner);
  EXPECT_FALSE(chosen.reuse_worker_pool);
  EXPECT_FALSE(chosen.morsel_scheduling);
  EXPECT_FALSE(chosen.readahead);
  EXPECT_EQ(chosen.max_task_attempts, 3u);
  EXPECT_EQ(chosen.seed, 99u);
  EXPECT_TRUE(chosen.enable_szb_filter);
}

TEST(ChoosePlanTest, CalibrationScalesPredictions) {
  const PointSet points = MakePoints(Distribution::kIndependent, 8000, 5, 4);
  ExecutorOptions base;
  base.bits = kBits;
  const PlanChoice baseline = ChoosePlan(points, base);
  PlanCalibration doubled;
  doubled.job1_scale = 2.0;
  doubled.job2_scale = 2.0;
  const PlanChoice scaled = ChoosePlan(points, base, doubled);
  // Uniform scaling doubles every price and therefore keeps the ranking.
  EXPECT_EQ(scaled.options.Label(), baseline.options.Label());
  EXPECT_NEAR(scaled.predicted_total_ms, 2.0 * baseline.predicted_total_ms,
              1e-9 + 1e-6 * baseline.predicted_total_ms);
}

TEST(ChoosePlanTest, ChosenPlanMatchesEveryAlternative) {
  // Parity: whatever the cost model picks must return the exact same
  // skyline as every hand-picked scheme/local alternative it rejected.
  for (auto dist : {Distribution::kCorrelated, Distribution::kAnticorrelated}) {
    const PointSet points = MakePoints(dist, 5000, 4, 5);
    ExecutorOptions base;
    base.bits = kBits;
    const PlanChoice choice = ChoosePlan(points, base);
    const auto chosen =
        ParallelSkylineExecutor(choice.options).Execute(points);
    EXPECT_EQ(chosen.skyline, BnlSkyline(points)) << choice.rationale;
    for (auto scheme : {PartitioningScheme::kZdg, PartitioningScheme::kZhg,
                        PartitioningScheme::kGrid}) {
      for (auto local : {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch}) {
        ExecutorOptions alt = base;
        alt.partitioning = scheme;
        alt.local = local;
        alt.merge = local == LocalAlgorithm::kSortBased
                        ? MergeAlgorithm::kSortBased
                        : MergeAlgorithm::kZMerge;
        const auto result = ParallelSkylineExecutor(alt).Execute(points);
        EXPECT_EQ(result.skyline, chosen.skyline) << alt.Label();
      }
    }
  }
}

TEST(MetricsJsonTest, WellFormedAndComplete) {
  const PointSet points = MakePoints(Distribution::kIndependent, 4000, 4, 7);
  ExecutorOptions options;
  options.bits = kBits;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  const std::string json = MetricsToJson(result.metrics);
  // Structural sanity: balanced braces, expected keys present.
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  size_t depth = 0;
  for (char c : json) {
    if (c == '{') ++depth;
    if (c == '}') {
      ASSERT_GT(depth, 0u);
      --depth;
    }
  }
  EXPECT_EQ(depth, 0u);
  for (const char* key :
       {"\"preprocess_ms\":", "\"sim_total_ms\":", "\"candidates\":",
        "\"job1\":", "\"job2\":", "\"shuffle_records\":",
        "\"reduce_skew\":", "\"succeeded\":true"}) {
    EXPECT_NE(json.find(key), std::string::npos) << key << "\n" << json;
  }
}

TEST(ReportTest, FormatsWithoutTruncation) {
  const PointSet points = MakePoints(Distribution::kIndependent, 4000, 4, 8);
  ExecutorOptions options;
  options.bits = kBits;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  const std::string report = FormatPhaseMetrics(result.metrics);
  EXPECT_NE(report.find("phases"), std::string::npos);
  EXPECT_NE(report.find("candidates"), std::string::npos);
  EXPECT_NE(report.find("balance"), std::string::npos);
  const std::string summary =
      FormatRunSummary(options, points.size(), result);
  EXPECT_NE(summary.find("zdg"), std::string::npos);
  EXPECT_NE(summary.find("skyline"), std::string::npos);
}

TEST(ExecutorBbsLocalTest, MatchesOracle) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 4000, 4,
                                     9);
  ExecutorOptions options;
  options.bits = kBits;
  options.local = LocalAlgorithm::kBbs;
  const auto result = ParallelSkylineExecutor(options).Execute(points);
  EXPECT_EQ(result.skyline, BnlSkyline(points));
}

}  // namespace
}  // namespace zsky
