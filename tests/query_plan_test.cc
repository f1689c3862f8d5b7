#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "algo/bnl.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "core/executor.h"
#include "core/planner.h"
#include "core/query_plan.h"
#include "gen/synthetic.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

ExecutorOptions BaseOptions(PartitioningScheme scheme, LocalAlgorithm local) {
  ExecutorOptions options;
  options.partitioning = scheme;
  options.local = local;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 6;
  options.expansion = 3;
  options.sample_ratio = 0.05;
  options.bits = kBits;
  options.num_map_tasks = 7;
  options.num_threads = 4;
  return options;
}

struct PlanReuseCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
};

std::string PlanReuseCaseName(
    const ::testing::TestParamInfo<PlanReuseCase>& info) {
  std::string name =
      std::string(PartitioningSchemeName(info.param.partitioning)) + "_" +
      std::string(LocalAlgorithmName(info.param.local));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class PlanReuseParityTest : public ::testing::TestWithParam<PlanReuseCase> {};

// The tentpole refactor's core guarantee: preparing a plan once and
// running N queries against it is bit-identical to N one-shot Execute()
// calls — for every partitioning scheme and local algorithm.
TEST_P(PlanReuseParityTest, ReusedPlanMatchesOneShot) {
  const PlanReuseCase& c = GetParam();
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 3000, 4,
                                     913);
  const ExecutorOptions options = BaseOptions(c.partitioning, c.local);
  const ParallelSkylineExecutor executor(options);

  const PreparedPlan plan = PreparePlan(points, options);
  const SkylineIndices oracle = BnlSkyline(points);
  constexpr int kQueries = 3;
  for (int q = 0; q < kQueries; ++q) {
    const SkylineQueryResult warm = executor.ExecuteWithPlan(plan, points);
    const SkylineQueryResult cold = executor.Execute(points);
    EXPECT_EQ(warm.skyline, cold.skyline) << options.Label();
    EXPECT_EQ(warm.skyline, oracle) << options.Label();
    EXPECT_TRUE(warm.metrics.plan_reused);
    EXPECT_FALSE(cold.metrics.plan_reused);
    EXPECT_EQ(warm.metrics.preprocess_ms, 0.0);
    EXPECT_GT(cold.metrics.preprocess_ms, 0.0);
  }

  // Variant axis: a box-only desc rides the same prepared plan (no shape
  // rebuild — the box is per-query state) and stays bit-identical to a
  // one-shot run of the same desc.
  QueryDesc desc;
  desc.box_lo = {0, 0, 0, 0};
  desc.box_hi = {3000, 3500, (1u << kBits) - 1, (1u << kBits) - 1};
  const SkylineQueryResult warm_boxed =
      executor.ExecuteWithPlan(plan, points, desc);
  const SkylineQueryResult cold_boxed = executor.Execute(points, desc);
  EXPECT_EQ(warm_boxed.skyline, cold_boxed.skyline) << options.Label();
  EXPECT_TRUE(warm_boxed.metrics.plan_reused);
  EXPECT_EQ(warm_boxed.metrics.subspace_plan_rebuilds, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesAndLocals, PlanReuseParityTest,
    ::testing::ValuesIn([] {
      std::vector<PlanReuseCase> cases;
      for (PartitioningScheme scheme :
           {PartitioningScheme::kRandom, PartitioningScheme::kGrid,
            PartitioningScheme::kAngle, PartitioningScheme::kQuadTree,
            PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
            PartitioningScheme::kZdg}) {
        for (LocalAlgorithm local :
             {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch,
              LocalAlgorithm::kBbs}) {
          cases.push_back({scheme, local});
        }
      }
      return cases;
    }()),
    PlanReuseCaseName);

TEST(PreparePlanTest, PopulatesPlanShapeStatistics) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2000, 5, 7);
  const ExecutorOptions options =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  const PreparedPlan plan = PreparePlan(points, options);

  EXPECT_EQ(plan.dim, 5u);
  EXPECT_EQ(plan.dataset_size, 2000u);
  ASSERT_NE(plan.partitioner, nullptr);
  ASSERT_NE(plan.zgroup, nullptr);
  EXPECT_GT(plan.sample.size(), 0u);
  EXPECT_GT(plan.sample_skyline.size(), 0u);
  EXPECT_GT(plan.num_partitions, 0u);
  EXPECT_TRUE(plan.HasSzbFilter());
  EXPECT_GT(plan.build_ms, 0.0);
}

TEST(PreparePlanTest, EmptyInputYieldsEmptyPlan) {
  const PointSet points(3);
  const PreparedPlan plan = PreparePlan(
      points, BaseOptions(PartitioningScheme::kZhg, LocalAlgorithm::kZSearch));
  EXPECT_EQ(plan.partitioner, nullptr);
  EXPECT_FALSE(plan.HasSzbFilter());
}

TEST(PreparePlanTest, GridPlanExposesTypedGridView) {
  const PointSet points = MakePoints(Distribution::kIndependent, 1000, 3, 11);
  const PreparedPlan plan = PreparePlan(
      points,
      BaseOptions(PartitioningScheme::kGrid, LocalAlgorithm::kSortBased));
  ASSERT_NE(plan.grid, nullptr);
  EXPECT_EQ(plan.zgroup, nullptr);
  EXPECT_GT(plan.grid->num_groups(), 0u);
}

// The planner can price a built plan without running a query.
TEST(EstimatePlanCostTest, UsesPlanStatisticsOnly) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 4000, 4, 19);
  const ExecutorOptions options =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  const PreparedPlan plan = PreparePlan(points, options);

  const PlanCostEstimate estimate = EstimatePlanCost(plan, points.size());
  EXPECT_GT(estimate.expected_shuffle_records, 0u);
  EXPECT_LE(estimate.expected_shuffle_records, points.size());
  EXPECT_GT(estimate.expected_candidates, 0u);
  EXPECT_LE(estimate.expected_candidates, estimate.expected_shuffle_records);
  EXPECT_GE(estimate.szb_filter_rate, 0.0);
  EXPECT_LT(estimate.szb_filter_rate, 1.0);
  EXPECT_GE(estimate.pruned_fraction, 0.0);
  EXPECT_LE(estimate.pruned_fraction, 1.0);

  // The estimate should be in the ballpark of a real run: the actual
  // candidate count must not exceed the predicted shuffle volume.
  const SkylineQueryResult result =
      ParallelSkylineExecutor(options).Execute(points);
  EXPECT_LE(result.metrics.candidates, estimate.expected_shuffle_records);
}

TEST(EstimatePlanCostTest, EmptyInputsYieldZeroEstimate) {
  const PointSet points(2);
  const PreparedPlan plan = PreparePlan(
      points, BaseOptions(PartitioningScheme::kZhg, LocalAlgorithm::kZSearch));
  const PlanCostEstimate estimate = EstimatePlanCost(plan, 0);
  EXPECT_EQ(estimate.expected_shuffle_records, 0u);
  EXPECT_EQ(estimate.expected_candidates, 0u);
}

// --- BuildSzbFilter: the one construction of the mapper filter. k = 1
// scans a DominanceBlock over the band's first 4096 points and walks a
// ZB-tree only for the overflow; k > 1 counts dominators in one tree.
constexpr size_t kSzbBlockCap = 4096;

bool BruteDominated(const PointSet& band, std::span<const Coord> p) {
  for (size_t j = 0; j < band.size(); ++j) {
    if (Dominates(band[j], p)) return true;
  }
  return false;
}

TEST(SzbFilterTest, EmptyBandBuildsNoFilter) {
  const ZOrderCodec codec(3, kBits);
  const PointSet band(3);
  for (const uint32_t k : {1u, 2u}) {
    EXPECT_TRUE(BuildSzbFilter(&codec, band, k, ZBTree::Options{}).empty())
        << "k=" << k;
  }
}

TEST(SzbFilterTest, BandWithinCapIsOneBlock) {
  const PointSet band = MakePoints(Distribution::kIndependent, 1000, 3, 21);
  const ZOrderCodec codec(3, kBits);
  const SzbFilter filter = BuildSzbFilter(&codec, band, 1, ZBTree::Options{});
  ASSERT_TRUE(filter.block.has_value());
  EXPECT_EQ(filter.block->size(), band.size());
  EXPECT_EQ(filter.tree, nullptr);
  const PointSet probes = MakePoints(Distribution::kIndependent, 300, 3, 22);
  for (size_t i = 0; i < probes.size(); ++i) {
    EXPECT_EQ(filter.block->AnyDominates(probes[i]),
              BruteDominated(band, probes[i]))
        << "probe " << i;
  }
}

// A band past the cap keeps its first kSzbBlockCap points in the block,
// in band order, and the rest in the tree; together they answer exactly
// "dominated by some band point". The tail is drawn from the low half of
// the domain and the head from the high half, so many probes have only
// tail dominators and the overflow tree must catch them.
TEST(SzbFilterTest, OversizedBandSplitsBlockAndTree) {
  constexpr uint32_t kDim = 3;
  constexpr Coord kHalf = Coord{1} << (kBits - 1);
  const PointSet raw =
      MakePoints(Distribution::kIndependent, kSzbBlockCap + 700, kDim, 23);
  PointSet band(kDim);
  std::vector<Coord> q(kDim);
  for (size_t i = 0; i < raw.size(); ++i) {
    for (uint32_t d = 0; d < kDim; ++d) {
      q[d] = i < kSzbBlockCap ? kHalf + raw[i][d] / 2 : raw[i][d] / 2;
    }
    band.Append(q);
  }
  const ZOrderCodec codec(kDim, kBits);
  const SzbFilter filter = BuildSzbFilter(&codec, band, 1, ZBTree::Options{});
  ASSERT_TRUE(filter.block.has_value());
  ASSERT_NE(filter.tree, nullptr);
  EXPECT_EQ(filter.block->size(), kSzbBlockCap);
  EXPECT_EQ(filter.tree->size(), band.size() - kSzbBlockCap);
  for (const size_t i : {size_t{0}, kSzbBlockCap - 1}) {
    filter.block->CopyPoint(i, q);
    EXPECT_TRUE(std::equal(q.begin(), q.end(), band[i].begin())) << i;
  }

  const PointSet probes = MakePoints(Distribution::kIndependent, 400, kDim, 24);
  size_t tail_only = 0;
  for (size_t i = 0; i < probes.size(); ++i) {
    const bool by_block = filter.block->AnyDominates(probes[i]);
    const bool by_tree = filter.tree->ExistsDominatorOf(probes[i]);
    if (by_tree && !by_block) ++tail_only;
    EXPECT_EQ(by_block || by_tree, BruteDominated(band, probes[i]))
        << "probe " << i;
  }
  EXPECT_GT(tail_only, 0u);
}

TEST(SzbFilterTest, KBandIsOneCountingTree) {
  const PointSet band = MakePoints(Distribution::kIndependent, 1500, 3, 25);
  const ZOrderCodec codec(3, kBits);
  constexpr uint32_t kK = 3;
  const SzbFilter filter =
      BuildSzbFilter(&codec, band, kK, ZBTree::Options{});
  EXPECT_FALSE(filter.block.has_value());
  ASSERT_NE(filter.tree, nullptr);
  EXPECT_EQ(filter.tree->size(), band.size());
  const PointSet probes = MakePoints(Distribution::kIndependent, 200, 3, 26);
  for (size_t i = 0; i < probes.size(); ++i) {
    size_t brute = 0;
    for (size_t j = 0; j < band.size(); ++j) {
      if (Dominates(band[j], probes[i])) ++brute;
    }
    EXPECT_EQ(filter.tree->CountDominatorsOf(probes[i], kK),
              std::min<size_t>(brute, kK))
        << "probe " << i;
  }
}

}  // namespace
}  // namespace zsky
