#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "algo/oracle.h"
#include "algo/subspace.h"
#include "common/quantizer.h"
#include "core/executor.h"
#include "core/planner.h"
#include "core/query_plan.h"
#include "core/query_service.h"
#include "gen/synthetic.h"
#include "index/constrained.h"
#include "index/rtree.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;
constexpr Coord kMax = (1u << kBits) - 1;

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

// The variant axis of the parity matrix: one desc per query class the
// QueryDesc surface supports, over 4-dimensional data.
std::vector<std::pair<std::string, QueryDesc>> VariantAxis() {
  std::vector<std::pair<std::string, QueryDesc>> axis;
  axis.emplace_back("full", QueryDesc{});
  {
    QueryDesc desc;
    desc.box_lo = {0, 600, 0, 0};
    desc.box_hi = {2800, kMax, kMax, 3500};
    axis.emplace_back("constrained", desc);
  }
  {
    QueryDesc desc;
    desc.dims = {0, 2};
    axis.emplace_back("subspace", desc);
  }
  {
    QueryDesc desc;
    desc.dims = {1, 2, 3};
    desc.maximize = {0, 0, 1, 0};  // Dominance flipped on dim 2.
    axis.emplace_back("subspace_flipped", desc);
  }
  {
    QueryDesc desc;
    desc.k = 3;
    axis.emplace_back("skyband3", desc);
  }
  {
    QueryDesc desc;
    desc.box_lo = {0, 0, 0, 0};
    desc.box_hi = {3000, kMax, 3200, kMax};
    desc.dims = {1, 3};
    desc.maximize = {0, 1, 0, 0};
    desc.k = 2;
    axis.emplace_back("combined", desc);
  }
  for (auto& [name, desc] : axis) desc.Canonicalize();
  return axis;
}

struct VariantCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
  MergeAlgorithm merge;
};

std::string VariantCaseName(
    const ::testing::TestParamInfo<VariantCase>& info) {
  std::string name =
      std::string(PartitioningSchemeName(info.param.partitioning)) + "_" +
      std::string(LocalAlgorithmName(info.param.local)) + "_" +
      std::string(MergeAlgorithmName(info.param.merge));
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

class QueryVariantParityTest : public ::testing::TestWithParam<VariantCase> {};

// The tentpole guarantee: every (scheme x local x merge) cell of the
// pipeline matrix answers every QueryDesc variant bit-identically to the
// serial all-variant oracle — warm (shared plan) and cold (one-shot) alike.
TEST_P(QueryVariantParityTest, EveryVariantMatchesOracle) {
  const VariantCase& c = GetParam();
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 2500, 4, 20260808);
  ExecutorOptions options = BaseOptions(c.partitioning, c.local);
  options.merge = c.merge;
  const ParallelSkylineExecutor executor(options);
  const PreparedPlan plan = PreparePlan(points, options);

  for (const auto& [name, desc] : VariantAxis()) {
    const SkylineIndices oracle = OracleQuery(points, desc, kMax);
    const SkylineQueryResult warm =
        executor.ExecuteWithPlan(plan, points, desc);
    EXPECT_EQ(warm.skyline, oracle) << options.Label() << " variant=" << name;
    EXPECT_EQ(warm.metrics.skyband_k, desc.k) << name;
    const SkylineQueryResult cold = executor.Execute(points, desc);
    EXPECT_EQ(cold.skyline, oracle) << options.Label() << " variant=" << name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllSchemesLocalsAndMerges, QueryVariantParityTest,
    ::testing::ValuesIn([] {
      std::vector<VariantCase> cases;
      for (PartitioningScheme scheme :
           {PartitioningScheme::kRandom, PartitioningScheme::kGrid,
            PartitioningScheme::kAngle, PartitioningScheme::kQuadTree,
            PartitioningScheme::kNaiveZ, PartitioningScheme::kZhg,
            PartitioningScheme::kZdg}) {
        for (LocalAlgorithm local :
             {LocalAlgorithm::kSortBased, LocalAlgorithm::kZSearch,
              LocalAlgorithm::kBbs}) {
          cases.push_back({scheme, local, MergeAlgorithm::kZMerge});
        }
      }
      // The merge axis exercises every merge algorithm on the scheme the
      // paper centers on (full scheme x local coverage above runs Z-merge).
      for (MergeAlgorithm merge :
           {MergeAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
            MergeAlgorithm::kPrefixProbe}) {
        cases.push_back({PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                         merge});
      }
      return cases;
    }()),
    VariantCaseName);

// The in-place ConstrainedSkyline (R-tree window + Z-ordered scan) agrees
// with the all-variant oracle restricted to a box, so it doubles as the
// constrained oracle for the pipeline.
TEST(ConstrainedOracleTest, MatchesOracleQuery) {
  const PointSet points = MakePoints(Distribution::kIndependent, 1500, 3, 7);
  const ZOrderCodec codec(3, kBits);
  const RTree tree(points);
  QueryDesc desc;
  desc.box_lo = {300, 0, 500};
  desc.box_hi = {3600, 2900, kMax};
  const std::vector<Coord> lo = desc.box_lo;
  const std::vector<Coord> hi = desc.box_hi;
  EXPECT_EQ(ConstrainedSkyline(codec, points, tree, lo, hi),
            OracleQuery(points, desc, kMax));
}

// A <=10% selectivity box must prune whole RZ-regions in the mapper — the
// structural win over post-filtering — for both Z-order partitions and
// grid cells.
TEST(BoxPruningTest, TightBoxPrunesRegionsStructurally) {
  const PointSet points = MakePoints(Distribution::kIndependent, 4000, 4, 33);
  QueryDesc desc;
  desc.box_lo = {0, 0, 0, 0};
  desc.box_hi = {400, kMax, kMax, kMax};  // ~10% of dim 0's range.
  size_t inside = 0;
  for (size_t i = 0; i < points.size(); ++i) {
    if (desc.InBox(points[i])) ++inside;
  }
  ASSERT_LE(inside, points.size() / 8);

  for (PartitioningScheme scheme :
       {PartitioningScheme::kZdg, PartitioningScheme::kZhg,
        PartitioningScheme::kGrid}) {
    const ExecutorOptions options =
        BaseOptions(scheme, LocalAlgorithm::kZSearch);
    const SkylineQueryResult result =
        ParallelSkylineExecutor(options).Execute(points, desc);
    EXPECT_EQ(result.skyline, OracleQuery(points, desc, kMax))
        << options.Label();
    EXPECT_GT(result.metrics.regions_pruned_by_box, 0u) << options.Label();
    // Region pruning plus the per-point test account for every out-of-box
    // point that was not already rejected by the filter.
    EXPECT_GT(result.metrics.dropped_by_box, 0u) << options.Label();
  }
}

// Shape state is cached per plan: the first query with a new shape builds
// the variant (subspace_plan_rebuilds = 1), repeats hit the cache, and a
// box-only change never rebuilds anything — the warm-path invariant.
TEST(VariantCacheTest, ShapeCachedAndBoxNeverRebuilds) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2000, 4, 55);
  const ExecutorOptions options =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  const PreparedPlan plan = PreparePlan(points, options);

  QueryDesc shape;
  shape.dims = {0, 1, 3};
  shape.k = 2;
  bool built = false;
  const std::shared_ptr<const PreparedVariant> first =
      plan.Variant(shape, &built);
  EXPECT_TRUE(built);
  const std::shared_ptr<const PreparedVariant> second =
      plan.Variant(shape, &built);
  EXPECT_FALSE(built);
  EXPECT_EQ(first.get(), second.get());

  // The identity shape was pre-seeded at PreparePlan time.
  const std::shared_ptr<const PreparedVariant> identity =
      plan.Variant(QueryDesc{}, &built);
  EXPECT_FALSE(built);
  EXPECT_TRUE(identity->identity);

  // Box-only variations of one shape share the cached variant: the box is
  // per-query state by construction.
  QueryDesc boxed = shape;
  boxed.box_lo = {0, 0, 0, 0};
  boxed.box_hi = {2000, kMax, kMax, kMax};
  EXPECT_EQ(plan.Variant(boxed, &built).get(), first.get());
  EXPECT_FALSE(built);

  const ParallelSkylineExecutor executor(options);
  const SkylineQueryResult warm = executor.ExecuteWithPlan(plan, points, boxed);
  EXPECT_TRUE(warm.metrics.plan_reused);
  EXPECT_EQ(warm.metrics.subspace_plan_rebuilds, 0u);
  EXPECT_EQ(warm.skyline, OracleQuery(points, boxed, kMax));
}

// End-to-end through the service: a box-only desc change takes the warm
// path (plan_reused stays true, no variant rebuild), and the variant
// metrics flow through QueryRequest.
TEST(QueryServiceVariantTest, BoxOnlyChangeKeepsWarmPath) {
  const PointSet points = MakePoints(Distribution::kAnticorrelated, 2500, 4, 9);
  QueryServiceOptions service_options;
  service_options.executor =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  QueryService service(service_options, points);

  QueryRequest request;
  request.desc.dims = {0, 1, 2};
  const SkylineQueryResult cold = service.Query(request);
  EXPECT_FALSE(cold.metrics.plan_reused);
  EXPECT_EQ(cold.metrics.subspace_plan_rebuilds, 1u);
  EXPECT_EQ(cold.skyline, OracleQuery(points, request.desc, kMax));

  QueryRequest boxed = request;
  boxed.desc.box_lo = {0, 0, 0, 0};
  boxed.desc.box_hi = {2500, 2500, kMax, kMax};
  const SkylineQueryResult warm = service.Query(boxed);
  EXPECT_TRUE(warm.metrics.plan_reused);
  EXPECT_EQ(warm.metrics.subspace_plan_rebuilds, 0u);
  EXPECT_EQ(warm.skyline, OracleQuery(points, boxed.desc, kMax));

  QueryRequest skyband;
  skyband.desc.k = 4;
  const SkylineQueryResult banded = service.Query(skyband);
  EXPECT_TRUE(banded.metrics.plan_reused);
  EXPECT_EQ(banded.metrics.subspace_plan_rebuilds, 1u);
  EXPECT_EQ(banded.metrics.skyband_k, 4u);
  EXPECT_EQ(banded.skyline, OracleQuery(points, skyband.desc, kMax));
}

// Desc-aware pricing: a tight box shrinks the predicted shuffle and
// candidate volumes relative to the full-space estimate.
TEST(EstimatePlanCostDescTest, BoxSelectivityShrinksEstimate) {
  const PointSet points = MakePoints(Distribution::kIndependent, 4000, 4, 77);
  const ExecutorOptions options =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  const PreparedPlan plan = PreparePlan(points, options);

  const PlanCostEstimate base = EstimatePlanCost(plan, points.size());
  QueryDesc desc;
  desc.box_lo = {0, 0, 0, 0};
  desc.box_hi = {400, kMax, kMax, kMax};
  const PlanCostEstimate boxed =
      EstimatePlanCost(plan, points.size(), desc);
  EXPECT_LT(boxed.expected_shuffle_records, base.expected_shuffle_records);
  EXPECT_LE(boxed.expected_candidates, boxed.expected_shuffle_records);

  // A default desc is priced identically to the base overload.
  const PlanCostEstimate same =
      EstimatePlanCost(plan, points.size(), QueryDesc{});
  EXPECT_EQ(same.expected_shuffle_records, base.expected_shuffle_records);
  EXPECT_EQ(same.expected_candidates, base.expected_candidates);
}

// ProjectDimsInto is allocation-free for callers holding scratch and
// agrees with the per-row transform.
TEST(ProjectDimsIntoTest, ReusesScratchAndFlips) {
  const PointSet points = MakePoints(Distribution::kIndependent, 200, 4, 3);
  const std::vector<uint32_t> dims = {3, 1};
  const std::vector<uint8_t> flip = {0, 1};
  PointSet scratch(2);
  ProjectDimsInto(points, dims, flip, kMax, scratch);
  ASSERT_EQ(scratch.size(), points.size());
  for (size_t i = 0; i < points.size(); ++i) {
    EXPECT_EQ(scratch[i][0], points[i][3]);
    EXPECT_EQ(scratch[i][1], kMax - points[i][1]);
  }
  const Coord* before = scratch.raw().data();
  ProjectDimsInto(points, dims, flip, kMax, scratch);
  EXPECT_EQ(scratch.raw().data(), before);  // Capacity reused, no realloc.
}

}  // namespace
}  // namespace zsky
