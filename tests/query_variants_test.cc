#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "algo/oracle.h"
#include "algo/skyline.h"
#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "common/quantizer.h"
#include "common/rng.h"
#include "core/executor.h"
#include "core/query_plan.h"
#include "core/query_service.h"
#include "gen/synthetic.h"

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

// The plan the serving layer runs by default: ZDG partitions, Z-search
// locals, the prefix-probe merge.
ExecutorOptions DefaultPlanOptions() {
  ExecutorOptions options =
      BaseOptions(PartitioningScheme::kZdg, LocalAlgorithm::kZSearch);
  options.merge = MergeAlgorithm::kPrefixProbe;
  return options;
}

SkylineQueryResult RunDesc(const PointSet& points, QueryDesc desc) {
  desc.Canonicalize();
  return ParallelSkylineExecutor(DefaultPlanOptions()).Execute(points, desc);
}

// Brute force for a box query: gather the rows inside the box, take their
// skyline over `dims` (all dims when empty), and map back to row ids.
SkylineIndices BruteBoxSkyline(const PointSet& points,
                               const std::vector<Coord>& lo,
                               const std::vector<Coord>& hi,
                               const std::vector<uint32_t>& dims) {
  std::vector<uint32_t> inside;
  for (size_t i = 0; i < points.size(); ++i) {
    bool in = true;
    for (uint32_t k = 0; k < points.dim() && in; ++k) {
      in = points[i][k] >= lo[k] && points[i][k] <= hi[k];
    }
    if (in) inside.push_back(static_cast<uint32_t>(i));
  }
  const PointSet region = PointSet::Gather(points, inside);
  SkylineIndices local;
  if (dims.empty()) {
    local = NaiveSkyline(region);
  } else {
    PointSet projected(static_cast<uint32_t>(dims.size()));
    ProjectDimsInto(region, dims, {}, kMax, projected);
    local = NaiveSkyline(projected);
  }
  SkylineIndices expected;
  for (uint32_t i : local) expected.push_back(inside[i]);
  SortSkyline(expected);
  return expected;
}

// Random boxes through the pipeline agree with a gather-then-skyline
// brute force that shares no code with OracleQuery.
TEST(BoxQueryTest, MatchesBruteForce) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2000, 3, 20);
  Rng rng(21);
  for (int trial = 0; trial < 10; ++trial) {
    QueryDesc desc;
    desc.box_lo.resize(3);
    desc.box_hi.resize(3);
    for (uint32_t k = 0; k < 3; ++k) {
      const Coord a = static_cast<Coord>(rng.NextBounded(kMax + 1));
      const Coord b = static_cast<Coord>(rng.NextBounded(kMax + 1));
      desc.box_lo[k] = std::min(a, b);
      desc.box_hi[k] = std::max(a, b);
    }
    EXPECT_EQ(RunDesc(points, desc).skyline,
              BruteBoxSkyline(points, desc.box_lo, desc.box_hi, {}))
        << "trial " << trial;
  }
}

TEST(BoxQueryTest, WholeSpaceEqualsGlobalSkyline) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 1500, 4, 22);
  QueryDesc desc;
  desc.box_lo.assign(4, 0);
  desc.box_hi.assign(4, kMax);
  const SkylineQueryResult result = RunDesc(points, desc);
  EXPECT_EQ(result.skyline, SortBasedSkyline(points));
  EXPECT_EQ(result.metrics.dropped_by_box, 0u);
  EXPECT_EQ(result.metrics.regions_pruned_by_box, 0u);
}

// A one-cell box on a point no row occupies answers nothing.
TEST(BoxQueryTest, EmptyBox) {
  const PointSet points = MakePoints(Distribution::kIndependent, 500, 2, 23);
  std::vector<uint8_t> occupied(size_t{kMax + 1} * (kMax + 1), 0);
  for (size_t i = 0; i < points.size(); ++i) {
    occupied[size_t{points[i][0]} * (kMax + 1) + points[i][1]] = 1;
  }
  const size_t cell = static_cast<size_t>(
      std::find(occupied.begin(), occupied.end(), 0) - occupied.begin());
  ASSERT_LT(cell, occupied.size());
  QueryDesc desc;
  desc.box_lo = {static_cast<Coord>(cell / (kMax + 1)),
                 static_cast<Coord>(cell % (kMax + 1))};
  desc.box_hi = desc.box_lo;
  const SkylineQueryResult result = RunDesc(points, desc);
  EXPECT_TRUE(result.skyline.empty());
  EXPECT_EQ(result.metrics.candidates, 0u);
}

// Equal rows do not dominate each other: a one-cell box on a row repeated
// three times answers all three copies and nothing else.
TEST(BoxQueryTest, PointBoxKeepsEveryDuplicate) {
  PointSet points = MakePoints(Distribution::kIndependent, 800, 3, 24);
  const std::vector<Coord> row(points[100].begin(), points[100].end());
  points.Append(row);
  points.Append(row);
  QueryDesc desc;
  desc.box_lo = row;
  desc.box_hi = row;
  const SkylineIndices answer = RunDesc(points, desc).skyline;
  EXPECT_EQ(answer, BruteBoxSkyline(points, row, row, {}));
  ASSERT_GE(answer.size(), 3u);
  EXPECT_EQ(answer[answer.size() - 2], 800u);
  EXPECT_EQ(answer.back(), 801u);
  for (uint32_t id : answer) {
    EXPECT_TRUE(std::equal(row.begin(), row.end(), points[id].begin()));
  }
}

TEST(DimsQueryTest, MatchesBruteForceOnProjection) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 800, 5, 31);
  QueryDesc desc;
  desc.dims = {3, 1};
  PointSet projected(2);
  const std::vector<uint32_t> sorted_dims = {1, 3};
  ProjectDimsInto(points, sorted_dims, {}, kMax, projected);
  EXPECT_EQ(RunDesc(points, desc).skyline, NaiveSkyline(projected));
}

TEST(DimsQueryTest, FullSpaceEqualsRegularSkyline) {
  const PointSet points = MakePoints(Distribution::kIndependent, 600, 4, 32);
  QueryDesc desc;
  desc.dims = {0, 1, 2, 3};
  EXPECT_EQ(RunDesc(points, desc).skyline, SortBasedSkyline(points));
}

TEST(DimsQueryTest, SingleDimensionIsMinima) {
  PointSet points(3);
  points.Append({5, 0, 0});
  points.Append({1, 9, 9});
  points.Append({1, 8, 8});
  QueryDesc desc;
  desc.dims = {0};
  // Both minimum-value rows survive: they are equal in the 1-d subspace,
  // so neither dominates the other.
  EXPECT_EQ(RunDesc(points, desc).skyline, (SkylineIndices{1, 2}));
}

// The box is in original coordinates, so it may restrict a dimension the
// subspace skyline ignores.
TEST(DimsQueryTest, BoxOnAnUnlistedDimension) {
  const PointSet points = MakePoints(Distribution::kIndependent, 1500, 4, 34);
  QueryDesc desc;
  desc.dims = {1, 2};
  desc.box_lo = {0, 0, 0, 0};
  desc.box_hi = {kMax / 3, kMax, kMax, kMax};
  const SkylineQueryResult result = RunDesc(points, desc);
  EXPECT_EQ(result.skyline,
            BruteBoxSkyline(points, desc.box_lo, desc.box_hi, desc.dims));
  EXPECT_GT(result.metrics.dropped_by_box, 0u);
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
