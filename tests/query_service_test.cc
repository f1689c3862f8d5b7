#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "algo/bnl.h"
#include "algo/oracle.h"
#include "common/dominance.h"
#include "common/quantizer.h"
#include "common/trace.h"
#include "core/query_service.h"
#include "gen/synthetic.h"
#include "io/columnar.h"

namespace zsky {
namespace {

constexpr uint32_t kBits = 12;

PointSet MakePoints(Distribution d, size_t n, uint32_t dim, uint64_t seed) {
  return GenerateQuantized(d, n, dim, seed, Quantizer(kBits));
}

QueryServiceOptions MakeServiceOptions() {
  QueryServiceOptions options;
  options.executor.partitioning = PartitioningScheme::kZdg;
  options.executor.local = LocalAlgorithm::kZSearch;
  options.executor.merge = MergeAlgorithm::kZMerge;
  options.executor.num_groups = 6;
  options.executor.expansion = 3;
  options.executor.sample_ratio = 0.05;
  options.executor.bits = kBits;
  options.executor.num_map_tasks = 7;
  options.executor.num_threads = 4;
  return options;
}

TEST(QueryServiceTest, WarmQueryMatchesColdAndOracle) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 3000, 4, 101);
  QueryService service(MakeServiceOptions(), points);

  const SkylineQueryResult cold = service.Query();
  EXPECT_FALSE(cold.metrics.plan_reused);
  EXPECT_GT(cold.metrics.preprocess_ms, 0.0);
  EXPECT_EQ(cold.skyline, BnlSkyline(points));

  const SkylineQueryResult warm = service.Query();
  EXPECT_TRUE(warm.metrics.plan_reused);
  EXPECT_EQ(warm.metrics.preprocess_ms, 0.0);
  EXPECT_EQ(warm.skyline, cold.skyline);

  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 2u);
  EXPECT_EQ(stats.plan_builds, 1u);
  EXPECT_GT(stats.plan_build_ms_total, 0.0);
}

TEST(QueryServiceTest, PipelineOverridesReuseThePlan) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2500, 5, 23);
  QueryService service(MakeServiceOptions(), points);
  const SkylineIndices oracle = BnlSkyline(points);

  EXPECT_EQ(service.Query().skyline, oracle);
  for (MergeAlgorithm merge :
       {MergeAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
        MergeAlgorithm::kZMerge, MergeAlgorithm::kPrefixProbe}) {
    QueryRequest request;
    request.merge = merge;
    const SkylineQueryResult result = service.Query(request);
    EXPECT_EQ(result.skyline, oracle);
    EXPECT_TRUE(result.metrics.plan_reused);
  }
  // Every merge variant ran against the one cached plan.
  EXPECT_EQ(service.stats().plan_builds, 1u);
}

TEST(QueryServiceTest, DatasetSwapInvalidatesThePlan) {
  const PointSet first = MakePoints(Distribution::kIndependent, 2000, 4, 5);
  const PointSet second =
      MakePoints(Distribution::kAnticorrelated, 2400, 4, 6);
  QueryService service(MakeServiceOptions(), first);

  EXPECT_EQ(service.Query().skyline, BnlSkyline(first));
  service.SetDataset(second);
  const SkylineQueryResult after = service.Query();
  EXPECT_FALSE(after.metrics.plan_reused);  // Rebuilt for the new dataset.
  EXPECT_EQ(after.skyline, BnlSkyline(second));
  EXPECT_EQ(service.stats().plan_builds, 2u);
  EXPECT_TRUE(service.Query().metrics.plan_reused);
}

TEST(QueryServiceTest, EmptyDatasetYieldsEmptySkyline) {
  QueryService service(MakeServiceOptions(), PointSet(4));
  const SkylineQueryResult result = service.Query();
  EXPECT_TRUE(result.skyline.empty());
  EXPECT_EQ(service.stats().plan_builds, 1u);
}

// Tier-1 concurrency stress (runs under scripts/check.sh tsan): 8 client
// threads issue mixed queries against one shared plan while a dataset swap
// (to identical points, so the oracle is constant) exercises invalidation
// mid-flight. Every result must equal the oracle.
TEST(QueryServiceTest, ConcurrentStressProducesIdenticalSkylines) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 2000, 4, 303);
  const SkylineIndices oracle = BnlSkyline(points);
  QueryServiceOptions options = MakeServiceOptions();
  options.executor.num_threads = 2;
  options.max_in_flight = 4;
  QueryService service(options, points);

  constexpr int kThreads = 8;
  constexpr int kQueriesPerThread = 4;
  const MergeAlgorithm merges[] = {
      MergeAlgorithm::kZMerge, MergeAlgorithm::kSortBased,
      MergeAlgorithm::kZSearch, MergeAlgorithm::kPrefixProbe};
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      for (int q = 0; q < kQueriesPerThread; ++q) {
        if (t == 0 && q == 1) {
          // Mid-stress plan invalidation; same points keep the oracle valid.
          service.SetDataset(points);
        }
        QueryRequest request;
        request.merge = merges[(t + q) % 4];
        if (service.Query(request).skyline != oracle) {
          mismatches.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, static_cast<size_t>(kThreads * kQueriesPerThread));
  EXPECT_GE(stats.plan_builds, 1u);
  EXPECT_LE(stats.peak_in_flight, 4u);
}

TEST(QueryServiceTest, AdmissionIsBounded) {
  const PointSet points = MakePoints(Distribution::kIndependent, 3000, 5, 77);
  QueryServiceOptions options = MakeServiceOptions();
  options.executor.num_threads = 2;
  options.max_in_flight = 2;
  QueryService service(options, points);
  const SkylineIndices oracle = BnlSkyline(points);

  constexpr int kThreads = 6;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      if (service.Query().skyline != oracle) mismatches.fetch_add(1);
    });
  }
  for (std::thread& thread : threads) thread.join();

  EXPECT_EQ(mismatches.load(), 0);
  EXPECT_LE(service.stats().peak_in_flight, 2u);
}

// --- Plans come from the caller's options ----------------------------------

struct PlanOptionsCase {
  PartitioningScheme partitioning;
  LocalAlgorithm local;
  MergeAlgorithm merge;
  uint32_t num_groups;
};

std::string PlanOptionsCaseName(
    const ::testing::TestParamInfo<PlanOptionsCase>& info) {
  std::string name =
      std::string(PartitioningSchemeName(info.param.partitioning)) + "_" +
      std::string(LocalAlgorithmName(info.param.local)) + "_" +
      std::string(MergeAlgorithmName(info.param.merge)) + "_g" +
      std::to_string(info.param.num_groups);
  for (char& ch : name) {
    if (ch == '-') ch = '_';
  }
  return name;
}

// The plan-shape and job-1 metrics of a query, which depend only on the
// options its plan was built from, the rows and the desc.
void ExpectSamePlanShape(const PhaseMetrics& served,
                         const PhaseMetrics& direct,
                         const std::string& label) {
  EXPECT_EQ(served.sample_size, direct.sample_size) << label;
  EXPECT_EQ(served.sample_skyline_size, direct.sample_skyline_size) << label;
  EXPECT_EQ(served.num_partitions, direct.num_partitions) << label;
  EXPECT_EQ(served.pruned_partitions, direct.pruned_partitions) << label;
  EXPECT_EQ(served.num_groups, direct.num_groups) << label;
  EXPECT_EQ(served.filtered_by_szb, direct.filtered_by_szb) << label;
  EXPECT_EQ(served.candidates, direct.candidates) << label;
}

class QueryServicePlanOptionsTest
    : public ::testing::TestWithParam<PlanOptionsCase> {};

// The service builds its plan from the caller's ExecutorOptions and from
// nothing else: its first query samples, partitions, groups, filters and
// answers exactly as a one-shot executor run with the same options.
TEST_P(QueryServicePlanOptionsTest, PlanFollowsCallerOptions) {
  const PlanOptionsCase& c = GetParam();
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 3000, 4, 404);
  QueryServiceOptions options = MakeServiceOptions();
  options.executor.partitioning = c.partitioning;
  options.executor.local = c.local;
  options.executor.merge = c.merge;
  options.executor.num_groups = c.num_groups;
  QueryService service(options, points);
  const std::string label = options.executor.Label();

  const SkylineQueryResult served = service.Query();
  const SkylineQueryResult direct =
      ParallelSkylineExecutor(options.executor).Execute(points);
  EXPECT_EQ(served.skyline, BnlSkyline(points)) << label;
  EXPECT_EQ(served.skyline, direct.skyline) << label;
  ExpectSamePlanShape(served.metrics, direct.metrics, label);
  EXPECT_EQ(service.options().executor.partitioning, c.partitioning);
  EXPECT_EQ(service.options().executor.local, c.local);
  EXPECT_EQ(service.options().executor.merge, c.merge);
  EXPECT_EQ(service.options().executor.num_groups, c.num_groups);

  // Warm queries keep running the same plan.
  const SkylineQueryResult warm = service.Query();
  EXPECT_TRUE(warm.metrics.plan_reused);
  EXPECT_EQ(warm.skyline, direct.skyline) << label;
  ExpectSamePlanShape(warm.metrics, direct.metrics, label);
  EXPECT_EQ(service.stats().plan_builds, 1u);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesLocalsAndMerges, QueryServicePlanOptionsTest,
    ::testing::Values(
        PlanOptionsCase{PartitioningScheme::kRandom, LocalAlgorithm::kZSearch,
                        MergeAlgorithm::kZMerge, 4},
        PlanOptionsCase{PartitioningScheme::kGrid, LocalAlgorithm::kSortBased,
                        MergeAlgorithm::kSortBased, 5},
        PlanOptionsCase{PartitioningScheme::kAngle, LocalAlgorithm::kBbs,
                        MergeAlgorithm::kPrefixProbe, 3},
        PlanOptionsCase{PartitioningScheme::kQuadTree,
                        LocalAlgorithm::kZSearch, MergeAlgorithm::kZSearch,
                        7},
        PlanOptionsCase{PartitioningScheme::kNaiveZ,
                        LocalAlgorithm::kSortBased, MergeAlgorithm::kZMerge,
                        6},
        PlanOptionsCase{PartitioningScheme::kZhg, LocalAlgorithm::kZSearch,
                        MergeAlgorithm::kPrefixProbe, 9},
        PlanOptionsCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                        MergeAlgorithm::kPrefixProbe, 8},
        PlanOptionsCase{PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                        MergeAlgorithm::kZMerge, 16},
        PlanOptionsCase{PartitioningScheme::kZdg, LocalAlgorithm::kBbs,
                        MergeAlgorithm::kSortBased, 2},
        PlanOptionsCase{PartitioningScheme::kZdg,
                        LocalAlgorithm::kSortBased, MergeAlgorithm::kZSearch,
                        12}),
    PlanOptionsCaseName);

// A merge folds the delta into a new base and builds that base's plan from
// the caller's options too: a pipeline query after it (a whole-space box,
// since the default desc is answered from the merged band) matches a
// one-shot executor run over the merged rows.
TEST(QueryServiceTest, MergeRebuildsThePlanFromCallerOptions) {
  const PointSet base = MakePoints(Distribution::kIndependent, 2000, 4, 505);
  const PointSet added = MakePoints(Distribution::kAnticorrelated, 600, 4, 506);
  QueryServiceOptions options = MakeServiceOptions();
  options.executor.partitioning = PartitioningScheme::kZhg;
  options.executor.num_groups = 5;
  options.delta_merge_threshold = 0;
  QueryService service(options, base);
  EXPECT_EQ(service.Query().skyline, BnlSkyline(base));

  ASSERT_TRUE(service.Insert(added).ok);
  ASSERT_TRUE(service.Merge());
  PointSet merged = base;
  for (size_t i = 0; i < added.size(); ++i) merged.Append(added[i]);

  QueryRequest request;
  request.desc.box_lo.assign(4, 0);
  request.desc.box_hi.assign(4, (Coord{1} << kBits) - 1);
  const SkylineQueryResult served = service.Query(request);
  const SkylineQueryResult direct =
      ParallelSkylineExecutor(options.executor).Execute(merged, request.desc);
  EXPECT_TRUE(served.metrics.plan_reused);  // Built by the merge.
  EXPECT_EQ(served.skyline, BnlSkyline(merged));
  EXPECT_EQ(served.skyline, direct.skyline);
  ExpectSamePlanShape(served.metrics, direct.metrics,
                      options.executor.Label());
  EXPECT_EQ(service.stats().merges, 1u);
  EXPECT_EQ(service.stats().plan_builds, 2u);
}

// --- Write-path unit tests (docs/updates.md) ------------------------------

// A batch of provably dominated inserts is absorbed by the plan's
// sample-skyline filter: every row lands in the delta buffer as a dead
// candidate, and no plan state — builds, patches, repairs — moves at all.
TEST(QueryServiceUpdatesTest, DominatedInsertFastPathTouchesNoPlanState) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 3000, 4, 7);
  QueryServiceOptions options = MakeServiceOptions();
  options.delta_merge_threshold = 0;
  QueryService service(options, PointSet(points));
  SkylineIndices before_sky = service.Query().skyline;
  std::sort(before_sky.begin(), before_sky.end());
  const QueryService::Stats before = service.stats();

  constexpr Coord kMax = (1u << kBits) - 1;
  PointSet batch(4);
  for (int i = 0; i < 10; ++i) {
    batch.Append(std::vector<Coord>(4, kMax));  // The max corner: dominated
                                                // by every non-corner row.
  }
  const MutationResult mr = service.Insert(batch);
  ASSERT_TRUE(mr.ok) << mr.error;
  EXPECT_EQ(mr.applied, batch.size());
  EXPECT_EQ(mr.fast_path, batch.size());

  const QueryService::Stats after = service.stats();
  EXPECT_EQ(after.plan_builds, before.plan_builds);
  EXPECT_EQ(after.plan_patches, before.plan_patches);
  EXPECT_EQ(after.repairs, before.repairs);
  EXPECT_EQ(after.fast_path_inserts, before.fast_path_inserts + batch.size());

  // The rows are buffered (visible in row accounting) but can never
  // surface in a skyline.
  const DeltaStats ds = service.delta_stats();
  EXPECT_TRUE(ds.active);
  EXPECT_EQ(ds.delta_rows, batch.size());
  EXPECT_EQ(ds.alive_rows, points.size() + batch.size());
  SkylineIndices after_sky = service.Query().skyline;
  std::sort(after_sky.begin(), after_sky.end());
  EXPECT_EQ(after_sky, before_sky);
}

// Inserts are accepted on top of an mmap'd base (heap delta over the file),
// reads stay bit-identical to a heap twin, and Merge() streams a new .zsc
// next to the original, owned by the snapshot and unlinked when the last
// reference drops.
TEST(QueryServiceUpdatesTest, MmapBaseAcceptsInsertsAndMergeStreamsNewFile) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 2000, 4, 19);
  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_updates_base.zsc";
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(path, points, kBits, &error)) << error;

  QueryServiceOptions options = MakeServiceOptions();
  options.delta_merge_threshold = 0;
  QueryService mmap_service(options);
  ASSERT_TRUE(mmap_service.SetDatasetFile(path, &error)) << error;
  QueryService heap_service(options, PointSet(points));

  constexpr Coord kMax = (1u << kBits) - 1;
  PointSet batch(4);
  batch.Append(std::vector<Coord>{1, 2, 1, 2});  // Skyline-changing.
  batch.Append(std::vector<Coord>(4, kMax));     // Dominated.
  for (QueryService* s : {&mmap_service, &heap_service}) {
    const MutationResult mr = s->Insert(batch);
    ASSERT_TRUE(mr.ok) << mr.error;
    ASSERT_EQ(mr.applied, batch.size());
  }
  const std::vector<uint32_t> doomed{3, 4, 5};
  for (QueryService* s : {&mmap_service, &heap_service}) {
    ASSERT_EQ(s->Delete(doomed).applied, doomed.size());
  }
  auto sorted_query = [](QueryService& s) {
    SkylineIndices ids = s.Query().skyline;
    std::sort(ids.begin(), ids.end());
    return ids;
  };
  EXPECT_EQ(sorted_query(mmap_service), sorted_query(heap_service));

  // Merge streams the compacted dataset to <base>.merge-0 and serves it.
  ASSERT_TRUE(mmap_service.Merge());
  ASSERT_TRUE(heap_service.Merge());
  const std::string merged_path = path + ".merge-0";
  EXPECT_TRUE(std::ifstream(merged_path).good());
  EXPECT_EQ(sorted_query(mmap_service), sorted_query(heap_service));
  EXPECT_FALSE(mmap_service.delta_stats().active);

  // Swapping the dataset drops the last reference to the merged snapshot;
  // the owned file goes with it (epoch-based file reclamation).
  mmap_service.SetDataset(MakePoints(Distribution::kIndependent, 64, 4, 3));
  (void)mmap_service.Query();
  EXPECT_FALSE(std::ifstream(merged_path).good());
  std::remove(path.c_str());
}

// Invalid mutations are contained: a dim-mismatched or out-of-domain insert
// fails whole (ok=false, published state untouched) and bad delete ids are
// counted per-row in `rejected` while the rest of the batch applies.
TEST(QueryServiceUpdatesTest, RejectsBadInsertsAndCountsBadDeleteIds) {
  {
    QueryService fresh{MakeServiceOptions()};
    EXPECT_FALSE(fresh.Insert(PointSet(3)).ok);  // Before any dataset.
    EXPECT_FALSE(fresh.Delete(std::vector<uint32_t>{0}).ok);
  }

  const PointSet points = MakePoints(Distribution::kIndependent, 500, 3, 23);
  QueryServiceOptions options = MakeServiceOptions();
  options.delta_merge_threshold = 0;
  QueryService service(options, PointSet(points));
  SkylineIndices before_sky = service.Query().skyline;
  std::sort(before_sky.begin(), before_sky.end());

  // Dim mismatch: rejected wholesale, nothing published.
  PointSet wrong_dim(4);
  wrong_dim.Append(std::vector<Coord>{1, 2, 3, 4});
  const MutationResult bad_dim = service.Insert(wrong_dim);
  EXPECT_FALSE(bad_dim.ok);
  EXPECT_EQ(bad_dim.applied, 0u);
  EXPECT_FALSE(service.delta_stats().active);

  // Out-of-domain coordinate (beyond the plan codec's max): same contract.
  PointSet too_big(3);
  too_big.Append(std::vector<Coord>{1, 2, (1u << kBits)});
  EXPECT_FALSE(service.Insert(too_big).ok);
  EXPECT_FALSE(service.delta_stats().active);

  // All-invalid delete batch: ok, zero applied, nothing published.
  const MutationResult noop =
      service.Delete(std::vector<uint32_t>{100000, 100001});
  EXPECT_TRUE(noop.ok);
  EXPECT_EQ(noop.applied, 0u);
  EXPECT_EQ(noop.rejected, 2u);
  EXPECT_FALSE(service.delta_stats().active);

  // Mixed batch: the valid id dies once; its duplicate and the stragglers
  // are counted, not fatal.
  const MutationResult mixed =
      service.Delete(std::vector<uint32_t>{5, 5, 100000});
  EXPECT_TRUE(mixed.ok);
  EXPECT_EQ(mixed.applied, 1u);
  EXPECT_EQ(mixed.rejected, 2u);
  EXPECT_TRUE(service.delta_stats().active);
  EXPECT_EQ(service.delta_stats().base_dead, 1u);

  // The untouched-state claim above is behavioral, not just counters.
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.inserts, 0u);
  EXPECT_EQ(stats.deletes, 1u);
}

// --- Delete-repair exactness ----------------------------------------------

// The same mutation script on a heap service and on a `.zsc` twin opened
// under a shuffle budget (bounded residency: the repair reads single rows
// of the mapping, merges stream a new file). After every step both answer
// the default desc and a box desc exactly like the oracle over the
// mirrored alive rows, and bit-identically to each other, both report the
// mirror's overlay counts, and both hold the same witnesses, each valid
// by brute force. `merge_threshold` 0 never auto-merges.
class RepairTwins {
 public:
  RepairTwins(const PointSet& base, const std::string& tag, QueryDesc box,
              size_t merge_threshold = 0)
      : points_(base),
        alive_(base.size(), 1),
        base_rows_(base.size()),
        box_(std::move(box)) {
    QueryServiceOptions options = MakeServiceOptions();
    options.delta_merge_threshold = merge_threshold;
    options.executor.shuffle_memory_budget_bytes = 64 * 1024;
    path_ = ::testing::TempDir() + "/" + std::to_string(::getpid()) +
            "_repair_" + tag + ".zsc";
    std::string error;
    EXPECT_TRUE(WriteColumnarFile(path_, base, kBits, &error)) << error;
    heap_ = std::make_unique<QueryService>(options, PointSet(base));
    mmap_ = std::make_unique<QueryService>(options);
    EXPECT_TRUE(mmap_->SetDatasetFile(path_, &error)) << error;
  }
  ~RepairTwins() {
    mmap_.reset();
    std::remove(path_.c_str());
  }
  RepairTwins(const RepairTwins&) = delete;
  RepairTwins& operator=(const RepairTwins&) = delete;

  // Inserts a batch; returns whether it auto-merged (on both twins).
  bool Insert(const PointSet& batch) {
    std::vector<bool> merged;
    for (QueryService* s : {heap_.get(), mmap_.get()}) {
      const MutationResult mr = s->Insert(batch);
      EXPECT_TRUE(mr.ok) << mr.error;
      EXPECT_EQ(mr.applied, batch.size());
      merged.push_back(mr.merged);
    }
    EXPECT_EQ(merged[0], merged[1]);
    for (size_t i = 0; i < batch.size(); ++i) {
      points_.Append(batch[i]);
      alive_.push_back(1);
    }
    if (merged[0]) Compact();
    return merged[0];
  }

  // The heap twin's witness of logical row `id` (kNoWitness if none).
  uint32_t WitnessOf(uint32_t id) { return heap_->base_witnesses().at(id); }

  // Deletes live ids; returns how many band repairs the batch ran (the
  // same on both twins).
  size_t Delete(const std::vector<uint32_t>& ids) {
    const size_t before = heap_->stats().repairs;
    EXPECT_EQ(mmap_->stats().repairs, before);
    std::vector<bool> merged;
    for (QueryService* s : {heap_.get(), mmap_.get()}) {
      const MutationResult mr = s->Delete(ids);
      EXPECT_EQ(mr.applied, ids.size());
      merged.push_back(mr.merged);
    }
    EXPECT_EQ(merged[0], merged[1]);
    for (uint32_t id : ids) alive_[id] = 0;
    if (merged[0]) Compact();
    const size_t repairs = heap_->stats().repairs - before;
    EXPECT_EQ(mmap_->stats().repairs - before, repairs);
    return repairs;
  }

  DeltaStats delta_stats() const { return heap_->delta_stats(); }
  QueryService& heap() { return *heap_; }

  // Checks both twins against the oracle for `desc`; returns the heap
  // twin's answer (ascending logical ids).
  SkylineIndices CheckDesc(const QueryDesc& desc) {
    QueryRequest request;
    request.desc = desc;
    SkylineIndices heap = heap_->Query(request).skyline;
    SkylineIndices mmap = mmap_->Query(request).skyline;
    std::sort(heap.begin(), heap.end());
    std::sort(mmap.begin(), mmap.end());
    EXPECT_EQ(heap, Expected(desc)) << desc.ShapeKey();
    EXPECT_EQ(mmap, heap) << desc.ShapeKey();
    return heap;
  }

  // Checks both twins against the oracle for both descs, and their
  // overlay counts and witnesses by brute force; returns the default
  // skyline (ascending logical ids).
  SkylineIndices Check() {
    const SkylineIndices sky = CheckDesc(QueryDesc{});
    CheckDesc(box_);
    const DeltaStats want = ExpectedCounts();
    for (QueryService* s : {heap_.get(), mmap_.get()}) {
      const DeltaStats got = s->delta_stats();
      EXPECT_EQ(got.band_covered, want.band_covered);
      EXPECT_EQ(got.delta_candidates, want.delta_candidates);
    }
    const std::vector<uint32_t> witnesses = heap_->base_witnesses();
    EXPECT_EQ(mmap_->base_witnesses(), witnesses);
    if (!witnesses.empty()) CheckWitnesses(witnesses);
    return sky;
  }

 private:
  // A merge's id compaction: alive rows in order, all of them the base.
  void Compact() {
    PointSet next(points_.dim());
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i] != 0) next.Append(points_[i]);
    }
    points_ = std::move(next);
    alive_.assign(points_.size(), 1);
    base_rows_ = points_.size();
  }

  // Every alive non-band base row's witness is alive, in the alive base's
  // skyline, and strictly dominates it.
  void CheckWitnesses(const std::vector<uint32_t>& witnesses) const {
    ASSERT_EQ(witnesses.size(), base_rows_);
    PointSet base(points_.dim());
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < base_rows_; ++i) {
      if (alive_[i] == 0) continue;
      base.Append(points_[i]);
      ids.push_back(static_cast<uint32_t>(i));
    }
    std::vector<uint8_t> in_band(base_rows_, 0);
    for (uint32_t b : BnlSkyline(base)) in_band[ids[b]] = 1;
    for (size_t r = 0; r < base_rows_; ++r) {
      if (alive_[r] == 0 || in_band[r] != 0) continue;
      const uint32_t w = witnesses[r];
      ASSERT_NE(w, kNoWitness) << "row " << r;
      ASSERT_LT(w, base_rows_) << "row " << r;
      EXPECT_TRUE(alive_[w] != 0 && in_band[w] != 0 &&
                  Dominates(points_[w], points_[r]))
          << "row " << r << " witness " << w;
    }
  }

  // The overlay's counts by brute force: the alive delta rows no alive
  // row dominates, and the alive base skyline's members they dominate.
  DeltaStats ExpectedCounts() const {
    PointSet base(points_.dim());
    for (size_t i = 0; i < base_rows_; ++i) {
      if (alive_[i] != 0) base.Append(points_[i]);
    }
    std::vector<size_t> candidates;
    for (size_t i = base_rows_; i < points_.size(); ++i) {
      bool dominated = alive_[i] == 0;
      for (size_t j = 0; j < points_.size() && !dominated; ++j) {
        dominated = alive_[j] != 0 && Dominates(points_[j], points_[i]);
      }
      if (!dominated) candidates.push_back(i);
    }
    DeltaStats out;
    out.delta_candidates = candidates.size();
    for (uint32_t b : BnlSkyline(base)) {
      out.band_covered += std::any_of(
          candidates.begin(), candidates.end(),
          [&](size_t c) { return Dominates(points_[c], base[b]); });
    }
    return out;
  }

  SkylineIndices Expected(const QueryDesc& desc) const {
    PointSet alive(points_.dim());
    std::vector<uint32_t> ids;
    for (size_t i = 0; i < points_.size(); ++i) {
      if (alive_[i] == 0) continue;
      alive.Append(points_[i]);
      ids.push_back(static_cast<uint32_t>(i));
    }
    SkylineIndices out;
    for (uint32_t i : OracleQuery(alive, desc, (1u << kBits) - 1)) {
      out.push_back(ids[i]);
    }
    return out;
  }

  PointSet points_;
  std::vector<uint8_t> alive_;
  size_t base_rows_;
  QueryDesc box_;
  std::string path_;
  std::unique_ptr<QueryService> heap_;
  std::unique_ptr<QueryService> mmap_;
};

// Crafted 3-d rows (ids 0..n-1, every x below 100) followed by 300
// anti-correlated fillers squeezed into [200, 4095]^3. No filler can
// dominate a crafted row, but crafted rows dominate many fillers, so a
// deleted member's region holds fillers that must resurface exactly when
// no survivor dominates them.
PointSet RepairBase(const std::vector<std::vector<Coord>>& crafted) {
  PointSet base(3);
  for (const std::vector<Coord>& p : crafted) base.Append(p);
  const PointSet fill = MakePoints(Distribution::kAnticorrelated, 300, 3, 5);
  for (size_t i = 0; i < fill.size(); ++i) {
    std::vector<Coord> p(3);
    for (uint32_t d = 0; d < 3; ++d) p[d] = 200 + fill[i][d] * 3895 / 4095;
    base.Append(p);
  }
  return base;
}

// Rows with x <= 70: every crafted row plus none of the fillers.
QueryDesc LowXBox() {
  QueryDesc box;
  box.box_lo = {0, 0, 0};
  box.box_hi = {70, 4095, 4095};
  return box;
}

bool Contains(const SkylineIndices& sky, uint32_t id) {
  return std::binary_search(sky.begin(), sky.end(), id);
}

// (a) One batch kills two band members whose regions overlap: X lies in
// both regions, Y in A's only, Z behind X, V behind the survivor C.
TEST(QueryServiceUpdatesTest, RepairTwoMembersWithOverlappingRegions) {
  enum : uint32_t { kA, kB, kC, kX, kY, kZ, kV };
  RepairTwins twins(RepairBase({{10, 50, 90},    // A
                                {50, 10, 90},    // B
                                {5, 95, 92},     // C
                                {60, 60, 95},    // X: A and B only
                                {20, 70, 95},    // Y: A only
                                {70, 70, 99},    // Z: A, B and X
                                {30, 96, 93}}),  // V: A and C
                    "overlap", LowXBox());
  const SkylineIndices before = twins.Check();
  for (uint32_t id : {kA, kB, kC}) EXPECT_TRUE(Contains(before, id)) << id;
  for (uint32_t id : {kX, kY, kZ, kV}) EXPECT_FALSE(Contains(before, id)) << id;

  EXPECT_EQ(twins.Delete({kA, kB}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, kC));
  EXPECT_TRUE(Contains(after, kX));
  EXPECT_TRUE(Contains(after, kY));
  EXPECT_FALSE(Contains(after, kZ));
  EXPECT_FALSE(Contains(after, kV));
}

// (b) A chain D < S < R where D is S's only band dominator: deleting D
// surfaces S, and S keeps R out.
TEST(QueryServiceUpdatesTest, RepairChainSurfacesOnlyTheHead) {
  enum : uint32_t { kD, kS, kR, kE };
  RepairTwins twins(RepairBase({{10, 10, 3000},  // D
                                {20, 20, 3010},  // S: D only
                                {30, 30, 3020},  // R: D and S
                                {5, 3000, 5}}),  // E: an unrelated member
                    "chain", LowXBox());
  const SkylineIndices before = twins.Check();
  EXPECT_TRUE(Contains(before, kD));
  EXPECT_FALSE(Contains(before, kS));

  EXPECT_EQ(twins.Delete({kD}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, kS));
  EXPECT_FALSE(Contains(after, kR));
  EXPECT_TRUE(Contains(after, kE));
}

// (c) Two band rows with equal coordinates: deleting one keeps the other,
// which still dominates the whole region, so nothing surfaces.
TEST(QueryServiceUpdatesTest, RepairEqualTwinKeepsTheRegionCovered) {
  enum : uint32_t { kP1, kP2, kQ };
  RepairTwins twins(RepairBase({{15, 60, 60},    // P1
                                {15, 60, 60},    // P2 == P1
                                {20, 70, 70}}),  // Q: P1 and P2
                    "equal", LowXBox());
  SkylineIndices before = twins.Check();
  ASSERT_TRUE(Contains(before, kP1));
  EXPECT_TRUE(Contains(before, kP2));

  EXPECT_EQ(twins.Delete({kP1}), 1u);
  before.erase(std::find(before.begin(), before.end(), kP1));
  EXPECT_EQ(twins.Check(), before);
}

// (d) Delta rows whose only dominator dies become candidates: I1 behind
// the delta row I2, I3 behind the base band member M.
TEST(QueryServiceUpdatesTest, RepairResurfacesDeltaRowsBehindDeadDominators) {
  enum : uint32_t { kM, kE };
  RepairTwins twins(RepairBase({{8, 3000, 8},    // M
                                {3000, 5, 5}}),  // E: an unrelated member
                    "delta", LowXBox());
  const uint32_t base_rows = 2 + 300;
  const uint32_t i2 = base_rows;
  const uint32_t i1 = base_rows + 1;
  const uint32_t i3 = base_rows + 2;
  PointSet batch(3);
  batch.Append(std::vector<Coord>{12, 12, 2000});  // I2
  batch.Append(std::vector<Coord>{13, 13, 2001});  // I1: I2 only
  batch.Append(std::vector<Coord>{9, 3001, 9});    // I3: M only
  twins.Insert(batch);
  const SkylineIndices before = twins.Check();
  EXPECT_TRUE(Contains(before, kM));
  EXPECT_TRUE(Contains(before, i2));
  EXPECT_FALSE(Contains(before, i1));
  EXPECT_FALSE(Contains(before, i3));

  EXPECT_EQ(twins.Delete({i2}), 0u);  // A delta row: no band repair.
  EXPECT_TRUE(Contains(twins.Check(), i1));

  EXPECT_EQ(twins.Delete({kM}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, i3));
  EXPECT_TRUE(Contains(after, kE));
}

// --- Default-read cover exactness -----------------------------------------

// Rows shared by the cover tests: A and B are band members that P covers,
// E a member P leaves alone and Q covers, P2 a row P dominates that
// covers A but not B.
constexpr Coord kRowP[] = {4, 9, 80};
constexpr Coord kRowP2[] = {9, 40, 85};
constexpr Coord kRowQ[] = {2, 2999, 4};

PointSet Rows(std::initializer_list<std::span<const Coord>> rows) {
  PointSet out(3);
  for (std::span<const Coord> p : rows) out.Append(p);
  return out;
}

PointSet CoverBase() {
  return RepairBase({{10, 50, 90},    // A
                     {50, 10, 90},    // B
                     {3, 3000, 5}});  // E
}

// (e) A deleted candidate's covered members return; a member another
// candidate covers stays out.
TEST(QueryServiceUpdatesTest, CoverDeletedCandidateReturnsItsMembers) {
  enum : uint32_t { kA, kB, kE };
  RepairTwins twins(CoverBase(), "cover_delete", LowXBox());
  const uint32_t p = 3 + 300;
  const uint32_t q = p + 1;
  twins.Insert(Rows({kRowP, kRowQ}));
  const SkylineIndices before = twins.Check();
  EXPECT_EQ(twins.delta_stats().band_covered, 3u);
  for (uint32_t id : {kA, kB, kE}) EXPECT_FALSE(Contains(before, id)) << id;

  EXPECT_EQ(twins.Delete({p}), 0u);
  const SkylineIndices after = twins.Check();
  EXPECT_EQ(twins.delta_stats().band_covered, 1u);
  EXPECT_TRUE(Contains(after, kA));
  EXPECT_TRUE(Contains(after, kB));
  EXPECT_FALSE(Contains(after, kE));
  EXPECT_TRUE(Contains(after, q));

  // Deleting A, ahead of the covered E in band order, resurfaces nothing
  // (B covers A's region): E's flag moves with the compacted band.
  EXPECT_EQ(twins.Delete({kA}), 1u);
  const SkylineIndices last = twins.Check();
  EXPECT_EQ(twins.delta_stats().band_size, 2u);
  EXPECT_EQ(twins.delta_stats().band_covered, 1u);
  EXPECT_FALSE(Contains(last, kE));
}

// (f) A chain P ≺ P2 ≺ A: P retires P2, and deleting P re-promotes P2,
// which keeps A covered while B returns.
TEST(QueryServiceUpdatesTest, CoverChainRepromotesTheMiddleCandidate) {
  enum : uint32_t { kA, kB, kE };
  RepairTwins twins(CoverBase(), "cover_chain", LowXBox());
  const uint32_t p2 = 3 + 300;
  const uint32_t p = p2 + 1;
  twins.Insert(Rows({kRowP2}));
  twins.Insert(Rows({kRowP}));
  const SkylineIndices before = twins.Check();
  EXPECT_EQ(twins.delta_stats().delta_candidates, 1u);
  EXPECT_FALSE(Contains(before, p2));

  EXPECT_EQ(twins.Delete({p}), 0u);
  const SkylineIndices after = twins.Check();
  EXPECT_EQ(twins.delta_stats().band_covered, 1u);
  EXPECT_TRUE(Contains(after, p2));
  EXPECT_FALSE(Contains(after, kA));
  EXPECT_TRUE(Contains(after, kB));
  EXPECT_TRUE(Contains(after, kE));
}

// (g) A band repair resurfaces S, but the live candidate P dominates it,
// so S joins the band covered and stays out of the answer.
TEST(QueryServiceUpdatesTest, CoverKeepsAResurfacedRowBehindALiveCandidate) {
  enum : uint32_t { kD, kS, kE };
  RepairTwins twins(RepairBase({{10, 10, 3000},  // D
                                {20, 20, 3010},  // S: D only
                                {5, 3000, 5}}),  // E: an unrelated member
                    "cover_fresh", LowXBox());
  const uint32_t p = 3 + 300;
  twins.Insert(Rows({std::vector<Coord>{19, 19, 2000}}));  // P ≺ S, not D.
  const SkylineIndices before = twins.Check();
  EXPECT_TRUE(Contains(before, kD));
  EXPECT_TRUE(Contains(before, p));

  EXPECT_EQ(twins.Delete({kD}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_GE(twins.delta_stats().band_covered, 1u);
  EXPECT_FALSE(Contains(after, kS));
  EXPECT_TRUE(Contains(after, p));
  EXPECT_TRUE(Contains(after, kE));
}

// (h) Covered members across an auto-merge: the merge carries the
// uncovered band + candidates as the new band, with nothing covered, and
// deleting the candidate afterwards resurfaces the members it covered.
TEST(QueryServiceUpdatesTest, CoverCarriesAcrossAnAutoMerge) {
  enum : uint32_t { kA, kB, kE };
  RepairTwins twins(CoverBase(), "cover_merge", LowXBox(),
                    /*merge_threshold=*/3);
  const uint32_t p = 3 + 300;
  const uint32_t q = p + 1;
  EXPECT_FALSE(twins.Insert(Rows({kRowP})));
  EXPECT_EQ(twins.delta_stats().band_covered, 2u);
  EXPECT_TRUE(Contains(twins.Check(), kE));

  // Q plus a dominated row reach the threshold; no row died, so the
  // merge keeps every id.
  EXPECT_TRUE(twins.Insert(Rows({kRowQ, std::vector<Coord>{99, 99, 99}})));
  const SkylineIndices merged = twins.Check();
  EXPECT_EQ(twins.delta_stats().band_covered, 0u);
  EXPECT_EQ(merged, (SkylineIndices{p, q}));
  EXPECT_EQ(twins.delta_stats().band_size, 2u);

  EXPECT_EQ(twins.Delete({p}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, kA));
  EXPECT_TRUE(Contains(after, kB));
  EXPECT_FALSE(Contains(after, kE));
}

// --- Witness repair --------------------------------------------------------

// (i) R's witness W dies, but the surviving member S dominates R too: R
// moves to S's list and stays out of the answer.
TEST(QueryServiceUpdatesTest, WitnessDeathRehomesTheRowToASurvivor) {
  enum : uint32_t { kW, kS, kR };
  RepairTwins twins(RepairBase({{5, 50, 5},      // W: first in witness order
                                {50, 5, 50},     // S
                                {60, 60, 60}}),  // R: W and S
                    "rehome", LowXBox());
  twins.Insert(Rows({std::vector<Coord>{4000, 4000, 4000}}));
  twins.Check();
  EXPECT_EQ(twins.WitnessOf(kR), kW);

  EXPECT_EQ(twins.Delete({kW}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_EQ(twins.WitnessOf(kR), kS);
  EXPECT_TRUE(Contains(after, kS));
  EXPECT_FALSE(Contains(after, kR));
}

// (j) D is the only member above S, T and R, and S dominates R: deleting
// D orphans all three; S and T join the band and R moves to S's list.
TEST(QueryServiceUpdatesTest, WitnessOrphanChainListsUnderAFreshMember) {
  enum : uint32_t { kD, kS, kT, kR, kE };
  RepairTwins twins(RepairBase({{10, 10, 3000},  // D
                                {20, 20, 3010},  // S: D only
                                {15, 30, 3005},  // T: D only
                                {25, 25, 3020},  // R: D and S
                                {5, 3000, 5}}),  // E: an unrelated member
                    "orphans", LowXBox());
  twins.Insert(Rows({std::vector<Coord>{4000, 4000, 4000}}));
  twins.Check();
  EXPECT_EQ(twins.WitnessOf(kR), kD);

  EXPECT_EQ(twins.Delete({kD}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, kS));
  EXPECT_TRUE(Contains(after, kT));
  EXPECT_FALSE(Contains(after, kR));
  EXPECT_EQ(twins.WitnessOf(kR), kS);
}

// (k) The candidate P covers the member A, which witnesses X. The
// auto-merge carries P into the band without A: A and X move to P's
// list, so deleting P resurfaces A, which takes X back.
TEST(QueryServiceUpdatesTest, WitnessesOfACoveredMemberMoveToItsCoverer) {
  enum : uint32_t { kA, kX, kE };
  RepairTwins twins(RepairBase({{10, 50, 90},    // A
                                {11, 51, 91},    // X: A only
                                {3, 3000, 5}}),  // E: an unrelated member
                    "coverer", LowXBox(), /*merge_threshold=*/3);
  const uint32_t p = 3 + 300;
  EXPECT_FALSE(twins.Insert(Rows({kRowP})));
  twins.Check();
  EXPECT_EQ(twins.WitnessOf(kX), kA);

  // Two dominated rows reach the threshold; no row died, so the merge
  // keeps every id.
  EXPECT_TRUE(twins.Insert(Rows({std::vector<Coord>{99, 99, 99},
                                 std::vector<Coord>{98, 99, 99}})));
  const SkylineIndices merged = twins.Check();
  EXPECT_FALSE(Contains(merged, kA));
  EXPECT_EQ(twins.WitnessOf(kA), p);
  EXPECT_EQ(twins.WitnessOf(kX), p);

  EXPECT_EQ(twins.Delete({p}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, kA));
  EXPECT_FALSE(Contains(after, kX));
  EXPECT_EQ(twins.WitnessOf(kX), kA);
}

// (l) Delta rows behind the members M and E merge into the base with M
// and E as witnesses; deleting M then resurfaces its merged row.
TEST(QueryServiceUpdatesTest, WitnessesOfMergedDeltaRows) {
  enum : uint32_t { kM, kE };
  RepairTwins twins(RepairBase({{8, 3000, 8},    // M
                                {3000, 5, 5}}),  // E
                    "merged_rows", LowXBox(), /*merge_threshold=*/3);
  const uint32_t i = 2 + 300;
  const uint32_t j = i + 1;
  EXPECT_TRUE(
      twins.Insert(Rows({std::vector<Coord>{9, 3001, 9},      // I: M only
                         std::vector<Coord>{3001, 6, 6},      // J: E only
                         std::vector<Coord>{4000, 4000, 4000}})));
  twins.Check();
  EXPECT_EQ(twins.WitnessOf(i), kM);
  EXPECT_EQ(twins.WitnessOf(j), kE);

  EXPECT_EQ(twins.Delete({kM}), 1u);
  const SkylineIndices after = twins.Check();
  EXPECT_TRUE(Contains(after, i));
  EXPECT_FALSE(Contains(after, j));
}

// (m) ZDG prunes the partitions of a high anti-diagonal, whose regions the
// partitions of a low anti-diagonal dominate; every row is sampled. Once
// every low row has died, no partition holding an alive sampled row
// dominates them, so the in-place plan patch must route them again. The
// full-space shape spelled with every dim runs the pipeline on the
// patched plan's own partitioner (the default desc reads the band), and
// the k = 2 and box descs reroute pruned partitions by themselves.
TEST(QueryServiceUpdatesTest, PlanPatchRoutesPartitionsNoAliveSampleDominates) {
  constexpr uint32_t kLow = 40;
  PointSet base(2);
  for (Coord i = 0; i < kLow; ++i) base.Append(std::vector<Coord>{i, 39 - i});
  for (Coord t = 0; t < 200; ++t) {
    base.Append(std::vector<Coord>{2048 + 10 * t, 4095 - 10 * t});
  }
  QueryDesc box;
  box.box_lo = {0, 0};
  box.box_hi = {3000, 4095};
  RepairTwins twins(base, "prune", box);
  QueryDesc spelled;
  spelled.dims = {0, 1};
  QueryDesc k2;
  k2.k = 2;
  ASSERT_GT(twins.heap().Query().metrics.pruned_partitions, 0u);

  std::vector<uint32_t> first;
  std::vector<uint32_t> second;
  for (uint32_t r = 0; r < kLow; ++r) {
    (r < kLow / 2 ? first : second).push_back(r);
  }
  for (const std::vector<uint32_t>* batch : {&first, &second}) {
    twins.Delete(*batch);
    twins.Check();
    twins.CheckDesc(spelled);
    twins.CheckDesc(k2);
  }
  EXPECT_GE(twins.heap().stats().plan_patches, 2u);
  EXPECT_EQ(twins.heap().Query().metrics.pruned_partitions, 0u);
  EXPECT_EQ(twins.CheckDesc(spelled).size(), 200u);
}

// delta_stats() describes the dataset the next operation will see, from
// the SetDataset / SetDatasetFile call on, through its plan build.
TEST(QueryServiceUpdatesTest, DeltaStatsDescribeTheNextOperationsDataset) {
  QueryServiceOptions options = MakeServiceOptions();
  options.delta_merge_threshold = 0;
  QueryService service(options,
                       MakePoints(Distribution::kAnticorrelated, 3000, 4, 7));
  EXPECT_EQ(service.delta_stats().logical_rows, 3000u);
  PointSet origin(4);
  origin.Append(std::vector<Coord>(4, 0));
  ASSERT_TRUE(service.Insert(origin).ok);
  ASSERT_EQ(service.Delete(std::vector<uint32_t>{1, 2}).applied, 2u);
  DeltaStats stats = service.delta_stats();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.logical_rows, 3001u);
  EXPECT_EQ(stats.alive_rows, 2999u);
  EXPECT_EQ(stats.delta_candidates, 1u);
  EXPECT_EQ(stats.band_covered, stats.band_size);

  const auto expect_pristine = [](const DeltaStats& got, size_t rows) {
    EXPECT_FALSE(got.active);
    EXPECT_EQ(got.logical_rows, rows);
    EXPECT_EQ(got.alive_rows, rows);
    EXPECT_EQ(got.delta_rows, 0u);
    EXPECT_EQ(got.base_dead, 0u);
    EXPECT_EQ(got.band_size, 0u);
    EXPECT_EQ(got.band_covered, 0u);
    EXPECT_EQ(got.delta_candidates, 0u);
  };
  service.SetDataset(MakePoints(Distribution::kIndependent, 2000, 4, 8));
  expect_pristine(service.delta_stats(), 2000);
  EXPECT_TRUE(service.base_witnesses().empty());
  // A reader polling while the next query builds the new plan.
  std::atomic<bool> done{false};
  std::thread query([&] {
    service.Query();
    done = true;
  });
  while (!done) expect_pristine(service.delta_stats(), 2000);
  query.join();
  ASSERT_EQ(service.Delete(std::vector<uint32_t>{5}).applied, 1u);
  stats = service.delta_stats();
  EXPECT_TRUE(stats.active);
  EXPECT_EQ(stats.logical_rows, 2000u);
  EXPECT_EQ(stats.alive_rows, 1999u);
  EXPECT_EQ(stats.base_dead, 1u);

  const std::string path = ::testing::TempDir() + "/" +
                           std::to_string(::getpid()) + "_stats_next.zsc";
  std::string error;
  ASSERT_TRUE(WriteColumnarFile(
      path, MakePoints(Distribution::kCorrelated, 1500, 4, 9), kBits, &error))
      << error;
  ASSERT_TRUE(service.SetDatasetFile(path, &error)) << error;
  expect_pristine(service.delta_stats(), 1500);
  ASSERT_TRUE(service.Insert(origin).ok);
  stats = service.delta_stats();
  EXPECT_EQ(stats.logical_rows, 1501u);
  EXPECT_EQ(stats.delta_candidates, 1u);
  std::remove(path.c_str());
}

// The write path's spans: a band-member delete records its band repair
// nested inside service.delete; a dominated insert records no repair.
TEST(QueryServiceUpdatesTest, WritePathRecordsNestedSpans) {
#if !ZSKY_TRACING_ENABLED
  GTEST_SKIP() << "macros compiled out (ZSKY_TRACING=OFF)";
#endif
  using trace::Span;
  using trace::Tracer;
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 2000, 4, 31);
  QueryServiceOptions options = MakeServiceOptions();
  options.delta_merge_threshold = 0;
  QueryService service(options, PointSet(points));
  const SkylineIndices sky = service.Query().skyline;
  ASSERT_FALSE(sky.empty());

  const bool was_enabled = Tracer::Global().enabled();
  Tracer::Global().Clear();
  Tracer::Global().SetEnabled(true);
  const auto named = [](const std::vector<Span>& spans,
                        const std::string& name) {
    std::vector<Span> out;
    for (const Span& s : spans) {
      if (s.name == name) out.push_back(s);
    }
    return out;
  };

  constexpr Coord kMax = (1u << kBits) - 1;
  PointSet dominated(4);
  dominated.Append(std::vector<Coord>(4, kMax));
  ASSERT_TRUE(service.Insert(dominated).ok);
  std::vector<Span> spans = Tracer::Global().Snapshot();
  EXPECT_EQ(named(spans, "service.insert").size(), 1u);
  EXPECT_EQ(named(spans, "delta.bootstrap_witnesses").size(), 1u);
  EXPECT_TRUE(named(spans, "delta.repair_band").empty());
  EXPECT_TRUE(named(spans, "delta.repair_candidates").empty());

  const auto expect_nested = [&](const std::vector<Span>& spans,
                                 const std::string& parent,
                                 const std::string& child) {
    const std::vector<Span> outer = named(spans, parent);
    const std::vector<Span> inner = named(spans, child);
    ASSERT_EQ(outer.size(), 1u);
    ASSERT_EQ(inner.size(), 1u);
    EXPECT_EQ(inner[0].tid, outer[0].tid);
    EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
    EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
              outer[0].start_ns + outer[0].dur_ns);
    EXPECT_LT(inner[0].seq, outer[0].seq);  // The child completes first.
  };

  Tracer::Global().Clear();
  ASSERT_EQ(service.Delete(std::vector<uint32_t>{sky.front()}).applied, 1u);
  spans = Tracer::Global().Snapshot();
  expect_nested(spans, "service.delete", "delta.repair_band");
  const std::string args = named(spans, "delta.repair_band").at(0).args;
  for (const char* key : {"dead_members", "rehomed", "orphans", "fresh"}) {
    EXPECT_NE(args.find(std::string("\"") + key + "\":"), std::string::npos)
        << args;
  }

  Tracer::Global().Clear();
  ASSERT_TRUE(service.Merge());
  spans = Tracer::Global().Snapshot();
  Tracer::Global().SetEnabled(was_enabled);
  expect_nested(spans, "service.merge", "delta.merge_carry");
}

}  // namespace
}  // namespace zsky
