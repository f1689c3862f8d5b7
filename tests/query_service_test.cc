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
#include "common/quantizer.h"
#include "common/trace.h"
#include "core/calibration_io.h"
#include "core/metrics_registry.h"
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
        MergeAlgorithm::kZMerge, MergeAlgorithm::kParallelZMerge}) {
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

// Adaptive planning: the cost model picks the configuration, predicted-
// vs-actual error is recorded after every query, and a near-zero replan
// threshold forces the feedback loop through at least one full replan —
// all without ever changing the answer.
TEST(QueryServiceTest, AdaptivePlanningReplansAndMatchesOracle) {
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 3000, 4, 101);
  QueryServiceOptions options = MakeServiceOptions();
  options.adaptive_planning = true;
  options.replan_threshold = 1e-6;  // Any prediction error triggers replan.
  QueryService service(options, points);
  const SkylineIndices oracle = BnlSkyline(points);

  const auto err_before =
      MetricsRegistry::Global().histogram("plan_job1_rel_err_pct").snapshot();
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(service.Query().skyline, oracle) << "query " << i;
  }
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.queries, 5u);
  EXPECT_GE(stats.replans, 1u);
  // Replans rebuild the plan: cold build + one per replan, except the last
  // trigger may still be pending (it builds on the *next* query).
  EXPECT_GE(stats.plan_builds, stats.replans);
  EXPECT_LE(stats.plan_builds, 1u + stats.replans);
  EXPECT_GE(stats.plan_builds, 2u);
  const auto err_after =
      MetricsRegistry::Global().histogram("plan_job1_rel_err_pct").snapshot();
  EXPECT_GE(err_after.count, err_before.count + 5u);
  // Feedback recalibrated the cost model away from its defaults.
  const PlanCalibration cal = service.calibration();
  EXPECT_NE(cal.job1_scale, 1.0);
}

TEST(QueryServiceTest, AdaptivePlanningHighThresholdNeverReplans) {
  const PointSet points = MakePoints(Distribution::kIndependent, 2500, 5, 23);
  QueryServiceOptions options = MakeServiceOptions();
  options.adaptive_planning = true;
  options.replan_threshold = 1e9;  // Tolerate any error: plan is stable.
  QueryService service(options, points);
  const SkylineIndices oracle = BnlSkyline(points);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(service.Query().skyline, oracle);
  const QueryService::Stats stats = service.stats();
  EXPECT_EQ(stats.replans, 0u);
  EXPECT_EQ(stats.plan_builds, 1u);
}

TEST(QueryServiceTest, AdaptivePlanningSurvivesDatasetSwap) {
  const PointSet first = MakePoints(Distribution::kIndependent, 2000, 4, 5);
  const PointSet second =
      MakePoints(Distribution::kAnticorrelated, 2400, 4, 6);
  QueryServiceOptions options = MakeServiceOptions();
  options.adaptive_planning = true;
  QueryService service(options, first);
  EXPECT_EQ(service.Query().skyline, BnlSkyline(first));
  service.SetDataset(second);
  EXPECT_EQ(service.Query().skyline, BnlSkyline(second));
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
      MergeAlgorithm::kZSearch, MergeAlgorithm::kParallelZMerge};
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

TEST(CalibrationPersistenceTest, TextRoundTripIsExact) {
  PlanCalibration cal;
  cal.map_us_per_record = 0.123456789012345;
  cal.sb_us_per_pair = 1e-7;
  cal.zs_us_per_record_log = 3.25;
  cal.merge_us_per_candidate = 0.5;
  cal.job1_scale = 128.375;
  cal.job2_scale = 11.40625;

  std::string error;
  PlanCalibration parsed;
  ASSERT_TRUE(ParseCalibration(SerializeCalibration(cal), &parsed, &error))
      << error;
  // max_digits10 serialization: bit-exact, not approximately equal.
  EXPECT_EQ(parsed.map_us_per_record, cal.map_us_per_record);
  EXPECT_EQ(parsed.sb_us_per_pair, cal.sb_us_per_pair);
  EXPECT_EQ(parsed.zs_us_per_record_log, cal.zs_us_per_record_log);
  EXPECT_EQ(parsed.merge_us_per_candidate, cal.merge_us_per_candidate);
  EXPECT_EQ(parsed.job1_scale, cal.job1_scale);
  EXPECT_EQ(parsed.job2_scale, cal.job2_scale);

  // Unknown keys are ignored so newer writers stay readable.
  ASSERT_TRUE(ParseCalibration(
      SerializeCalibration(cal) + "future_knob 3.5\n", &parsed, &error))
      << error;
  EXPECT_EQ(parsed.job1_scale, cal.job1_scale);

  // Garbage is rejected, not silently defaulted.
  EXPECT_FALSE(ParseCalibration("not a calibration file\n", &parsed, &error));
  EXPECT_FALSE(
      ParseCalibration("zsky-calibration v1\njob1_scale\n", &parsed, &error));
}

TEST(CalibrationPersistenceTest, SurvivesServiceRestart) {
  const std::string path =
      ::testing::TempDir() + "/query_service_calibration.txt";
  std::remove(path.c_str());
  const PointSet points =
      MakePoints(Distribution::kAnticorrelated, 3000, 4, 101);

  QueryServiceOptions options = MakeServiceOptions();
  options.calibration_file = path;
  options.adaptive_planning = true;
  options.replan_threshold = 1e-6;  // Any prediction error recalibrates.

  // First lifetime: learn a calibration, save it on shutdown.
  PlanCalibration learned;
  {
    QueryService service(options, points);
    const SkylineIndices oracle = BnlSkyline(points);
    for (int i = 0; i < 5; ++i) EXPECT_EQ(service.Query().skyline, oracle);
    learned = service.calibration();
    EXPECT_NE(learned.job1_scale, 1.0);
  }

  // Second lifetime: the learned model is back before the first query.
  {
    QueryService service(options, points);
    const PlanCalibration restored = service.calibration();
    EXPECT_EQ(restored.job1_scale, learned.job1_scale);
    EXPECT_EQ(restored.job2_scale, learned.job2_scale);
    EXPECT_EQ(restored.map_us_per_record, learned.map_us_per_record);
    EXPECT_EQ(service.Query().skyline, BnlSkyline(points));
  }

  // A missing file is a clean first boot, not an error.
  std::remove(path.c_str());
  {
    QueryService service(options, points);
    EXPECT_EQ(service.calibration().job1_scale, PlanCalibration{}.job1_scale);
    EXPECT_EQ(service.Query().skyline, BnlSkyline(points));
  }
  std::remove(path.c_str());
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
// under a shuffle budget (bounded residency: the repair scan streams the
// mapping through RowBlockCursor, which drops pages behind it). After
// every step both answer the default desc and a box desc exactly like the
// oracle over the mirrored alive rows, and bit-identically to each other.
class RepairTwins {
 public:
  RepairTwins(const PointSet& base, const std::string& tag, QueryDesc box)
      : points_(base), alive_(base.size(), 1), box_(std::move(box)) {
    QueryServiceOptions options = MakeServiceOptions();
    options.delta_merge_threshold = 0;
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

  void Insert(const PointSet& batch) {
    for (QueryService* s : {heap_.get(), mmap_.get()}) {
      const MutationResult mr = s->Insert(batch);
      ASSERT_TRUE(mr.ok) << mr.error;
      ASSERT_EQ(mr.applied, batch.size());
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      points_.Append(batch[i]);
      alive_.push_back(1);
    }
  }

  // Deletes live ids; returns how many band repairs the batch ran (the
  // same on both twins).
  size_t Delete(const std::vector<uint32_t>& ids) {
    const size_t before = heap_->stats().repairs;
    EXPECT_EQ(mmap_->stats().repairs, before);
    for (QueryService* s : {heap_.get(), mmap_.get()}) {
      EXPECT_EQ(s->Delete(ids).applied, ids.size());
    }
    for (uint32_t id : ids) alive_[id] = 0;
    const size_t repairs = heap_->stats().repairs - before;
    EXPECT_EQ(mmap_->stats().repairs - before, repairs);
    return repairs;
  }

  // Checks both twins against the oracle for both descs; returns the
  // default skyline (ascending logical ids).
  SkylineIndices Check() {
    SkylineIndices sky;
    for (const QueryDesc& desc : {QueryDesc{}, box_}) {
      QueryRequest request;
      request.desc = desc;
      SkylineIndices heap = heap_->Query(request).skyline;
      SkylineIndices mmap = mmap_->Query(request).skyline;
      std::sort(heap.begin(), heap.end());
      std::sort(mmap.begin(), mmap.end());
      EXPECT_EQ(heap, Expected(desc)) << "box: " << desc.has_box();
      EXPECT_EQ(mmap, heap) << "box: " << desc.has_box();
      if (!desc.has_box()) sky = heap;
    }
    return sky;
  }

 private:
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
  EXPECT_TRUE(named(spans, "delta.repair_band").empty());
  EXPECT_TRUE(named(spans, "delta.repair_candidates").empty());

  Tracer::Global().Clear();
  ASSERT_EQ(service.Delete(std::vector<uint32_t>{sky.front()}).applied, 1u);
  spans = Tracer::Global().Snapshot();
  Tracer::Global().SetEnabled(was_enabled);
  const std::vector<Span> outer = named(spans, "service.delete");
  const std::vector<Span> inner = named(spans, "delta.repair_band");
  ASSERT_EQ(outer.size(), 1u);
  ASSERT_EQ(inner.size(), 1u);
  EXPECT_EQ(inner[0].tid, outer[0].tid);
  EXPECT_GE(inner[0].start_ns, outer[0].start_ns);
  EXPECT_LE(inner[0].start_ns + inner[0].dur_ns,
            outer[0].start_ns + outer[0].dur_ns);
  EXPECT_LT(inner[0].seq, outer[0].seq);  // The child completes first.
}

}  // namespace
}  // namespace zsky
