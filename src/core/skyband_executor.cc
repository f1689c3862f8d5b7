#include "core/skyband_executor.h"

#include <atomic>
#include <memory>
#include <mutex>
#include <span>
#include <utility>
#include <vector>

#include "common/stopwatch.h"
#include "core/query_plan.h"
#include "index/zbtree.h"
#include "index/zsearch.h"
#include "mapreduce/job.h"

namespace zsky {

SkylineQueryResult DistributedSkyband(const PointSet& points,
                                      const SkybandOptions& options) {
  ZSKY_CHECK(options.k >= 1);
  SkylineQueryResult result;
  PhaseMetrics& pm = result.metrics;
  if (points.empty()) return result;

  Stopwatch total_watch;
  const size_t n = points.size();
  const uint32_t dim = points.dim();

  // ----- Preprocess: shared plan + sample k-skyband filter. -----
  // The sample and partitioner come from the shared plan layer (ZHG: no
  // partition pruning — a dominated partition can still contribute to a
  // k-skyband). The plan's skyline-based SZB filter is unsound for k > 1,
  // so it stays off; the k-skyband filter below replaces it.
  ExecutorOptions plan_options;
  plan_options.partitioning = PartitioningScheme::kZhg;
  plan_options.num_groups = options.num_groups;
  plan_options.expansion = options.expansion;
  plan_options.sample_ratio = options.sample_ratio;
  plan_options.bits = options.bits;
  plan_options.seed = options.seed;
  plan_options.enable_szb_filter = false;
  const PreparedPlan plan = PreparePlan(points, plan_options);
  const ZOrderCodec& codec = *plan.codec;
  pm.num_partitions = plan.num_partitions;
  pm.num_groups = plan.partitioner->num_groups();
  pm.sample_size = plan.sample.size();

  // The mapper filter indexes the *sample k-skyband*: a point with >= k
  // dominators inside it has >= k real dominators.
  Stopwatch filter_watch;
  std::unique_ptr<ZBTree> filter_tree;
  if (options.enable_sample_filter) {
    const SkylineIndices band = ZOrderSkyband(codec, plan.sample, options.k);
    const PointSet band_points = PointSet::Gather(plan.sample, band);
    pm.sample_skyline_size = band_points.size();
    filter_tree = std::make_unique<ZBTree>(&codec, band_points,
                                           ZBTree::Options());
  }
  pm.preprocess_ms = plan.build_ms + filter_watch.ElapsedMs();

  // ----- Job 1: per-group local k-skybands. -----
  Stopwatch job1_watch;
  const size_t num_map_tasks = std::min<size_t>(options.num_map_tasks, n);
  std::atomic<size_t> filtered{0};
  std::mutex candidates_mutex;
  std::vector<uint32_t> candidates;

  typename mr::MapReduceJob<uint32_t>::Options job_options;
  job_options.num_reduce_tasks = plan.partitioner->num_groups();
  job_options.num_threads = options.num_threads;
  job_options.enable_combiner = options.enable_combiner;
  mr::MapReduceJob<uint32_t> job1(job_options);

  auto local_band_of_rows =
      [&](std::span<const uint32_t> rows) -> std::vector<uint32_t> {
    const PointSet local = PointSet::Gather(points, rows);
    std::vector<uint32_t> out;
    for (uint32_t i : ZOrderSkyband(codec, local, options.k)) {
      out.push_back(rows[i]);
    }
    return out;
  };
  pm.job1 = job1.Run(
      num_map_tasks,
      [&](size_t task, auto& emit) {
        const size_t begin = task * n / num_map_tasks;
        const size_t end = (task + 1) * n / num_map_tasks;
        size_t local_filtered = 0;
        for (size_t row = begin; row < end; ++row) {
          const auto p = points[row];
          if (filter_tree != nullptr &&
              filter_tree->CountDominatorsOf(p, options.k) >= options.k) {
            ++local_filtered;
            continue;
          }
          emit(plan.partitioner->GroupOf(p), static_cast<uint32_t>(row));
        }
        filtered.fetch_add(local_filtered, std::memory_order_relaxed);
      },
      [&](int32_t /*gid*/, std::span<const uint32_t> rows, auto&& emit) {
        for (uint32_t row : local_band_of_rows(rows)) emit(row);
      },
      [&](int32_t /*gid*/, std::span<const uint32_t> rows) {
        std::vector<uint32_t> band = local_band_of_rows(rows);
        const std::lock_guard<std::mutex> lock(candidates_mutex);
        candidates.insert(candidates.end(), band.begin(), band.end());
      },
      [dim](const uint32_t&) { return static_cast<size_t>(dim) * 4; });
  pm.job1_ms = job1_watch.ElapsedMs();
  pm.candidates = candidates.size();
  pm.filtered_by_szb = filtered.load();

  // ----- Job 2: global recount over the candidate set. -----
  Stopwatch job2_watch;
  const PointSet candidate_points = PointSet::Gather(points, candidates);
  SkylineIndices band;
  for (uint32_t i : ZOrderSkyband(codec, candidate_points, options.k)) {
    band.push_back(candidates[i]);
  }
  SortSkyline(band);
  pm.job2_ms = job2_watch.ElapsedMs();

  result.skyline = std::move(band);
  pm.total_ms = total_watch.ElapsedMs();
  const uint32_t slots = options.num_groups;
  pm.sim_job1_ms = pm.job1.SimulatedMs(slots, 1024.0);
  pm.sim_job2_ms = pm.job2_ms;  // Master-side merge.
  pm.sim_total_ms = pm.preprocess_ms + pm.sim_job1_ms + pm.sim_job2_ms;
  return result;
}

}  // namespace zsky
