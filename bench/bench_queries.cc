// Query-variant bench: constraint-selectivity sweep over the desc-aware
// pipeline. For each box selectivity the constrained path (warm prepared
// plan + a box test before each row is routed, docs/queries.md) races
// what a desc-less system would do with the same warm plan: run the full
// skyline and post-filter its rows to the box. That baseline is not even
// correct in general — an in-box point dominated only by out-of-box
// points belongs to the constrained skyline but never survives the full
// one — which is exactly why QueryDesc pushes the box into the mapper
// instead. A second, correct baseline (scan-filter the dataset into the
// box, rerun the pipeline cold over the survivors) supplies the parity
// cross-check and an informational column. Self-checks: parity at every
// sweep point, structural pruning (regions_pruned_by_box > 0) and a win
// over full-skyline-then-filter at <= 10% selectivity. Emits
// BENCH_queries.json; the `scripts/check.sh queries` lane gates >10%
// regressions of the headline 10%-selectivity latency against the
// committed baseline.

#include <algorithm>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/query_plan.h"

namespace zsky::bench {
namespace {

constexpr size_t kN = 200000;
constexpr uint32_t kDim = 6;
constexpr Coord kMaxCoord = (1u << kBits) - 1;
constexpr int kReps = 3;
constexpr double kSelectivities[] = {0.01, 0.10, 0.50, 1.00};

ExecutorOptions QueryOptions() {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  return options;
}

QueryDesc BoxDesc(double selectivity) {
  QueryDesc desc;
  if (selectivity >= 1.0) return desc;
  desc.box_lo.assign(kDim, 0);
  desc.box_hi.assign(kDim, kMaxCoord);
  // Independent uniform coordinates: constraining dim 0 to fraction f of
  // its range keeps ~f of the points.
  desc.box_hi[0] = static_cast<Coord>(selectivity * kMaxCoord);
  return desc;
}

struct SweepPoint {
  double selectivity = 1.0;
  double measured_selectivity = 1.0;
  double constrained_ms = 0.0;  // Warm plan + desc-aware pipeline.
  double fullfilter_ms = 0.0;   // Warm full skyline + box post-filter.
  double rerun_ms = 0.0;        // Scan-filter + cold pipeline (correct).
  size_t regions_pruned = 0;
  size_t dropped_by_box = 0;
  size_t skyline = 0;
  bool identical = false;
};

SweepPoint RunSweepPoint(const PointSet& points, const PreparedPlan& plan,
                         const ParallelSkylineExecutor& executor,
                         double selectivity) {
  SweepPoint sp;
  sp.selectivity = selectivity;
  const QueryDesc desc = BoxDesc(selectivity);

  // Constrained path: the desc rides the warm plan.
  SkylineQueryResult constrained;
  for (int r = 0; r < kReps; ++r) {
    SkylineQueryResult result = executor.ExecuteWithPlan(plan, points, desc);
    if (r == 0 || result.metrics.total_ms < constrained.metrics.total_ms) {
      constrained = std::move(result);
    }
  }
  sp.constrained_ms = constrained.metrics.total_ms;
  sp.regions_pruned = constrained.metrics.regions_pruned_by_box;
  sp.dropped_by_box = constrained.metrics.dropped_by_box;
  sp.skyline = constrained.skyline.size();

  // Gate baseline: the same warm plan, desc ignored — full skyline, then
  // drop out-of-box rows. What a pipeline without QueryDesc support would
  // serve (and in general an under-approximation of the true answer).
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    const SkylineQueryResult full = executor.ExecuteWithPlan(plan, points);
    size_t kept = 0;
    for (uint32_t row : full.skyline) {
      if (desc.InBox(points[row])) ++kept;
    }
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < sp.fullfilter_ms) sp.fullfilter_ms = ms;
    (void)kept;
  }

  // Correct baseline (parity cross-check): materialize the in-box subset,
  // then answer with the full pipeline end to end (plan build included —
  // the subset is a new dataset every query, so nothing can be reused).
  SkylineIndices reference;
  for (int r = 0; r < kReps; ++r) {
    Stopwatch watch;
    std::vector<uint32_t> keep;
    keep.reserve(points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      if (desc.InBox(points[i])) keep.push_back(static_cast<uint32_t>(i));
    }
    const PointSet subset = PointSet::Gather(points, keep);
    SkylineIndices rows = executor.Execute(subset).skyline;
    for (uint32_t& row : rows) row = keep[row];
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < sp.rerun_ms) {
      sp.rerun_ms = ms;
      reference = std::move(rows);
    }
    if (r == 0) {
      sp.measured_selectivity =
          static_cast<double>(keep.size()) / static_cast<double>(points.size());
    }
  }

  std::sort(reference.begin(), reference.end());
  SkylineIndices got = constrained.skyline;
  std::sort(got.begin(), got.end());
  sp.identical = got == reference;
  return sp;
}

void WriteJson(const char* path, const std::vector<SweepPoint>& sweep,
               bool pass) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, "
               "\"distribution\": \"independent\", \"strategy\": \"%s\"},\n",
               kN, kDim, QueryOptions().Label().c_str());
  std::fprintf(f, "  \"sweep\": [\n");
  for (size_t i = 0; i < sweep.size(); ++i) {
    const SweepPoint& sp = sweep[i];
    std::fprintf(f,
                 "    {\"selectivity\": %.2f, \"measured\": %.4f, "
                 "\"constrained_ms\": %.3f, \"fullfilter_ms\": %.3f, "
                 "\"rerun_ms\": %.3f, "
                 "\"regions_pruned\": %zu, \"dropped_by_box\": %zu, "
                 "\"skyline\": %zu, \"identical\": %s}%s\n",
                 sp.selectivity, sp.measured_selectivity, sp.constrained_ms,
                 sp.fullfilter_ms, sp.rerun_ms, sp.regions_pruned,
                 sp.dropped_by_box, sp.skyline,
                 sp.identical ? "true" : "false",
                 i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n");
  // Headline for the regression gate: the 10%-selectivity constrained
  // latency (the sweep point the acceptance criteria single out).
  for (const SweepPoint& sp : sweep) {
    if (sp.selectivity == 0.10) {
      std::fprintf(f, "  \"constrained_ms_sel10\": %.3f,\n",
                   sp.constrained_ms);
      std::fprintf(f, "  \"fullfilter_ms_sel10\": %.3f,\n", sp.fullfilter_ms);
      std::fprintf(f, "  \"speedup_sel10\": %.3f,\n",
                   sp.constrained_ms > 0.0
                       ? sp.fullfilter_ms / sp.constrained_ms
                       : 0.0);
    }
  }
  std::fprintf(f, "  \"acceptance\": %s\n", pass ? "true" : "false");
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  PrintBanner("queries",
              "constrained queries: RZ-region pruning vs post-filtering",
              "200k x 6d, box selectivity sweep 1% / 10% / 50% / 100%");

  const PointSet points = MakeData(Distribution::kIndependent, kN, kDim, 42);
  const ExecutorOptions options = QueryOptions();
  const ParallelSkylineExecutor executor(options);
  const PreparedPlan plan = PreparePlan(points, options);
  executor.ExecuteWithPlan(plan, points);  // Warm-up (pool, page cache).

  std::vector<SweepPoint> sweep;
  for (double selectivity : kSelectivities) {
    sweep.push_back(RunSweepPoint(points, plan, executor, selectivity));
  }

  std::printf("%-12s %14s %14s %10s %10s %10s %9s\n", "selectivity",
              "constrained_ms", "fullfilter_ms", "rerun_ms", "regions",
              "boxdrop", "skyline");
  bool pass = true;
  for (const SweepPoint& sp : sweep) {
    std::printf("%-12.2f %14.1f %14.1f %10.1f %10zu %10zu %9zu%s\n",
                sp.selectivity, sp.constrained_ms, sp.fullfilter_ms,
                sp.rerun_ms, sp.regions_pruned, sp.dropped_by_box, sp.skyline,
                sp.identical ? "" : "  MISMATCH");
    pass = pass && sp.identical;
    if (sp.selectivity <= 0.10) {
      // The structural claims: whole regions die before any point is
      // touched, and the desc-aware path beats running the full skyline
      // and filtering its rows.
      pass = pass && sp.regions_pruned > 0;
      pass = pass && sp.constrained_ms < sp.fullfilter_ms;
    }
  }

  std::printf("# CSV,selectivity,constrained_ms,fullfilter_ms,rerun_ms,"
              "regions_pruned,dropped_by_box\n");
  for (const SweepPoint& sp : sweep) {
    std::printf("# CSV,%.2f,%.3f,%.3f,%.3f,%zu,%zu\n", sp.selectivity,
                sp.constrained_ms, sp.fullfilter_ms, sp.rerun_ms,
                sp.regions_pruned, sp.dropped_by_box);
  }

  WriteJson("BENCH_queries.json", sweep, pass);
  std::printf("acceptance: %s\n", pass ? "PASS" : "FAIL");
  return pass ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
