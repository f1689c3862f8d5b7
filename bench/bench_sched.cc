// Scheduling bench (docs/scheduling.md): the three headline numbers of
// the morsel-driven scheduler + cost-based planner, emitted to
// BENCH_sched.json for the scripts/check.sh `sched` gate.
//
//  1. skew      — wave-completion skew of the straggler workload (raw
//                 shuffle, tightly clustered 5d data, one wave of
//                 as-many-groups-as-slots) under static splits vs morsel
//                 scheduling + run collapse. Acceptance: >= 2x reduction
//                 with bit-identical skylines.
//  2. end_to_end — the bench_hotpath 500k x 8d pipeline with morsel
//                 scheduling on vs off. The scheduler must not tax the
//                 balanced case: check.sh gates sched_ms against
//                 BENCH_hotpath.json's hotpath_ms.
//  3. planner   — ChoosePlan's predicted vs measured stage times on two
//                 contrasting datasets (the adaptive-serving feedback
//                 signal, before any calibration).

#include <algorithm>
#include <cstdio>
#include <memory>
#include <string>

#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/planner.h"
#include "partition/angle_partitioner.h"
#include "partition/grid_partitioner.h"
#include "sample/reservoir.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;
// Simulated cluster slots for the wave-completion skew.
constexpr uint32_t kSimWorkers = 8;

template <typename Fn>
double BestMs(const Fn& fn, int reps = kReps) {
  double best = 0.0;
  for (int r = 0; r < reps; ++r) {
    Stopwatch watch;
    fn();
    const double ms = watch.ElapsedMs();
    if (r == 0 || ms < best) best = ms;
  }
  return best;
}

// --- 1. Straggler ablation (mirrors bench_skew_stragglers's headline
// dataset): raw shuffles of 2-cluster 5d data into kSimWorkers groups
// leave two reducers holding ~40% of all records each. ---
struct SkewResult {
  double static_skew = 0.0;
  double morsel_skew = 0.0;
  bool identical = false;
  size_t stolen = 0;
  size_t collapse_tasks = 0;
  double Reduction() const {
    return morsel_skew > 0.0 ? static_skew / morsel_skew : 0.0;
  }
};

SkewResult BenchSkew(const PointSet& points, PartitioningScheme scheme) {
  ExecutorOptions base;
  base.partitioning = scheme;
  base.local = LocalAlgorithm::kZSearch;
  base.merge = MergeAlgorithm::kZSearch;
  base.num_groups = kSimWorkers;
  base.bits = kBits;
  // Raw shuffle (the paper's Section 3.3 baseline) + a collapse target
  // sized for this bench's 100k scale.
  base.enable_combiner = false;
  base.reduce_morsel_records = 2048;

  // Serial best-of-kReps runs give clean per-task work times; the skew
  // schedules them onto the simulated cluster (see bench_skew_stragglers).
  SkewResult result;
  SkylineIndices static_skyline;
  SkylineIndices morsel_skyline;
  auto measure = [&](bool morsels, SkylineIndices& skyline) {
    ExecutorOptions serial = base;
    serial.morsel_scheduling = morsels;
    serial.reuse_worker_pool = false;
    serial.num_threads = 1;
    double best = 0.0;
    for (int rep = 0; rep < kReps; ++rep) {
      const auto run = ParallelSkylineExecutor(serial).Execute(points);
      const double skew = run.metrics.job1.ReduceCompletionSkew(kSimWorkers);
      if (rep == 0 || skew < best) best = skew;
      skyline = run.skyline;
      result.collapse_tasks = run.metrics.job1.collapse_tasks;
    }
    return best;
  };
  result.static_skew = measure(false, static_skyline);
  result.collapse_tasks = 0;  // Reset: the static arm must not collapse.
  result.morsel_skew = measure(true, morsel_skyline);

  // A pooled run exercises the real stealing path; its skyline must match.
  const auto pooled = ParallelSkylineExecutor(base).Execute(points);
  result.identical = static_skyline == morsel_skyline &&
                     pooled.skyline == morsel_skyline;
  result.stolen =
      pooled.metrics.job1.tasks_stolen + pooled.metrics.job2.tasks_stolen;
  return result;
}

// --- 2. End-to-end guard: bench_hotpath's full-speed 500k x 8d pipeline,
// morsel scheduling on vs off. ---
ExecutorOptions HotOptions(bool morsels) {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  options.reuse_worker_pool = true;
  options.morsel_scheduling = morsels;
  return options;
}

struct EndToEnd {
  double static_ms = 0.0;
  double sched_ms = 0.0;
  bool identical = false;
  size_t stolen = 0;
  size_t morsels = 0;
};

EndToEnd BenchEndToEnd(const PointSet& points) {
  EndToEnd result;
  SkylineIndices static_skyline;
  SkylineIndices sched_skyline;
  {
    const ParallelSkylineExecutor executor(HotOptions(false));
    result.static_ms =
        BestMs([&] { static_skyline = executor.Execute(points).skyline; });
  }
  {
    const ParallelSkylineExecutor executor(HotOptions(true));
    result.sched_ms = BestMs([&] {
      const auto run = executor.Execute(points);
      sched_skyline = run.skyline;
      result.stolen =
          run.metrics.job1.tasks_stolen + run.metrics.job2.tasks_stolen;
      result.morsels =
          run.metrics.job1.morsels_total + run.metrics.job2.morsels_total;
    });
  }
  result.identical = static_skyline == sched_skyline;
  return result;
}

// --- 3. Cost-based planner: predicted vs measured stage times, with the
// default (uncalibrated) cost model. ---
struct PlannerResult {
  std::string dataset;
  std::string chosen;
  size_t candidates = 0;
  double predicted_ms = 0.0;
  double actual_ms = 0.0;
  bool identical = false;
  double RelErrPct() const {
    return actual_ms > 0.0
               ? 100.0 * (predicted_ms - actual_ms) / actual_ms
               : 0.0;
  }
};

PlannerResult BenchPlanner(const char* name, const PointSet& points) {
  PlannerResult result;
  result.dataset = name;
  ExecutorOptions base;
  base.bits = kBits;
  base.num_threads = 4;
  const PlanChoice choice = ChoosePlan(points, base);
  result.chosen = choice.options.Label() + "/g" +
                  std::to_string(choice.options.num_groups);
  result.candidates = choice.candidates.size();
  result.predicted_ms = choice.predicted_total_ms;
  const ParallelSkylineExecutor executor(choice.options);
  SkylineIndices skyline;
  double best = 0.0;
  for (int rep = 0; rep < kReps; ++rep) {
    const auto run = executor.Execute(points);
    const double ms = run.metrics.job1_ms + run.metrics.job2_ms;
    if (rep == 0 || ms < best) best = ms;
    skyline = run.skyline;
  }
  result.actual_ms = best;
  // The chosen plan must still be exact.
  ExecutorOptions reference = base;
  reference.morsel_scheduling = false;
  result.identical =
      skyline == ParallelSkylineExecutor(reference).Execute(points).skyline;
  return result;
}

void WriteJson(const SkewResult& grid, const SkewResult& angle,
               const EndToEnd& e2e, const PlannerResult& p1,
               const PlannerResult& p2) {
  std::FILE* f = std::fopen("BENCH_sched.json", "w");
  if (f == nullptr) {
    std::printf("!! cannot write BENCH_sched.json\n");
    return;
  }
  std::fprintf(f, "{\n");
  auto skew = [&](const char* name, const SkewResult& s, bool last) {
    std::fprintf(f,
                 "    \"%s\": {\"static_skew\": %.3f, \"morsel_skew\": %.3f, "
                 "\"reduction\": %.3f, \"identical\": %s, \"stolen\": %zu, "
                 "\"collapse_tasks\": %zu}%s\n",
                 name, s.static_skew, s.morsel_skew, s.Reduction(),
                 s.identical ? "true" : "false", s.stolen, s.collapse_tasks,
                 last ? "" : ",");
  };
  std::fprintf(f,
               "  \"skew\": {\n"
               "    \"dataset\": \"clustered-5d-raw 100k, 2 clusters\",\n"
               "    \"sim_workers\": %u,\n",
               kSimWorkers);
  skew("grid", grid, false);
  skew("angle", angle, true);
  std::fprintf(f, "  },\n");
  std::fprintf(f,
               "  \"end_to_end\": {\"workload\": \"independent 500k x 8d\", "
               "\"static_ms\": %.3f, \"sched_ms\": %.3f, \"identical\": %s, "
               "\"stolen\": %zu, \"morsels\": %zu},\n",
               e2e.static_ms, e2e.sched_ms, e2e.identical ? "true" : "false",
               e2e.stolen, e2e.morsels);
  auto planner = [&](const PlannerResult& p, bool last) {
    std::fprintf(f,
                 "    {\"dataset\": \"%s\", \"chosen\": \"%s\", "
                 "\"candidates\": %zu, \"predicted_ms\": %.3f, "
                 "\"actual_ms\": %.3f, \"rel_err_pct\": %.1f, "
                 "\"identical\": %s}%s\n",
                 p.dataset.c_str(), p.chosen.c_str(), p.candidates,
                 p.predicted_ms, p.actual_ms, p.RelErrPct(),
                 p.identical ? "true" : "false", last ? "" : ",");
  };
  std::fprintf(f, "  \"planner\": [\n");
  planner(p1, false);
  planner(p2, true);
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_sched.json\n");
}

int Main() {
  PrintBanner("sched", "morsel scheduling + cost-based planner headline",
              "skew ablation, hotpath guard, planner error");

  const Quantizer quantizer(kBits);
  const auto clustered_values = GenerateClustered(100'000, 5, 2, 0.03, 11);
  const PointSet clustered = quantizer.QuantizeAll(clustered_values, 5);
  const SkewResult grid = BenchSkew(clustered, PartitioningScheme::kGrid);
  const SkewResult angle = BenchSkew(clustered, PartitioningScheme::kAngle);
  std::printf("%-8s %12s %12s %10s %8s %8s\n", "skew", "static", "morsel",
              "reduction", "stolen", "match");
  std::printf("%-8s %11.2fx %11.2fx %9.2fx %8zu %8s\n", "grid",
              grid.static_skew, grid.morsel_skew, grid.Reduction(),
              grid.stolen, grid.identical ? "yes" : "NO");
  std::printf("%-8s %11.2fx %11.2fx %9.2fx %8zu %8s\n", "angle",
              angle.static_skew, angle.morsel_skew, angle.Reduction(),
              angle.stolen, angle.identical ? "yes" : "NO");

  const PointSet hot = MakeData(Distribution::kIndependent, 500'000, 8, 42);
  const EndToEnd e2e = BenchEndToEnd(hot);
  std::printf("\nend-to-end 500kx8d: static %.1fms, sched %.1fms "
              "(stolen %zu / %zu morsels), identical=%s\n",
              e2e.static_ms, e2e.sched_ms, e2e.stolen, e2e.morsels,
              e2e.identical ? "yes" : "NO");

  const PlannerResult p1 =
      BenchPlanner("correlated-4d-100k",
                   MakeData(Distribution::kCorrelated, 100'000, 4, 7));
  const PlannerResult p2 =
      BenchPlanner("anticorrelated-8d-50k",
                   MakeData(Distribution::kAnticorrelated, 50'000, 8, 9));
  std::printf("\n%-24s %-18s %12s %12s %8s %6s\n", "planner", "chosen",
              "predicted", "actual", "err", "match");
  for (const PlannerResult* p : {&p1, &p2}) {
    std::printf("%-24s %-18s %10.1fms %10.1fms %+6.0f%% %6s\n",
                p->dataset.c_str(), p->chosen.c_str(), p->predicted_ms,
                p->actual_ms, p->RelErrPct(), p->identical ? "yes" : "NO");
  }

  std::printf("\n# CSV,skew,grid,%.3f,%.3f,%.3f\n", grid.static_skew,
              grid.morsel_skew, grid.Reduction());
  std::printf("# CSV,skew,angle,%.3f,%.3f,%.3f\n", angle.static_skew,
              angle.morsel_skew, angle.Reduction());
  std::printf("# CSV,end_to_end,%.3f,%.3f\n", e2e.static_ms, e2e.sched_ms);
  std::printf("# CSV,planner,%s,%.3f,%.3f\n", p1.chosen.c_str(),
              p1.predicted_ms, p1.actual_ms);
  std::printf("# CSV,planner,%s,%.3f,%.3f\n", p2.chosen.c_str(),
              p2.predicted_ms, p2.actual_ms);

  WriteJson(grid, angle, e2e, p1, p2);
  const bool ok = grid.identical && angle.identical && e2e.identical &&
                  p1.identical && p2.identical && grid.Reduction() >= 2.0;
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
