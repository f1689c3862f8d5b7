// Hot-path bench: the persistent worker pool against spawn-per-wave
// threads, then the end-to-end pipeline, its skyline checked against the
// BNL oracle. Emits BENCH_hotpath.json for machine consumption next to the
// usual "# CSV" rows; `scripts/check.sh sched` compares bench_sched's
// end-to-end time with the committed `hotpath_ms`.

#include <cstdio>

#include "algo/bnl.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "mapreduce/task_runner.h"
#include "mapreduce/worker_pool.h"

namespace zsky::bench {
namespace {

constexpr int kReps = 3;

// Best-of-k wall time of `fn` in ms.
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

struct Pair {
  double baseline_ms;
  double optimized_ms;
  double Speedup() const {
    return optimized_ms > 0.0 ? baseline_ms / optimized_ms : 0.0;
  }
};

// --- 1. Pool reuse vs spawn-per-wave: many small waves back-to-back,
// the wave pattern a query pipeline produces. ---
Pair BenchPool() {
  constexpr uint32_t kThreads = 4;
  constexpr size_t kWaves = 300;
  constexpr size_t kTasksPerWave = 16;
  auto work = [](size_t) {
    volatile uint64_t x = 0;
    for (int i = 0; i < 2000; ++i) x = x + i;
  };
  Pair result;
  result.baseline_ms = BestMs([&] {
    for (size_t w = 0; w < kWaves; ++w) {
      mr::TaskRunner(kThreads).Run(kTasksPerWave, work);
    }
  });
  result.optimized_ms = BestMs([&] {
    mr::WorkerPool pool(kThreads);
    for (size_t w = 0; w < kWaves; ++w) {
      pool.Run(kTasksPerWave, work);
    }
  });
  return result;
}

// --- 2. End-to-end Execute, checked against the BNL oracle. ---
struct EndToEnd {
  double hotpath_ms = 0.0;
  bool identical = false;
  size_t skyline = 0;
};

EndToEnd BenchEndToEnd(const PointSet& points) {
  ExecutorOptions options;
  options.bits = kBits;
  options.partitioning = PartitioningScheme::kZdg;
  options.local = LocalAlgorithm::kZSearch;
  options.merge = MergeAlgorithm::kZMerge;
  options.num_groups = 8;
  options.num_map_tasks = 16;
  options.num_threads = 4;
  const ParallelSkylineExecutor executor(options);
  EndToEnd result;
  SkylineIndices skyline;
  result.hotpath_ms =
      BestMs([&] { skyline = executor.Execute(points).skyline; });
  result.identical = skyline == BnlSkyline(points);
  result.skyline = skyline.size();
  return result;
}

void WriteJson(const char* path, size_t n, uint32_t dim, const Pair& pool,
               const EndToEnd& e2e) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("!! cannot write %s\n", path);
    return;
  }
  std::fprintf(f, "{\n");
  std::fprintf(f,
               "  \"workload\": {\"n\": %zu, \"dim\": %u, "
               "\"distribution\": \"independent\"},\n",
               n, dim);
  std::fprintf(f,
               "  \"pool\": {\"spawn_per_wave_ms\": %.3f, "
               "\"worker_pool_ms\": %.3f, \"speedup\": %.3f},\n",
               pool.baseline_ms, pool.optimized_ms, pool.Speedup());
  std::fprintf(f,
               "  \"end_to_end\": {\"hotpath_ms\": %.3f, "
               "\"identical\": %s, \"skyline_size\": %zu}\n",
               e2e.hotpath_ms, e2e.identical ? "true" : "false",
               e2e.skyline);
  std::fprintf(f, "}\n");
  std::fclose(f);
  std::printf("wrote %s\n", path);
}

int Main() {
  constexpr size_t kN = 500000;
  constexpr uint32_t kDim = 8;
  PrintBanner("hotpath", "persistent pool / end-to-end pipeline",
              "500k x 8d end-to-end plus the pool ablation");

  const PointSet points = MakeData(Distribution::kIndependent, kN, kDim, 42);

  const Pair pool = BenchPool();
  std::printf("%-28s %10s %10s %8s\n", "mechanism", "baseline", "optimized",
              "speedup");
  std::printf("%-28s %9.1fms %9.1fms %7.2fx\n", "pool (300 waves x 16 tasks)",
              pool.baseline_ms, pool.optimized_ms, pool.Speedup());

  const EndToEnd e2e = BenchEndToEnd(points);
  std::printf("%-28s %21.1fms  matches BNL=%s\n", "end-to-end Execute",
              e2e.hotpath_ms, e2e.identical ? "yes" : "NO");

  std::printf("# CSV,mechanism,baseline_ms,optimized_ms,speedup\n");
  std::printf("# CSV,pool,%.3f,%.3f,%.3f\n", pool.baseline_ms,
              pool.optimized_ms, pool.Speedup());
  std::printf("# CSV,end_to_end,,%.3f,\n", e2e.hotpath_ms);

  WriteJson("BENCH_hotpath.json", kN, kDim, pool, e2e);
  return e2e.identical ? 0 : 1;
}

}  // namespace
}  // namespace zsky::bench

int main() { return zsky::bench::Main(); }
