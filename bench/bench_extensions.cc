// Performance of the beyond-the-paper extensions: distributed k-skyband
// and top-k ranking.

#include <string>

#include "algo/ranked.h"
#include "algo/skyband.h"
#include "bench_util.h"
#include "common/stopwatch.h"

namespace zsky::bench {
namespace {

void BenchSkyband() {
  std::printf("\n--- distributed k-skyband (n=100k, d=4) ---\n");
  std::printf("%6s %12s %12s %12s\n", "k", "band", "candidates",
              "sim-total");
  const PointSet points = MakeData(Distribution::kIndependent, 100'000, 4,
                                   73);
  ExecutorOptions options;
  options.num_groups = 16;
  options.bits = kBits;
  const ParallelSkylineExecutor executor(options);
  for (uint32_t k : {1u, 2u, 4u, 8u}) {
    QueryDesc desc;
    desc.k = k;
    const auto result = executor.Execute(points, desc);
    std::printf("%6u %12zu %12zu %12.1f\n", k, result.skyline.size(),
                result.metrics.candidates, result.metrics.sim_total_ms);
  }
}

void BenchTopK() {
  std::printf("\n--- top-k skyline ranking (n=100k, d=5) ---\n");
  std::printf("%-16s %12s %12s\n", "metric", "|skyline|", "ms");
  const PointSet points = MakeData(Distribution::kIndependent, 100'000, 5,
                                   74);
  for (SkylineRank rank :
       {SkylineRank::kScoreSum, SkylineRank::kDominanceCount}) {
    Stopwatch watch;
    const auto top = TopKSkyline(points, 10, rank);
    std::printf("%-16s %12zu %12.1f\n",
                std::string(SkylineRankName(rank)).c_str(), top.size(),
                watch.ElapsedMs());
  }
}

}  // namespace
}  // namespace zsky::bench

int main() {
  using namespace zsky::bench;
  PrintBanner("Extensions", "skyband / top-k", "wall time, single thread");
  BenchSkyband();
  BenchTopK();
  return 0;
}
