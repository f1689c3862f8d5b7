// Performance of the beyond-the-paper extensions: streaming maintenance,
// sliding-window skylines, distributed k-skyband, and top-k ranking.

#include <string>

#include "algo/ranked.h"
#include "algo/skyband.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "core/streaming.h"
#include "core/windowed_skyline.h"

namespace zsky::bench {
namespace {

void BenchStreaming() {
  std::printf("\n--- streaming skyline maintenance (insert throughput) ---\n");
  std::printf("%-16s %10s %12s %12s %12s\n", "distribution", "n",
              "frontier", "ms", "points/ms");
  for (auto dist : {Distribution::kCorrelated, Distribution::kIndependent,
                    Distribution::kAnticorrelated}) {
    const size_t n = 200'000;
    const PointSet stream = MakeData(dist, n, 4, 71);
    const ZOrderCodec codec(4, kBits);
    StreamingSkyline sky(&codec);
    Stopwatch watch;
    for (size_t i = 0; i < stream.size(); ++i) {
      sky.Insert(stream[i], static_cast<uint32_t>(i));
    }
    const double ms = watch.ElapsedMs();
    std::printf("%-16s %10zu %12zu %12.1f %12.0f\n",
                std::string(DistributionName(dist)).c_str(), n, sky.size(),
                ms, n / ms);
  }
}

void BenchWindowed() {
  std::printf("\n--- sliding-window skyline (window=10k) ---\n");
  std::printf("%-16s %10s %12s %12s %12s\n", "distribution", "n",
              "critical", "ms", "points/ms");
  for (auto dist : {Distribution::kCorrelated, Distribution::kIndependent}) {
    const size_t n = 200'000;
    const PointSet stream = MakeData(dist, n, 4, 72);
    WindowedSkyline sky(4, 10'000);
    Stopwatch watch;
    for (size_t i = 0; i < stream.size(); ++i) {
      sky.Insert(stream[i], static_cast<uint32_t>(i));
    }
    const double ms = watch.ElapsedMs();
    std::printf("%-16s %10zu %12zu %12.1f %12.0f\n",
                std::string(DistributionName(dist)).c_str(), n,
                sky.critical_size(), ms, n / ms);
  }
}

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
  PrintBanner("Extensions", "streaming / windowed / skyband / top-k",
              "wall time, single thread");
  BenchStreaming();
  BenchWindowed();
  BenchSkyband();
  BenchTopK();
  return 0;
}
