// Figure 8 (merge efficiency): time of the final candidate-merging phase
// (MR job 2) for Z-merge (ZM) vs re-running Z-search (ZS) vs sort-based
// BNL (SB) over the same ZDG candidates, varying (a, b) data size and
// (c, d) dimensionality. The PP column is our parallel prefix probe.
//
// Paper behaviour to reproduce:
//  - ZM is always fastest; more than 10x faster than SB;
//  - SB's merge time grows quadratically with size and dimensionality;
//  - ZM grows smoothly with dimensionality (index merge, not re-search).
//
// A last sweep (fig8e) times job 2 on the wall clock, PP against ZM at the
// default 8 groups over 2-16d: the prefix probe must not be slower
// anywhere.

#include <algorithm>
#include <string>
#include <vector>

#include "bench_util.h"

namespace zsky::bench {
namespace {

constexpr uint32_t kGroups = 32;

void RunSweep(const char* figure, const char* axis_name,
              Distribution distribution,
              const std::vector<std::pair<size_t, uint32_t>>& axis) {
  const std::vector<std::pair<const char*, MergeAlgorithm>> merges{
      {"zdg+zm", MergeAlgorithm::kZMerge},
      {"zdg+pp", MergeAlgorithm::kPrefixProbe},  // Our extension.
      {"zdg+zs", MergeAlgorithm::kZSearch},
      {"zdg+sb", MergeAlgorithm::kSortBased},
  };
  std::printf("\n--- %s: merge-phase time (ms), %s sweep, %s ---\n", figure,
              axis_name, std::string(DistributionName(distribution)).c_str());
  std::printf("%10s %10s", axis_name, "candidates");
  for (const auto& [label, merge] : merges) std::printf(" %10s", label);
  std::printf("\n");
  std::string csv;
  for (const auto& [n, dim] : axis) {
    const PointSet points = MakeData(distribution, n, dim, 31 * n + dim);
    const size_t axis_value =
        std::string_view(axis_name) == "n" ? n : static_cast<size_t>(dim);
    size_t candidates = 0;
    std::vector<double> times;
    for (const auto& [label, merge] : merges) {
      Strategy s{label, PartitioningScheme::kZdg, LocalAlgorithm::kZSearch,
                 merge};
      const auto result =
          ParallelSkylineExecutor(MakeOptions(s, kGroups)).Execute(points);
      candidates = result.metrics.candidates;
      times.push_back(result.metrics.sim_job2_ms);
      csv += "# CSV," + std::string(figure) + "," +
             std::string(DistributionName(distribution)) + "," + label + "," +
             std::to_string(axis_value) + "," +
             std::to_string(result.metrics.sim_job2_ms) + "\n";
    }
    std::printf("%10zu %10zu", axis_value, candidates);
    for (double t : times) std::printf(" %10.1f", t);
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("%s", csv.c_str());
}

// Wall-clock job 2 (median of kReps alternating runs) of the prefix probe
// against Z-merge over the same candidates, across dimensionalities.
void RunWallSweep(Distribution distribution, size_t n,
                  const std::vector<uint32_t>& dims) {
  constexpr int kReps = 3;
  const std::pair<const char*, MergeAlgorithm> merges[] = {
      {"zm", MergeAlgorithm::kZMerge}, {"pp", MergeAlgorithm::kPrefixProbe}};
  std::printf("\n--- fig8e: wall-clock job 2 (ms), n=%zu, %s ---\n", n,
              std::string(DistributionName(distribution)).c_str());
  std::printf("%10s %10s %10s %10s %10s\n", "dim", "candidates", "zm", "pp",
              "zm/pp");
  std::string csv;
  for (uint32_t dim : dims) {
    const PointSet points = MakeData(distribution, n, dim, 31 * n + dim);
    std::vector<double> ms[2];
    size_t candidates = 0;
    for (int rep = 0; rep < kReps; ++rep) {
      for (int m = 0; m < 2; ++m) {
        ExecutorOptions options;
        options.merge = merges[m].second;
        options.bits = kBits;
        const auto result = ParallelSkylineExecutor(options).Execute(points);
        candidates = result.metrics.candidates;
        ms[m].push_back(result.metrics.job2_ms);
      }
    }
    double median[2];
    for (int m = 0; m < 2; ++m) {
      std::sort(ms[m].begin(), ms[m].end());
      median[m] = ms[m][kReps / 2];
      csv += "# CSV,fig8e," + std::string(DistributionName(distribution)) +
             "," + merges[m].first + "," + std::to_string(dim) + "," +
             std::to_string(median[m]) + "\n";
    }
    std::printf("%10u %10zu %10.1f %10.1f %10.2f\n", dim, candidates,
                median[0], median[1], median[0] / median[1]);
    std::fflush(stdout);
  }
  std::printf("%s", csv.c_str());
}

}  // namespace
}  // namespace zsky::bench

int main() {
  using namespace zsky::bench;
  using zsky::Distribution;
  PrintBanner("Figure 8", "candidate-merging time: ZM vs PP vs ZS vs SB",
              "paper: 20M-110M points; here: 40k-200k points (d sweeps at "
              "40k), simulated-cluster milliseconds");
  const std::vector<std::pair<size_t, uint32_t>> sizes{
      {40'000, 5}, {80'000, 5}, {120'000, 5}, {160'000, 5}, {200'000, 5}};
  RunSweep("fig8a", "n", Distribution::kIndependent, sizes);
  RunSweep("fig8b", "n", Distribution::kAnticorrelated, sizes);
  const std::vector<std::pair<size_t, uint32_t>> dims{
      {40'000, 4}, {40'000, 5}, {40'000, 6}, {40'000, 8}, {40'000, 10}};
  RunSweep("fig8c", "dim", Distribution::kIndependent, dims);
  RunSweep("fig8d", "dim", Distribution::kAnticorrelated, dims);
  const std::vector<uint32_t> wall_dims{2, 4, 6, 8, 12, 16};
  RunWallSweep(Distribution::kIndependent, 200'000, wall_dims);
  RunWallSweep(Distribution::kAnticorrelated, 200'000, wall_dims);
  return 0;
}
