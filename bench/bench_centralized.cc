// Centralized skyline algorithms head-to-head: BNL, sort-based (SB),
// divide & conquer (D&C), BBS (R-tree) and Z-search (ZS).
//
// Supports the paper's Section 2 claim that Z-search is the
// state-of-the-art centralized algorithm (it is the local algorithm and
// merge building block of the distributed pipeline), and shows where each
// classic algorithm's regime ends as size/dimensionality grow.
//
// Each cell is the median of 5 runs (3 when a run exceeds 2 s), with the
// cell's min-max printed beside it: single runs of one binary spread up
// to ~2x per cell on a shared host.

#include <algorithm>
#include <functional>
#include <string>
#include <vector>

#include "algo/bnl.h"
#include "algo/dnc.h"
#include "algo/sort_based.h"
#include "bench_util.h"
#include "common/stopwatch.h"
#include "index/bbs.h"
#include "index/zsearch.h"

namespace zsky::bench {
namespace {

struct Algorithm {
  const char* label;
  std::function<SkylineIndices(const ZOrderCodec&, const PointSet&)> run;
};

const std::vector<Algorithm>& Algorithms() {
  static const std::vector<Algorithm> algorithms{
      {"bnl",
       [](const ZOrderCodec&, const PointSet& ps) { return BnlSkyline(ps); }},
      {"sb",
       [](const ZOrderCodec&, const PointSet& ps) {
         return SortBasedSkyline(ps);
       }},
      {"dnc",
       [](const ZOrderCodec&, const PointSet& ps) { return DncSkyline(ps); }},
      {"bbs",
       [](const ZOrderCodec& codec, const PointSet& ps) {
         return BbsSkyline(codec, ps);
       }},
      {"zs",
       [](const ZOrderCodec& codec, const PointSet& ps) {
         return ZSearchSkyline(codec, ps);
       }},
  };
  return algorithms;
}

// Median and range of one cell's wall times.
struct CellTime {
  double median_ms = 0.0;
  double min_ms = 0.0;
  double max_ms = 0.0;
};

CellTime TimeCell(const Algorithm& algorithm, const ZOrderCodec& codec,
                  const PointSet& points, size_t* skyline_size) {
  constexpr double kSlowRunMs = 2000.0;
  std::vector<double> runs;
  size_t reps = 5;
  while (runs.size() < reps) {
    Stopwatch watch;
    const SkylineIndices sky = algorithm.run(codec, points);
    runs.push_back(watch.ElapsedMs());
    *skyline_size = sky.size();
    if (runs.back() > kSlowRunMs) reps = 3;
  }
  std::sort(runs.begin(), runs.end());
  return {runs[runs.size() / 2], runs.front(), runs.back()};
}

void RunSweep(const char* table, const char* axis_name,
              Distribution distribution,
              const std::vector<std::pair<size_t, uint32_t>>& axis) {
  std::printf("\n--- %s: centralized skyline time (ms), %s sweep, %s ---\n",
              table, axis_name,
              std::string(DistributionName(distribution)).c_str());
  std::printf("%10s %10s", axis_name, "|skyline|");
  for (const auto& a : Algorithms()) std::printf(" %22s", a.label);
  std::printf("\n");
  std::string csv;
  for (const auto& [n, dim] : axis) {
    const PointSet points = MakeData(distribution, n, dim, 3 * n + dim);
    const ZOrderCodec codec(dim, kBits);
    const size_t axis_value =
        std::string_view(axis_name) == "n" ? n : static_cast<size_t>(dim);
    std::vector<CellTime> times;
    size_t skyline_size = 0;
    for (const auto& a : Algorithms()) {
      times.push_back(TimeCell(a, codec, points, &skyline_size));
      const CellTime& t = times.back();
      csv += "# CSV," + std::string(table) + "," +
             std::string(DistributionName(distribution)) + "," + a.label +
             "," + std::to_string(axis_value) + "," +
             std::to_string(t.median_ms) + "," + std::to_string(t.min_ms) +
             "," + std::to_string(t.max_ms) + "\n";
    }
    std::printf("%10zu %10zu", axis_value, skyline_size);
    for (const CellTime& t : times) {
      std::printf(" %8.1f (%5.1f-%5.1f)", t.median_ms, t.min_ms, t.max_ms);
    }
    std::printf("\n");
    std::fflush(stdout);
  }
  std::printf("%s", csv.c_str());
}

}  // namespace
}  // namespace zsky::bench

int main() {
  using namespace zsky::bench;
  using zsky::Distribution;
  PrintBanner("Centralized algorithms (Section 2 context)",
              "BNL vs SB vs D&C vs BBS vs Z-search",
              "single-threaded wall time, median (min-max) of 5 runs; "
              "sizes bounded so BNL stays runnable");
  const std::vector<std::pair<size_t, uint32_t>> sizes{
      {20'000, 5}, {50'000, 5}, {100'000, 5}, {200'000, 5}};
  RunSweep("central-n-indep", "n", Distribution::kIndependent, sizes);
  RunSweep("central-n-anti", "n", Distribution::kAnticorrelated, sizes);
  const std::vector<std::pair<size_t, uint32_t>> dims{
      {30'000, 2}, {30'000, 4}, {30'000, 6}, {30'000, 8}, {30'000, 10}};
  RunSweep("central-d-indep", "dim", Distribution::kIndependent, dims);
  return 0;
}
