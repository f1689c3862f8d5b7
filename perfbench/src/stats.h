#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <cstddef>
#include <optional>
#include <vector>

namespace perfbench {

// A latency percentile is reported only when at least this many samples
// of the operation lie beyond it in one run; with fewer, one stall moves
// the figure.
inline constexpr size_t kMinSamplesBeyond = 10;

// Nearest-rank `percent`-th percentile (0 < percent < 100): the sample of
// rank ceil(percent * n / 100) in ascending order. Returns nullopt when
// fewer than kMinSamplesBeyond samples rank above it.
std::optional<double> Percentile(std::vector<double> samples, int percent);

// Smallest sample count for which Percentile(samples, percent) reports.
size_t MinSamplesFor(int percent);

// Middle sample (the lower one for an even count) with no sample-count
// rule: for set-up repetitions, which are too costly to run 20 times.
// Requires a non-empty input.
double Median(std::vector<double> samples);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
