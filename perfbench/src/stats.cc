#include "stats.h"

#include <algorithm>
#include <stdexcept>

namespace perfbench {

namespace {

size_t NearestRank(size_t n, int percent) {
  const size_t rank = (static_cast<size_t>(percent) * n + 99) / 100;
  return std::clamp<size_t>(rank, 1, n);
}

}  // namespace

std::optional<double> Percentile(std::vector<double> samples, int percent) {
  if (percent <= 0 || percent >= 100) {
    throw std::invalid_argument("percentile outside (0, 100)");
  }
  const size_t n = samples.size();
  if (n == 0) return std::nullopt;
  const size_t rank = NearestRank(n, percent);
  if (n - rank < kMinSamplesBeyond) return std::nullopt;
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

size_t MinSamplesFor(int percent) {
  size_t n = 1;
  while (n - NearestRank(n, percent) < kMinSamplesBeyond) ++n;
  return n;
}

double Median(std::vector<double> samples) {
  if (samples.empty()) throw std::invalid_argument("median of nothing");
  const size_t rank = NearestRank(samples.size(), 50);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

}  // namespace perfbench
