#include "oracle.h"

#include <algorithm>
#include <numeric>
#include <thread>

namespace perfbench {

bool Dominates(const Coord* a, const Coord* b, uint32_t dim) {
  bool strict = false;
  for (uint32_t d = 0; d < dim; ++d) {
    if (a[d] > b[d]) return false;
    strict |= a[d] < b[d];
  }
  return strict;
}

std::vector<uint32_t> ReferenceSkyline(const Coord* rows, size_t n,
                                       uint32_t dim, const uint8_t* alive,
                                       unsigned threads) {
  std::vector<uint64_t> sums(n, 0);
  std::vector<uint32_t> order;
  order.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    if (alive != nullptr && alive[i] == 0) continue;
    for (uint32_t d = 0; d < dim; ++d) sums[i] += rows[i * dim + d];
    order.push_back(static_cast<uint32_t>(i));
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return sums[a] != sums[b] ? sums[a] < sums[b] : a < b;
  });

  // Window of skyline rows found so far, copied contiguously.
  std::vector<Coord> window;
  std::vector<uint32_t> skyline;
  const auto dominated_by_window = [&](uint32_t row, size_t window_rows) {
    const Coord* p = rows + static_cast<size_t>(row) * dim;
    for (size_t w = 0; w < window_rows; ++w) {
      if (Dominates(window.data() + w * dim, p, dim)) return true;
    }
    return false;
  };

  constexpr size_t kBlock = 2048;
  threads = std::max(1u, threads);
  std::vector<uint8_t> dominated(kBlock);
  for (size_t begin = 0; begin < order.size(); begin += kBlock) {
    const size_t count = std::min(kBlock, order.size() - begin);
    const size_t window_rows = skyline.size();
    // Each block member against the window as it stood before the block.
    const auto test_range = [&](size_t from, size_t to) {
      for (size_t i = from; i < to; ++i) {
        dominated[i] = dominated_by_window(order[begin + i], window_rows);
      }
    };
    std::vector<std::thread> workers;
    const size_t step = (count + threads - 1) / threads;
    for (size_t from = step; from < count; from += step) {
      workers.emplace_back(test_range, from, std::min(count, from + step));
    }
    test_range(0, std::min(count, step));
    for (std::thread& t : workers) t.join();
    // Then against the block's own earlier survivors, in sum order.
    for (size_t i = 0; i < count; ++i) {
      if (dominated[i]) continue;
      const uint32_t row = order[begin + i];
      const Coord* p = rows + static_cast<size_t>(row) * dim;
      bool hit = false;
      for (size_t w = window_rows; w < skyline.size() && !hit; ++w) {
        hit = Dominates(window.data() + w * dim, p, dim);
      }
      if (hit) continue;
      window.insert(window.end(), p, p + dim);
      skyline.push_back(row);
    }
  }
  std::sort(skyline.begin(), skyline.end());
  return skyline;
}

}  // namespace perfbench
