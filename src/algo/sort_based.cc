#include "algo/sort_based.h"

#include <algorithm>
#include <numeric>

#include "common/dominance_block.h"

namespace zsky {

SkylineIndices SortBasedSkyline(const PointSet& points) {
  const size_t n = points.size();
  std::vector<uint32_t> order(n);
  std::iota(order.begin(), order.end(), 0u);

  std::vector<uint64_t> score(n, 0);
  for (size_t i = 0; i < n; ++i) {
    const auto p = points[i];
    uint64_t s = 0;
    for (Coord c : p) s += c;
    score[i] = s;
  }
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return score[a] != score[b] ? score[a] < score[b] : a < b;
  });

  // Window entries never get evicted (sorted order guarantees no later
  // point dominates an earlier one), so the block only ever grows.
  SkylineIndices skyline;
  DominanceBlock window(points.dim());
  for (uint32_t idx : order) {
    const auto p = points[idx];
    if (!window.AnyDominates(p)) {
      window.Append(p);
      skyline.push_back(idx);
    }
  }
  SortSkyline(skyline);
  return skyline;
}

}  // namespace zsky
