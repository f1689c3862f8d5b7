#include "algo/bnl.h"

#include <algorithm>

#include "common/dominance_block.h"

namespace zsky {

SkylineIndices BnlSkyline(const PointSet& points) {
  // Single-pass BNL (with unbounded memory, our case), the window mirrored
  // in a structure-of-arrays block. The window is mutually non-dominating,
  // so if some entry dominates p then (by transitivity) p dominates no
  // entry — testing AnyDominates first and only then evicting what p
  // dominates keeps the window exactly as the per-pair pass would.
  SkylineIndices window;
  DominanceBlock block(points.dim());
  std::vector<uint8_t> dominated_flags;
  const size_t n = points.size();
  for (size_t i = 0; i < n; ++i) {
    const auto p = points[i];
    if (block.AnyDominates(p)) continue;
    if (block.DominatedBitmap(p, dominated_flags) > 0) {
      block.Remove(dominated_flags);
      size_t kept = 0;
      for (size_t w = 0; w < window.size(); ++w) {
        if (!dominated_flags[w]) window[kept++] = window[w];
      }
      window.resize(kept);
    }
    block.Append(p);
    window.push_back(static_cast<uint32_t>(i));
  }
  SortSkyline(window);
  return window;
}

}  // namespace zsky
