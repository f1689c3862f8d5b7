#include "algo/skyband.h"

#include "common/dominance.h"

namespace zsky {

SkylineIndices NaiveSkyband(const PointSet& points, uint32_t k) {
  ZSKY_CHECK(k >= 1);
  SkylineIndices result;
  const size_t n = points.size();
  for (size_t i = 0; i < n; ++i) {
    uint32_t dominators = 0;
    for (size_t j = 0; j < n && dominators < k; ++j) {
      if (j != i && Dominates(points[j], points[i])) ++dominators;
    }
    if (dominators < k) result.push_back(static_cast<uint32_t>(i));
  }
  return result;
}

}  // namespace zsky
