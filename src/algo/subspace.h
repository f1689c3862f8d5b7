#ifndef ZSKY_ALGO_SUBSPACE_H_
#define ZSKY_ALGO_SUBSPACE_H_

#include <span>

#include "common/point_set.h"

namespace zsky {

// Projection onto a dimension subset, the transform behind subspace and
// flipped query variants (common/query_desc.h). Only the dimensions in
// `dims` count for dominance in the projected space; `dims` must be
// non-empty, unique, and within the source dimensionality.

// Projects one row onto `dims`, optionally flipping directions:
// out[j] = flip[j] ? max_coord - p[dims[j]] : p[dims[j]]. The flip turns a
// larger-is-better dimension back into the library's minimization
// convention, so dominance (and Z-order monotonicity) hold unchanged in
// the projected space. `flip` may be empty (no flips); otherwise it is
// parallel to `dims`. `out` must have dims.size() entries.
//
// This is THE projection loop: the query-variant plan build
// (core/query_plan.cc), the pipeline's mapper transform, the delta
// overlay and the oracle all call it, allocation-free.
inline void ProjectRowInto(std::span<const Coord> p,
                           std::span<const uint32_t> dims,
                           std::span<const uint8_t> flip, Coord max_coord,
                           std::span<Coord> out) {
  if (flip.empty()) {
    for (size_t j = 0; j < dims.size(); ++j) out[j] = p[dims[j]];
    return;
  }
  for (size_t j = 0; j < dims.size(); ++j) {
    const Coord c = p[dims[j]];
    out[j] = flip[j] != 0 ? max_coord - c : c;
  }
}

// Whole-set projection for callers holding scratch: clears `out` (whose
// dim() must equal dims.size()) and fills it with the projected — and
// optionally direction-flipped — rows of `points`, preserving row order.
// Reuses `out`'s capacity across calls.
void ProjectDimsInto(const PointSet& points, std::span<const uint32_t> dims,
                     std::span<const uint8_t> flip, Coord max_coord,
                     PointSet& out);

}  // namespace zsky

#endif  // ZSKY_ALGO_SUBSPACE_H_
