#ifndef ZSKY_ALGO_BNL_H_
#define ZSKY_ALGO_BNL_H_

#include "algo/skyline.h"
#include "common/point_set.h"

namespace zsky {

// Block-nested-loop skyline (Borzsony et al.): streams points against an
// in-memory window of current skyline candidates; a new point evicts window
// entries it dominates and is discarded if any window entry dominates it.
//
// This is the unsorted baseline the paper's SB strategy improves on. The
// window scans run on the structure-of-arrays block dominance kernel
// (DominanceBlock).
SkylineIndices BnlSkyline(const PointSet& points);

}  // namespace zsky

#endif  // ZSKY_ALGO_BNL_H_
