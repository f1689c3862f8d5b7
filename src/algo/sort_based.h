#ifndef ZSKY_ALGO_SORT_BASED_H_
#define ZSKY_ALGO_SORT_BASED_H_

#include "algo/skyline.h"
#include "common/point_set.h"

namespace zsky {

// Sort-based skyline ("SB" in the paper; sort-filter-skyline style):
// sorts points by a monotone score (coordinate sum) so that a point can
// only be dominated by points appearing earlier, then does a single
// BNL-style pass in which window entries are never evicted.
//
// If p dominates q then sum(p) < sum(q), so after sorting ascending by sum
// every dominator of a point precedes it, and nothing a point dominates
// can already be in the window. The window scan runs on the
// structure-of-arrays block dominance kernel (DominanceBlock).
SkylineIndices SortBasedSkyline(const PointSet& points);

}  // namespace zsky

#endif  // ZSKY_ALGO_SORT_BASED_H_
