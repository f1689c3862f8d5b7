#ifndef ZSKY_ALGO_SKYBAND_H_
#define ZSKY_ALGO_SKYBAND_H_

#include "algo/skyline.h"
#include "common/point_set.h"

namespace zsky {

// k-skyband: the points dominated by fewer than `k` other points. The
// 1-skyband is exactly the skyline; growing k thickens the band toward the
// interior. A common skyline extension (and the paper's natural follow-up
// for preference queries that need more than |skyline| answers).
//
// Reference implementation: O(n^2) dominance counting with early exit at
// count k. For tests and small inputs. The fast Z-order skyband,
// ZOrderSkyband, runs on the ZB-tree and lives with Z-search
// (index/zsearch.h).
SkylineIndices NaiveSkyband(const PointSet& points, uint32_t k);

}  // namespace zsky

#endif  // ZSKY_ALGO_SKYBAND_H_
