#ifndef ZSKY_INDEX_ZSEARCH_H_
#define ZSKY_INDEX_ZSEARCH_H_

#include "algo/skyline.h"
#include "common/point_set.h"
#include "index/zbtree.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// Counters exposed by Z-search for ablation benchmarks.
struct ZSearchStats {
  size_t nodes_visited = 0;
  size_t nodes_pruned = 0;   // Subtrees discarded by region dominance.
  size_t points_tested = 0;  // Leaf points tested against the skyline.
};

// Z-search (Lee et al. [5]), the state-of-the-art centralized skyline
// algorithm: bulk-build a ZB-tree over the input, then traverse it in
// Z-order. Because Z-order is monotone w.r.t. dominance, a visited point
// can never be dominated by a later one, so the skyline set only grows
// (an append-mode ZB-tree); whole subtrees whose bounds are dominated by
// the current skyline are skipped without inspecting their points.
//
// Returns skyline row indices into `points`, ascending.
SkylineIndices ZSearchSkyline(const ZOrderCodec& codec, const PointSet& points,
                              const ZBTree::Options& options = {},
                              ZSearchStats* stats = nullptr);

// Z-order k-skyband: the points dominated by fewer than `k` others.
// Visits the points in Z-order, so all potential dominators of a point
// precede it, and counts each point's dominators against the kept band
// (an append-mode ZB-tree), dropping points whose count reaches k. Exact;
// equals NaiveSkyband (algo/skyband.h). Returns row indices, ascending.
SkylineIndices ZOrderSkyband(const ZOrderCodec& codec, const PointSet& points,
                             uint32_t k);

}  // namespace zsky

#endif  // ZSKY_INDEX_ZSEARCH_H_
