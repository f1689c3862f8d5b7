#ifndef ZSKY_CORE_STREAMING_H_
#define ZSKY_CORE_STREAMING_H_

#include <cstdint>

#include "algo/skyline.h"
#include "common/point_set.h"
#include "index/dynamic_skyline.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// Incrementally maintained skyline over a stream of insertions — the
// online counterpart of the batch pipeline, built on the same
// DynamicSkyline index that backs the pairwise Z-merge.
//
// Per insertion: one dominance query (reject if dominated), then an
// eviction pass removing members the new point dominates. Both are
// region-pruned ZB-tree operations, so throughput stays high even with
// large skylines.
class StreamingSkyline {
 public:
  // `codec` must outlive the object and match the points' dimensionality.
  explicit StreamingSkyline(const ZOrderCodec* codec,
                            const ZBTree::Options& options = ZBTree::Options());

  const ZOrderCodec& codec() const { return sky_.codec(); }

  // Offers a point to the skyline. Returns true iff the point enters (it
  // is not dominated by a current member). Evicted members are counted in
  // evicted_total(). `id` is the caller's identifier for the point.
  bool Insert(std::span<const Coord> p, uint32_t id);

  // Current skyline size.
  size_t size() const { return sky_.size(); }

  // Points offered so far.
  size_t seen_total() const { return seen_; }
  // Offers rejected because a member dominated them.
  size_t rejected_total() const { return rejected_; }
  // Members evicted by later insertions.
  size_t evicted_total() const { return evicted_; }

  // Snapshot of the current skyline: ids (ascending) and, optionally, the
  // matching coordinates appended to `points`.
  SkylineIndices CurrentIds() const;
  void Snapshot(PointSet& points, std::vector<uint32_t>& ids) const;

 private:
  DynamicSkyline sky_;
  size_t seen_ = 0;
  size_t rejected_ = 0;
  size_t evicted_ = 0;
};

}  // namespace zsky

#endif  // ZSKY_CORE_STREAMING_H_
