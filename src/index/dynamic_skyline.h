#ifndef ZSKY_INDEX_DYNAMIC_SKYLINE_H_
#define ZSKY_INDEX_DYNAMIC_SKYLINE_H_

#include <memory>
#include <optional>
#include <vector>

#include "common/point_set.h"
#include "index/zbtree.h"
#include "zorder/rz_region.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// A growable skyline container backed by a logarithmic collection of
// ZB-trees (plus a small insertion buffer), in the spirit of Z-search's
// incrementally maintained skyline ZB-tree. Where points only arrive in
// Z-order and are never removed (Z-search, the k-way Z-merge), an
// append-mode ZBTree is simpler and faster; this container serves
// removals and out-of-order appends.
//
// Supports the three operations skyline algorithms need:
//   - ExistsDominatorOf(p): is p dominated by the current set?
//   - Append(p, id):        add a new skyline point.
//   - RemoveDominatedBy(p): evict set members p dominates (Z-merge's
//                           UDominate).
//
// Appends land in the buffer; when the buffer fills, it is merged with the
// smaller trees into a freshly bulk-built ZB-tree, keeping tree sizes
// roughly geometric so queries touch O(log n) trees. Trees whose tombstone
// fraction exceeds 1/2 are compacted.
class DynamicSkyline {
 public:
  // `codec` must outlive the container.
  explicit DynamicSkyline(const ZOrderCodec* codec,
                          const ZBTree::Options& options = ZBTree::Options());

  DynamicSkyline(const DynamicSkyline&) = delete;
  DynamicSkyline& operator=(const DynamicSkyline&) = delete;
  DynamicSkyline(DynamicSkyline&&) = default;
  DynamicSkyline& operator=(DynamicSkyline&&) = default;

  const ZOrderCodec& codec() const { return *codec_; }

  size_t size() const { return alive_total_; }
  bool empty() const { return alive_total_ == 0; }

  // True iff some member strictly dominates `p`.
  bool ExistsDominatorOf(std::span<const Coord> p) const;

  // Adds `p` with caller id `id`. The caller guarantees `p` is not
  // dominated by the current contents (call ExistsDominatorOf first).
  void Append(std::span<const Coord> p, uint32_t id);

  // Bulk-appends `points` (a dominance-free set not dominated by current
  // contents, e.g. an incomparable subtree from Z-merge).
  void AppendAll(const PointSet& points, std::span<const uint32_t> ids);

  // Removes every member strictly dominated by `p`; returns removal count.
  size_t RemoveDominatedBy(std::span<const Coord> p);

  // Bounding RZ-region of the current contents (nullopt when empty). Used
  // by Z-merge's whole-tree incomparability shortcut.
  std::optional<RZRegion> BoundingRegion() const;

  // Exports the alive members: appends coordinates to `points` (dim must
  // match) and ids to `ids`. Order is unspecified.
  void Export(PointSet& points, std::vector<uint32_t>& ids) const;

  // Number of backing trees (exposed for tests/ablation).
  size_t tree_count() const { return trees_.size(); }

 private:
  void FlushBuffer();
  void MaybeCompact(size_t tree_index);

  const ZOrderCodec* codec_;
  ZBTree::Options options_;

  static constexpr size_t kBufferLimit = 64;
  PointSet buffer_points_;
  std::vector<uint32_t> buffer_ids_;
  std::vector<uint8_t> buffer_alive_;
  size_t buffer_alive_count_ = 0;

  std::vector<std::unique_ptr<ZBTree>> trees_;  // Sorted by size descending.
  size_t alive_total_ = 0;
};

}  // namespace zsky

#endif  // ZSKY_INDEX_DYNAMIC_SKYLINE_H_
