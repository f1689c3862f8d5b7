#ifndef ZSKY_INDEX_ZBTREE_H_
#define ZSKY_INDEX_ZBTREE_H_

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/dominance_kernels.h"
#include "common/point_set.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// A ZB-tree (Lee et al. [5]): a balanced tree over points sorted by
// Z-address. Leaves store runs of points; every node carries a bounding
// box of the points it covers, enabling region-level dominance pruning
// (Lemma 1) instead of all-pairs point tests. As an optimization over the
// paper's prefix-derived RZ-regions, node bounds are the exact coordinate
// bounding boxes of the covered entries (sound and strictly tighter).
//
// Layout (docs/architecture.md "The skyline containers"): the geometry is
// implicit. Node i of level l covers slots [i * span_l, (i + 1) * span_l)
// with span_l = leaf_capacity * fanout^l (level 0 holds the leaves), so a
// node stores no ranges or child links: all node bounds live in one array
// of rows, a min and a max corner of BoundsLanes(dim) coordinates each,
// tested by the dispatched SIMD node-test kernel (common/
// dominance_kernels.h). Entries live twice, row-major for point() and as
// a column-major mirror for the SIMD leaf scans.
//
// A tree is built one of two ways:
//   - bulk: the constructor sorts the points by Z-address;
//   - append: an empty tree takes points already in non-decreasing
//     Z-order through Append(), extending one node per level. Z-search
//     keeps its skyline this way, since in Z-order an accepted point is
//     never removed.
// Deletions (Z-merge's UDominate step) are tombstones tracked by per-node
// alive counters; node bounds are not shrunk. `slot` indices below refer
// to Z-order.
class ZBTree {
 public:
  struct Options {
    // Maximum number of points per leaf.
    uint32_t leaf_capacity = 16;
    // Maximum number of children per internal node.
    uint32_t fanout = 8;
  };

  // Opaque reference to a tree node for traversal-based algorithms
  // (Z-search, Z-merge): node `index` of `level` (0 = leaves).
  struct NodeRef {
    uint32_t level;
    uint32_t index;
  };

  // Builds a tree over `points` (copied/gathered into the tree). `ids` are
  // caller-chosen identifiers parallel to `points` rows; if empty, row
  // indices 0..n-1 are used. Points need not be pre-sorted.
  //
  // `codec` must outlive the tree and match `points.dim()`.
  ZBTree(const ZOrderCodec* codec, const PointSet& points,
         std::vector<uint32_t> ids, const Options& options);

  ZBTree(const ZOrderCodec* codec, const PointSet& points,
         const Options& options)
      : ZBTree(codec, points, {}, options) {}

  ZBTree(const ZOrderCodec* codec, const PointSet& points)
      : ZBTree(codec, points, {}, Options()) {}

  // An empty tree to fill with Append().
  ZBTree(const ZOrderCodec* codec, const Options& options);

  explicit ZBTree(const ZOrderCodec* codec) : ZBTree(codec, Options()) {}

  ZBTree(const ZBTree&) = delete;
  ZBTree& operator=(const ZBTree&) = delete;
  ZBTree(ZBTree&&) = default;
  ZBTree& operator=(ZBTree&&) = default;

  const ZOrderCodec& codec() const { return *codec_; }
  const Options& options() const { return options_; }

  size_t size() const { return ids_.size(); }
  size_t alive_count() const { return alive_total_; }
  bool empty() const { return ids_.empty(); }

  // Bytes a tree holds per entry: both coordinate copies, the Z-words,
  // id and alive flag, and the entry's share of the node bounds.
  static size_t BytesPerEntry(uint32_t dim, size_t words_per_addr,
                              const Options& options);

  // Appends `p` with caller id `id` in the next slot. Points must arrive
  // in non-decreasing Z-order (checked in debug builds). An append extends
  // one node per level, adding a root level when the old root fills.
  void Append(std::span<const Coord> p, uint32_t id);

  // --- Entry (slot) accessors; slots are in Z-order. ---
  std::span<const Coord> point(size_t slot) const { return points_[slot]; }
  uint32_t id(size_t slot) const { return ids_[slot]; }
  bool alive(size_t slot) const { return alive_[slot] != 0; }
  std::span<const uint64_t> zwords(size_t slot) const {
    return {zwords_.data() + slot * words_per_addr_, words_per_addr_};
  }

  // --- Queries. ---

  // Queries consider only the slots before `slot_end`. A strict dominator
  // of the entry in slot s has a smaller Z-address, so slot_end = s tests s
  // against exactly the entries that can dominate it.
  static constexpr size_t kAllSlots = std::numeric_limits<size_t>::max();

  // True iff some alive entry strictly dominates `p`.
  bool ExistsDominatorOf(std::span<const Coord> p,
                         size_t slot_end = kAllSlots) const;

  // Number of alive entries strictly dominating `p`, counting stops at
  // `cap` (the k-skyband threshold test only needs "reached k?").
  size_t CountDominatorsOf(std::span<const Coord> p, size_t cap,
                           size_t slot_end = kAllSlots) const;

  // True iff some alive entry dominates the RZ-region whose min corner is
  // `region_min` (i.e., strictly dominates the corner; such an entry
  // dominates every possible point of the region).
  bool DominatesRegionMin(std::span<const Coord> region_min) const {
    return ExistsDominatorOf(region_min);
  }

  // Tombstones every alive entry strictly dominated by `p`; returns the
  // number of removals. This is Z-merge's UDominate step.
  size_t RemoveDominatedBy(std::span<const Coord> p);

  // Collects the alive entries, in Z-order, appending points to `points`
  // (dim must match) and ids to `ids`.
  void CollectAlive(PointSet& points, std::vector<uint32_t>& ids) const;

  // --- Structural traversal. ---
  bool has_root() const { return height_ > 0; }
  NodeRef root() const {
    ZSKY_DCHECK(has_root());
    return {height_ - 1, 0};
  }
  bool is_leaf(NodeRef n) const { return n.level == 0; }
  // Bounding box of the node's entries, dead ones included.
  std::span<const Coord> min_corner(NodeRef n) const {
    return {BoundsRow(n), codec_->dim()};
  }
  std::span<const Coord> max_corner(NodeRef n) const {
    return {BoundsRow(n) + lanes_, codec_->dim()};
  }
  uint32_t alive_in(NodeRef n) const { return node_alive_[Row(n)]; }
  // Children of an internal node: indices [begin, end) of level
  // n.level - 1, in Z-order.
  std::pair<uint32_t, uint32_t> child_range(NodeRef n) const;
  // Entry slot range [begin, end) covered by a node (leaf or internal).
  std::pair<size_t, size_t> entry_range(NodeRef n) const {
    const size_t begin = n.index * spans_[n.level];
    return {begin, std::min(size(), begin + spans_[n.level])};
  }

  // Height of the tree (leaf-only tree has height 1; empty tree 0).
  uint32_t height() const { return height_; }

 private:
  size_t Row(NodeRef n) const { return level_offset_[n.level] + n.index; }
  Coord* BoundsRow(NodeRef n) {
    return bounds_.data() + Row(n) * 2 * lanes_;
  }
  const Coord* BoundsRow(NodeRef n) const {
    return bounds_.data() + Row(n) * 2 * lanes_;
  }
  // Lays the node arrays out for `capacity` entries, keeping the nodes of
  // the current entries.
  void Layout(size_t capacity);
  // Grows every entry array and the node layout to `capacity` entries.
  void Grow(size_t capacity);
  uint32_t HeightFor(size_t entries) const;
  simd::BoundsTreeView View() const;

  size_t RemoveDominatedIn(NodeRef n, std::span<const Coord> p);
  size_t KillSubtree(NodeRef n);
  // Tombstones `slot` and poisons its mirror lanes to the all-max
  // coordinate, so leaf scans skip it without an alive-check (an all-max
  // point can never strictly dominate).
  void PoisonSlot(size_t slot);

  const ZOrderCodec* codec_;
  Options options_;
  size_t words_per_addr_;
  uint32_t lanes_;  // BoundsLanes(dim).

  PointSet points_;               // Entries' coordinates, Z-sorted.
  std::vector<uint32_t> ids_;     // Entries' caller ids, Z-sorted.
  std::vector<uint8_t> alive_;    // Tombstone flags per entry.
  std::vector<uint64_t> zwords_;  // Flat Z-address words, Z-sorted.
  // Column-major coordinate mirror: lane k of slot s is
  // soa_[k * capacity_ + s]. Tombstoned slots are poisoned to all-max.
  std::vector<Coord> soa_;
  size_t capacity_ = 0;
  size_t alive_total_ = 0;

  // Node arrays, root level first (see BoundsTreeView): level l starts at
  // row level_offset_[l] and has room for ceil(capacity_ / spans_[l])
  // nodes. bounds_ holds 2 * lanes_ coordinates per row.
  std::vector<Coord> bounds_;
  std::vector<uint32_t> node_alive_;
  std::vector<uint32_t> level_offset_;
  std::vector<size_t> spans_;  // Slots per node, per level.
  uint32_t height_ = 0;
};

}  // namespace zsky

#endif  // ZSKY_INDEX_ZBTREE_H_
