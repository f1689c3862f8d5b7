#ifndef ZSKY_INDEX_ZBTREE_H_
#define ZSKY_INDEX_ZBTREE_H_

#include <cstdint>
#include <limits>
#include <span>
#include <utility>
#include <vector>

#include "common/point_set.h"
#include "zorder/rz_region.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// A ZB-tree (Lee et al. [5]): a balanced tree over points sorted by
// Z-address. Leaves store runs of points; every node carries a region
// bounding the points it covers, enabling region-level dominance pruning
// (Lemma 1) instead of all-pairs point tests. As an optimization over the
// paper's prefix-derived RZ-regions, node regions are the exact coordinate
// bounding boxes of the covered entries (sound and strictly tighter).
//
// The tree is bulk-built bottom-up and structurally immutable; deletions
// (needed by Z-merge's UDominate step) are tombstones tracked by per-node
// alive counters. Entries are stored in Z-order; `slot` indices below refer
// to that order.
class ZBTree {
 public:
  struct Options {
    // Maximum number of points per leaf.
    uint32_t leaf_capacity = 16;
    // Maximum number of children per internal node.
    uint32_t fanout = 8;
    // Scan leaves with the structure-of-arrays block dominance kernel
    // (dominance_block.h) instead of per-pair Dominates(). Costs one extra
    // coordinate mirror of the entries; identical query answers.
    bool block_leaf_scan = true;
  };

  // Opaque reference to a tree node for traversal-based algorithms
  // (Z-search, Z-merge).
  struct NodeRef {
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

  ZBTree(const ZBTree&) = delete;
  ZBTree& operator=(const ZBTree&) = delete;
  ZBTree(ZBTree&&) = default;
  ZBTree& operator=(ZBTree&&) = default;

  const ZOrderCodec& codec() const { return *codec_; }
  const Options& options() const { return options_; }

  size_t size() const { return ids_.size(); }
  size_t alive_count() const { return alive_total_; }
  bool empty() const { return ids_.empty(); }

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
  bool has_root() const { return !nodes_.empty(); }
  NodeRef root() const {
    ZSKY_DCHECK(has_root());
    return {static_cast<uint32_t>(nodes_.size() - 1)};
  }
  bool is_leaf(NodeRef n) const { return nodes_[n.index].child_end == 0; }
  const RZRegion& region(NodeRef n) const { return nodes_[n.index].region; }
  uint32_t alive_in(NodeRef n) const { return nodes_[n.index].alive; }
  // Children node indices [begin, end) of an internal node, in Z-order.
  std::pair<uint32_t, uint32_t> child_range(NodeRef n) const {
    const Node& node = nodes_[n.index];
    return {node.child_begin, node.child_end};
  }
  // Entry slot range [begin, end) covered by a node (leaf or internal).
  std::pair<size_t, size_t> entry_range(NodeRef n) const {
    const Node& node = nodes_[n.index];
    return {node.entry_begin, node.entry_end};
  }

  // Height of the tree (leaf-only tree has height 1; empty tree 0).
  uint32_t height() const { return height_; }

 private:
  struct Node {
    uint32_t entry_begin = 0;
    uint32_t entry_end = 0;
    // Children are nodes [child_begin, child_end); both 0 for leaves.
    uint32_t child_begin = 0;
    uint32_t child_end = 0;
    uint32_t alive = 0;
    RZRegion region;
  };

  bool ExistsDominatorIn(uint32_t node_index, std::span<const Coord> p,
                         size_t slot_end) const;
  void CountDominatorsIn(uint32_t node_index, std::span<const Coord> p,
                         size_t cap, size_t slot_end, size_t& count) const;
  size_t RemoveDominatedIn(uint32_t node_index, std::span<const Coord> p);
  size_t KillSubtree(uint32_t node_index);
  // Tombstones `slot` and, when the SoA mirror exists, poisons its lanes to
  // the all-max coordinate so block leaf scans skip it without an
  // alive-check (an all-max point can never strictly dominate).
  void PoisonSlot(size_t slot);

  const ZOrderCodec* codec_;
  Options options_;
  size_t words_per_addr_;

  PointSet points_;               // Entries' coordinates, Z-sorted.
  std::vector<uint32_t> ids_;     // Entries' caller ids, Z-sorted.
  std::vector<uint8_t> alive_;    // Tombstone flags per entry.
  std::vector<uint64_t> zwords_;  // Flat Z-address words, Z-sorted.
  // Column-major coordinate mirror for block leaf scans (empty when
  // Options::block_leaf_scan is off): lane k is soa_[k*n .. k*n+n).
  // Tombstoned slots are poisoned to the all-max coordinate.
  std::vector<Coord> soa_;
  size_t alive_total_ = 0;

  std::vector<Node> nodes_;  // Leaves first, then upper levels; root last.
  uint32_t height_ = 0;
};

}  // namespace zsky

#endif  // ZSKY_INDEX_ZBTREE_H_
