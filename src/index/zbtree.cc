#include "index/zbtree.h"

#include <algorithm>
#include <limits>
#include <numeric>

#include "common/dominance.h"
#include "common/dominance_block.h"

namespace zsky {

namespace {

// Lexicographic compare of two flat big-endian word spans.
bool ZWordsLess(const uint64_t* a, const uint64_t* b, size_t words) {
  for (size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

ZBTree::ZBTree(const ZOrderCodec* codec, const PointSet& points,
               std::vector<uint32_t> ids, const Options& options)
    : codec_(codec),
      options_(options),
      words_per_addr_(codec->num_words()),
      points_(points.dim()) {
  ZSKY_CHECK(codec != nullptr);
  ZSKY_CHECK(points.dim() == codec->dim());
  ZSKY_CHECK(options.leaf_capacity >= 1 && options.fanout >= 2);
  const size_t n = points.size();
  ZSKY_CHECK(ids.empty() || ids.size() == n);

  if (n == 0) return;

  // Encode all points, then sort a permutation by Z-address.
  std::vector<uint64_t> raw_words(n * words_per_addr_, 0);
  for (size_t i = 0; i < n; ++i) {
    codec_->EncodeTo(points[i],
                     {raw_words.data() + i * words_per_addr_,
                      words_per_addr_});
  }
  std::vector<uint32_t> perm(n);
  std::iota(perm.begin(), perm.end(), 0u);
  std::sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
    return ZWordsLess(raw_words.data() + a * words_per_addr_,
                      raw_words.data() + b * words_per_addr_,
                      words_per_addr_);
  });

  // Materialize entries in Z-order.
  points_.Reserve(n);
  ids_.reserve(n);
  zwords_.resize(n * words_per_addr_);
  for (size_t slot = 0; slot < n; ++slot) {
    const uint32_t src = perm[slot];
    points_.AppendFrom(points, src);
    ids_.push_back(ids.empty() ? src : ids[src]);
    std::copy_n(raw_words.begin() + src * words_per_addr_, words_per_addr_,
                zwords_.begin() + slot * words_per_addr_);
  }
  alive_.assign(n, 1);
  alive_total_ = n;
  if (options_.block_leaf_scan) {
    soa_.resize(n * static_cast<size_t>(codec_->dim()));
    for (size_t slot = 0; slot < n; ++slot) {
      const auto p = points_[slot];
      for (uint32_t k = 0; k < codec_->dim(); ++k) {
        soa_[k * n + slot] = p[k];
      }
    }
  }

  // Build leaves, then upper levels with fanout `options_.fanout`.
  //
  // Node regions are the exact coordinate bounding boxes of the covered
  // entries — a strictly tighter (still sound) variant of the prefix-
  // derived RZ-region, which can span most of the space at high
  // dimensionality and would cripple region-level pruning.
  auto region_of = [&](size_t begin, size_t end) {
    std::vector<Coord> lo(points_[begin].begin(), points_[begin].end());
    std::vector<Coord> hi = lo;
    for (size_t slot = begin + 1; slot < end; ++slot) {
      const auto p = points_[slot];
      for (uint32_t k = 0; k < codec_->dim(); ++k) {
        lo[k] = std::min(lo[k], p[k]);
        hi[k] = std::max(hi[k], p[k]);
      }
    }
    return RZRegion(std::move(lo), std::move(hi));
  };

  const size_t num_leaves = (n + options_.leaf_capacity - 1) /
                            options_.leaf_capacity;
  nodes_.reserve(num_leaves * 2 + 2);
  for (size_t l = 0; l < num_leaves; ++l) {
    const size_t begin = l * options_.leaf_capacity;
    const size_t end = std::min(n, begin + options_.leaf_capacity);
    Node node{static_cast<uint32_t>(begin), static_cast<uint32_t>(end), 0, 0,
              static_cast<uint32_t>(end - begin), region_of(begin, end)};
    nodes_.push_back(std::move(node));
  }
  height_ = 1;

  size_t level_begin = 0;
  size_t level_end = nodes_.size();
  while (level_end - level_begin > 1) {
    const size_t level_size = level_end - level_begin;
    const size_t parents = (level_size + options_.fanout - 1) /
                           options_.fanout;
    for (size_t p = 0; p < parents; ++p) {
      const size_t cb = level_begin + p * options_.fanout;
      const size_t ce = std::min(level_end, cb + options_.fanout);
      uint32_t alive = 0;
      RZRegion region = nodes_[cb].region;
      for (size_t c = cb; c < ce; ++c) {
        alive += nodes_[c].alive;
        region.ExtendToCover(nodes_[c].region);
      }
      const uint32_t entry_begin = nodes_[cb].entry_begin;
      const uint32_t entry_end = nodes_[ce - 1].entry_end;
      Node node{entry_begin, entry_end, static_cast<uint32_t>(cb),
                static_cast<uint32_t>(ce), alive, std::move(region)};
      nodes_.push_back(std::move(node));
    }
    level_begin = level_end;
    level_end = nodes_.size();
    ++height_;
  }
}

bool ZBTree::ExistsDominatorOf(std::span<const Coord> p,
                               size_t slot_end) const {
  if (nodes_.empty() || alive_total_ == 0 || slot_end == 0) return false;
  return ExistsDominatorIn(root().index, p, slot_end);
}

bool ZBTree::ExistsDominatorIn(uint32_t node_index, std::span<const Coord> p,
                               size_t slot_end) const {
  const Node& node = nodes_[node_index];
  if (node.alive == 0) return false;
  const RZRegion& region = node.region;
  if (!region.MayDominatePoint(p)) return false;
  // If even the region's max corner dominates p, every entry in the
  // subtree does; only a subtree wholly before slot_end may answer so.
  if (node.entry_end <= slot_end && Dominates(region.max_corner(), p)) {
    return true;
  }
  if (node.child_end == 0) {
    const size_t end = std::min<size_t>(node.entry_end, slot_end);
    if (!soa_.empty()) {
      // Poisoned (dead) slots are all-max and can never strictly dominate,
      // so the block scan needs no alive-check.
      return SoAAnyDominates(soa_.data(), ids_.size(), codec_->dim(),
                             node.entry_begin, end, p);
    }
    for (size_t slot = node.entry_begin; slot < end; ++slot) {
      if (alive_[slot] && Dominates(points_[slot], p)) return true;
    }
    return false;
  }
  // Children are in slot order: stop at the first one past slot_end.
  for (uint32_t c = node.child_begin;
       c < node.child_end && nodes_[c].entry_begin < slot_end; ++c) {
    if (ExistsDominatorIn(c, p, slot_end)) return true;
  }
  return false;
}

size_t ZBTree::CountDominatorsOf(std::span<const Coord> p, size_t cap,
                                 size_t slot_end) const {
  size_t count = 0;
  if (!nodes_.empty() && alive_total_ > 0 && cap > 0 && slot_end > 0) {
    CountDominatorsIn(root().index, p, cap, slot_end, count);
  }
  return count;
}

void ZBTree::CountDominatorsIn(uint32_t node_index, std::span<const Coord> p,
                               size_t cap, size_t slot_end,
                               size_t& count) const {
  if (count >= cap) return;
  const Node& node = nodes_[node_index];
  if (node.alive == 0) return;
  const RZRegion& region = node.region;
  if (!region.MayDominatePoint(p)) return;
  if (node.entry_end <= slot_end && Dominates(region.max_corner(), p)) {
    // Every alive entry below dominates p.
    count = std::min(cap, count + node.alive);
    return;
  }
  if (node.child_end == 0) {
    const size_t end = std::min<size_t>(node.entry_end, slot_end);
    if (!soa_.empty()) {
      count = std::min(
          cap, count + SoACountDominators(soa_.data(), ids_.size(),
                                          codec_->dim(), node.entry_begin,
                                          end, p));
      return;
    }
    for (size_t slot = node.entry_begin; slot < end && count < cap; ++slot) {
      if (alive_[slot] && Dominates(points_[slot], p)) ++count;
    }
    return;
  }
  for (uint32_t c = node.child_begin; c < node.child_end && count < cap &&
                                      nodes_[c].entry_begin < slot_end;
       ++c) {
    CountDominatorsIn(c, p, cap, slot_end, count);
  }
}

size_t ZBTree::RemoveDominatedBy(std::span<const Coord> p) {
  if (nodes_.empty() || alive_total_ == 0) return 0;
  const size_t removed = RemoveDominatedIn(root().index, p);
  alive_total_ -= removed;
  return removed;
}

size_t ZBTree::RemoveDominatedIn(uint32_t node_index,
                                 std::span<const Coord> p) {
  Node& node = nodes_[node_index];
  if (node.alive == 0) return 0;
  const RZRegion& region = node.region;
  // p can only dominate entries q >= p componentwise; all entries are
  // <= region.max, so p <= region.max componentwise is necessary.
  if (!DominatesOrEqual(p, region.max_corner())) return 0;
  if (Dominates(p, region.min_corner())) {
    // Every possible point of the region is dominated: kill the subtree.
    const size_t removed = KillSubtree(node_index);
    return removed;
  }
  size_t removed = 0;
  if (node.child_end == 0) {
    for (size_t slot = node.entry_begin; slot < node.entry_end; ++slot) {
      if (alive_[slot] && Dominates(p, points_[slot])) {
        PoisonSlot(slot);
        ++removed;
      }
    }
  } else {
    for (uint32_t c = node.child_begin; c < node.child_end; ++c) {
      removed += RemoveDominatedIn(c, p);
    }
  }
  node.alive -= static_cast<uint32_t>(removed);
  return removed;
}

size_t ZBTree::KillSubtree(uint32_t node_index) {
  Node& node = nodes_[node_index];
  const size_t removed = node.alive;
  if (removed == 0) return 0;
  if (node.child_end == 0) {
    for (size_t slot = node.entry_begin; slot < node.entry_end; ++slot) {
      if (alive_[slot]) PoisonSlot(slot);
    }
  } else {
    for (uint32_t c = node.child_begin; c < node.child_end; ++c) {
      KillSubtree(c);
    }
  }
  node.alive = 0;
  return removed;
}

void ZBTree::PoisonSlot(size_t slot) {
  alive_[slot] = 0;
  if (soa_.empty()) return;
  const size_t n = ids_.size();
  for (uint32_t k = 0; k < codec_->dim(); ++k) {
    soa_[k * n + slot] = std::numeric_limits<Coord>::max();
  }
}

void ZBTree::CollectAlive(PointSet& points, std::vector<uint32_t>& ids) const {
  ZSKY_CHECK(points.dim() == points_.dim());
  for (size_t slot = 0; slot < ids_.size(); ++slot) {
    if (!alive_[slot]) continue;
    points.AppendFrom(points_, slot);
    ids.push_back(ids_[slot]);
  }
}

}  // namespace zsky
