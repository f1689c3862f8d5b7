#include "index/zbtree.h"

#include <algorithm>
#include <limits>

#include "common/dominance.h"

namespace zsky {

namespace {

// Lexicographic compare of two flat big-endian word spans.
[[maybe_unused]] bool ZWordsLess(const uint64_t* a, const uint64_t* b,
                                 size_t words) {
  for (size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

// Runs `fn` on `p` padded with zeros to `lanes` coordinates, the probe
// layout of the node-test kernel.
template <class Fn>
auto WithPaddedProbe(std::span<const Coord> p, uint32_t lanes, Fn&& fn) {
  if (lanes <= simd::kMaxVectorDim) {
    Coord buffer[simd::kMaxVectorDim];
    std::copy(p.begin(), p.end(), buffer);
    std::fill(buffer + p.size(), buffer + lanes, Coord{0});
    return fn(buffer);
  }
  std::vector<Coord> buffer(lanes, 0);
  std::copy(p.begin(), p.end(), buffer.begin());
  return fn(buffer.data());
}

}  // namespace

ZBTree::ZBTree(const ZOrderCodec* codec, const Options& options)
    : codec_(codec),
      options_(options),
      words_per_addr_(codec->num_words()),
      lanes_(simd::BoundsLanes(codec->dim())),
      points_(codec->dim()) {
  ZSKY_CHECK(codec != nullptr);
  ZSKY_CHECK(options.leaf_capacity >= 1 && options.fanout >= 2);
  Layout(0);
}

ZBTree::ZBTree(const ZOrderCodec* codec, const PointSet& points,
               std::vector<uint32_t> ids, const Options& options)
    : ZBTree(codec, options) {
  ZSKY_CHECK(points.dim() == codec->dim());
  const size_t n = points.size();
  ZSKY_CHECK(ids.empty() || ids.size() == n);
  if (n == 0) return;
  const uint32_t dim = codec->dim();

  // Sort by Z-address, then copy each row once, into the row-major
  // entries and the column-major mirror.
  const std::vector<uint32_t> perm =
      ZOrderPermutation(*codec, points, &zwords_);
  std::vector<Coord>& rows = points_.mutable_raw();
  rows.resize(n * dim);
  soa_.resize(n * dim);
  capacity_ = n;
  ids_.resize(n);
  for (size_t slot = 0; slot < n; ++slot) {
    const uint32_t src = perm[slot];
    const Coord* row = points[src].data();
    std::copy_n(row, dim, rows.data() + slot * dim);
    for (uint32_t k = 0; k < dim; ++k) soa_[k * n + slot] = row[k];
    ids_[slot] = ids.empty() ? src : ids[src];
  }
  alive_.assign(n, 1);
  alive_total_ = n;

  // Bounds level by level: leaves from their entries, then every upper
  // node from its children's rows. Padding lanes stay 0.
  Layout(n);
  height_ = HeightFor(n);
  const size_t row_width = 2 * static_cast<size_t>(lanes_);
  for (size_t leaf = 0, begin = 0; begin < n; ++leaf, begin += spans_[0]) {
    const size_t end = std::min(n, begin + spans_[0]);
    Coord* lo = BoundsRow({0, static_cast<uint32_t>(leaf)});
    Coord* hi = lo + lanes_;
    std::copy_n(rows.data() + begin * dim, dim, lo);
    std::copy_n(rows.data() + begin * dim, dim, hi);
    for (size_t slot = begin + 1; slot < end; ++slot) {
      const Coord* p = rows.data() + slot * dim;
      for (uint32_t k = 0; k < dim; ++k) {
        lo[k] = std::min(lo[k], p[k]);
        hi[k] = std::max(hi[k], p[k]);
      }
    }
    node_alive_[level_offset_[0] + leaf] = static_cast<uint32_t>(end - begin);
  }
  for (uint32_t level = 1; level < height_; ++level) {
    const size_t children = (n + spans_[level - 1] - 1) / spans_[level - 1];
    const size_t nodes = (n + spans_[level] - 1) / spans_[level];
    for (size_t i = 0; i < nodes; ++i) {
      Coord* lo = BoundsRow({level, static_cast<uint32_t>(i)});
      Coord* hi = lo + lanes_;
      const size_t first = i * options_.fanout;
      const size_t last = std::min(children, first + options_.fanout);
      const size_t first_row = level_offset_[level - 1] + first;
      std::copy_n(bounds_.data() + first_row * row_width, row_width, lo);
      uint32_t alive = node_alive_[first_row];
      for (size_t c = first_row + 1; c < level_offset_[level - 1] + last;
           ++c) {
        const Coord* child = bounds_.data() + c * row_width;
        for (uint32_t k = 0; k < lanes_; ++k) {
          lo[k] = std::min(lo[k], child[k]);
          hi[k] = std::max(hi[k], child[lanes_ + k]);
        }
        alive += node_alive_[c];
      }
      node_alive_[level_offset_[level] + i] = alive;
    }
  }
}

size_t ZBTree::BytesPerEntry(uint32_t dim, size_t words_per_addr,
                             const Options& options) {
  // A leaf row and alive count per leaf_capacity entries, and at most
  // 1 / (fanout - 1) as much again for the upper levels.
  const size_t node_bytes =
      2 * simd::BoundsLanes(dim) * sizeof(Coord) + sizeof(uint32_t);
  const size_t nodes_bytes =
      (node_bytes * options.fanout / (options.fanout - 1) +
       options.leaf_capacity - 1) /
      options.leaf_capacity;
  return 2 * static_cast<size_t>(dim) * sizeof(Coord) +
         words_per_addr * sizeof(uint64_t) + sizeof(uint32_t) +
         sizeof(uint8_t) + nodes_bytes;
}

uint32_t ZBTree::HeightFor(size_t entries) const {
  if (entries == 0) return 0;
  uint32_t height = 1;
  for (size_t span = options_.leaf_capacity; span < entries;
       span *= options_.fanout) {
    ++height;
  }
  return height;
}

void ZBTree::Layout(size_t capacity) {
  // Nodes per level for `capacity` entries, leaves first; the last level
  // is the one a full tree's root sits on.
  std::vector<size_t> spans;
  std::vector<size_t> counts;
  for (size_t span = options_.leaf_capacity;; span *= options_.fanout) {
    spans.push_back(span);
    counts.push_back((capacity + span - 1) / span);
    if (counts.back() <= 1) break;
  }
  const size_t levels = counts.size();
  // Root level first: the small upper levels every probe reads share
  // cache lines.
  std::vector<uint32_t> offsets(levels);
  size_t rows = 0;
  for (size_t l = levels; l-- > 0;) {
    offsets[l] = static_cast<uint32_t>(rows);
    rows += counts[l];
  }
  const size_t row_width = 2 * static_cast<size_t>(lanes_);
  std::vector<Coord> bounds(rows * row_width, 0);
  std::vector<uint32_t> node_alive(rows, 0);
  for (uint32_t l = 0; l < height_; ++l) {
    const size_t nodes = (size() + spans[l] - 1) / spans[l];
    std::copy_n(bounds_.data() + level_offset_[l] * row_width,
                nodes * row_width, bounds.data() + offsets[l] * row_width);
    std::copy_n(node_alive_.data() + level_offset_[l], nodes,
                node_alive.data() + offsets[l]);
  }
  bounds_ = std::move(bounds);
  node_alive_ = std::move(node_alive);
  level_offset_ = std::move(offsets);
  spans_ = std::move(spans);
}

void ZBTree::Grow(size_t capacity) {
  const uint32_t dim = codec_->dim();
  const size_t n = size();
  std::vector<Coord> soa(capacity * dim, 0);
  for (uint32_t k = 0; k < dim; ++k) {
    std::copy_n(soa_.data() + k * capacity_, n, soa.data() + k * capacity);
  }
  soa_ = std::move(soa);
  capacity_ = capacity;
  points_.Reserve(capacity);
  ids_.reserve(capacity);
  alive_.reserve(capacity);
  zwords_.reserve(capacity * words_per_addr_);
  Layout(capacity);
}

void ZBTree::Append(std::span<const Coord> p, uint32_t id) {
  const uint32_t dim = codec_->dim();
  ZSKY_DCHECK(p.size() == dim);
  const size_t slot = size();
  zwords_.resize((slot + 1) * words_per_addr_);
  uint64_t* words = zwords_.data() + slot * words_per_addr_;
  codec_->EncodeTo(p, {words, words_per_addr_});
  ZSKY_DCHECK(slot == 0 ||
              !ZWordsLess(words, words - words_per_addr_, words_per_addr_));
  if (slot == capacity_) {
    Grow(std::max<size_t>(2 * capacity_, options_.leaf_capacity));
  }
  points_.Append(p);
  ids_.push_back(id);
  alive_.push_back(1);
  ++alive_total_;
  for (uint32_t k = 0; k < dim; ++k) soa_[k * capacity_ + slot] = p[k];

  // A new root level starts as a copy of the old root, which covered
  // every earlier slot.
  const uint32_t old_height = height_;
  height_ = HeightFor(slot + 1);
  for (uint32_t level = std::max(old_height, 1u); level < height_; ++level) {
    std::copy_n(BoundsRow({level - 1, 0}), 2 * lanes_,
                BoundsRow({level, 0}));
    node_alive_[level_offset_[level]] = node_alive_[level_offset_[level - 1]];
  }
  // The slot opens or extends one node per level.
  for (uint32_t level = 0; level < height_; ++level) {
    const NodeRef node{level, static_cast<uint32_t>(slot / spans_[level])};
    Coord* lo = BoundsRow(node);
    Coord* hi = lo + lanes_;
    if (slot % spans_[level] == 0) {
      std::copy(p.begin(), p.end(), lo);
      std::copy(p.begin(), p.end(), hi);
      node_alive_[Row(node)] = 1;
      continue;
    }
    for (uint32_t k = 0; k < dim; ++k) {
      lo[k] = std::min(lo[k], p[k]);
      hi[k] = std::max(hi[k], p[k]);
    }
    ++node_alive_[Row(node)];
  }
}

std::pair<uint32_t, uint32_t> ZBTree::child_range(NodeRef n) const {
  ZSKY_DCHECK(n.level > 0);
  const size_t span = spans_[n.level - 1];
  const size_t children = (size() + span - 1) / span;
  const size_t begin = size_t{n.index} * options_.fanout;
  return {static_cast<uint32_t>(begin),
          static_cast<uint32_t>(
              std::min(children, begin + options_.fanout))};
}

simd::BoundsTreeView ZBTree::View() const {
  simd::BoundsTreeView view;
  view.bounds = bounds_.data();
  view.alive = node_alive_.data();
  view.level_offset = level_offset_.data();
  view.soa = soa_.data();
  view.soa_stride = capacity_;
  view.size = size();
  view.root_span = spans_[height_ - 1];
  view.height = height_;
  view.dim = codec_->dim();
  view.lanes = lanes_;
  view.fanout = options_.fanout;
  return view;
}

bool ZBTree::ExistsDominatorOf(std::span<const Coord> p,
                               size_t slot_end) const {
  if (height_ == 0 || alive_total_ == 0 || slot_end == 0) return false;
  ZSKY_DCHECK(p.size() == codec_->dim());
  return WithPaddedProbe(p, lanes_, [&](const Coord* padded) {
    return simd::ActiveKernelTable().tree_any_dominates(View(), padded,
                                                        slot_end);
  });
}

size_t ZBTree::CountDominatorsOf(std::span<const Coord> p, size_t cap,
                                 size_t slot_end) const {
  if (height_ == 0 || alive_total_ == 0 || cap == 0 || slot_end == 0) {
    return 0;
  }
  ZSKY_DCHECK(p.size() == codec_->dim());
  return WithPaddedProbe(p, lanes_, [&](const Coord* padded) {
    return simd::ActiveKernelTable().tree_count_dominators(View(), padded,
                                                           cap, slot_end);
  });
}

size_t ZBTree::RemoveDominatedBy(std::span<const Coord> p) {
  if (height_ == 0 || alive_total_ == 0) return 0;
  const size_t removed = RemoveDominatedIn(root(), p);
  alive_total_ -= removed;
  return removed;
}

size_t ZBTree::RemoveDominatedIn(NodeRef n, std::span<const Coord> p) {
  if (alive_in(n) == 0) return 0;
  // p can only dominate entries q >= p componentwise; all entries are
  // <= the max corner, so p <= max componentwise is necessary.
  if (!DominatesOrEqual(p, max_corner(n))) return 0;
  // Every possible point of the box is dominated: kill the subtree.
  if (Dominates(p, min_corner(n))) return KillSubtree(n);
  size_t removed = 0;
  if (is_leaf(n)) {
    const auto [begin, end] = entry_range(n);
    for (size_t slot = begin; slot < end; ++slot) {
      if (alive_[slot] && Dominates(p, points_[slot])) {
        PoisonSlot(slot);
        ++removed;
      }
    }
  } else {
    const auto [cb, ce] = child_range(n);
    for (uint32_t c = cb; c < ce; ++c) {
      removed += RemoveDominatedIn({n.level - 1, c}, p);
    }
  }
  node_alive_[Row(n)] -= static_cast<uint32_t>(removed);
  return removed;
}

size_t ZBTree::KillSubtree(NodeRef n) {
  const size_t removed = alive_in(n);
  if (removed == 0) return 0;
  if (is_leaf(n)) {
    const auto [begin, end] = entry_range(n);
    for (size_t slot = begin; slot < end; ++slot) {
      if (alive_[slot]) PoisonSlot(slot);
    }
  } else {
    const auto [cb, ce] = child_range(n);
    for (uint32_t c = cb; c < ce; ++c) KillSubtree({n.level - 1, c});
  }
  node_alive_[Row(n)] = 0;
  return removed;
}

void ZBTree::PoisonSlot(size_t slot) {
  alive_[slot] = 0;
  for (uint32_t k = 0; k < codec_->dim(); ++k) {
    soa_[k * capacity_ + slot] = std::numeric_limits<Coord>::max();
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
