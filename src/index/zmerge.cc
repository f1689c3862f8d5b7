#include "index/zmerge.h"

#include <algorithm>
#include <utility>

#include "common/dominance.h"

namespace zsky {

namespace {

void AppendSubtree(const ZBTree& src, ZBTree::NodeRef node,
                   DynamicSkyline& sky) {
  auto [begin, end] = src.entry_range(node);
  for (size_t slot = begin; slot < end; ++slot) {
    if (src.alive(slot)) sky.Append(src.point(slot), src.id(slot));
  }
}

void Visit(const ZBTree& src, ZBTree::NodeRef node, DynamicSkyline& sky,
           ZMergeStats& stats) {
  if (src.alive_in(node) == 0) return;
  const auto lo = src.min_corner(node);
  const auto hi = src.max_corner(node);

  if (sky.ExistsDominatorOf(lo)) {
    ++stats.subtrees_discarded;
    return;
  }
  // Whole-skyline incomparability shortcut: nothing in this subtree can
  // dominate or be dominated by anything currently in the skyline.
  if (auto bound = sky.BoundingRegion();
      bound.has_value() && !DominatesOrEqual(lo, bound->max_corner()) &&
      !DominatesOrEqual(bound->min_corner(), hi)) {
    ++stats.subtrees_appended;
    AppendSubtree(src, node, sky);
    return;
  }
  if (src.is_leaf(node)) {
    auto [begin, end] = src.entry_range(node);
    for (size_t slot = begin; slot < end; ++slot) {
      if (!src.alive(slot)) continue;
      ++stats.points_tested;
      const auto p = src.point(slot);
      if (sky.ExistsDominatorOf(p)) continue;
      stats.skyline_removed += sky.RemoveDominatedBy(p);
      sky.Append(p, src.id(slot));
    }
    return;
  }
  auto [cb, ce] = src.child_range(node);
  for (uint32_t c = cb; c < ce; ++c) {
    Visit(src, {node.level - 1, c}, sky, stats);
  }
}

}  // namespace

void ZMerge(const ZBTree& src, DynamicSkyline& sky, ZMergeStats* stats) {
  if (src.empty() || src.alive_count() == 0) return;
  ZMergeStats local;
  Visit(src, src.root(), sky, local);
  if (stats != nullptr) *stats = local;
}

namespace {

bool WordsLess(std::span<const uint64_t> a, std::span<const uint64_t> b) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i] != b[i]) return a[i] < b[i];
  }
  return false;
}

}  // namespace

SkylineIndices ZMergeAll(const ZOrderCodec& codec,
                         const std::vector<const ZBTree*>& trees,
                         const ZBTree::Options& options, ZMergeStats* stats) {
  ZMergeStats local;
  // Candidates leave the streams in non-decreasing Z-order, so the
  // skyline is an append-mode tree.
  ZBTree sky(&codec, options);
  SkylineIndices result;

  // Per-tree cursor plus, for every entry slot, the subtrees that begin
  // there (largest first) so boundary crossings can discard whole regions.
  struct Stream {
    const ZBTree* tree;
    size_t cursor = 0;
    // starts[slot]: (subtree end, subtree), descending by size.
    std::vector<std::vector<std::pair<size_t, ZBTree::NodeRef>>> starts;
  };
  std::vector<Stream> streams;
  for (const ZBTree* tree : trees) {
    if (tree == nullptr || tree->alive_count() == 0) continue;
    Stream s;
    s.tree = tree;
    s.starts.resize(tree->size());
    std::vector<ZBTree::NodeRef> stack{tree->root()};
    while (!stack.empty()) {
      const ZBTree::NodeRef n = stack.back();
      stack.pop_back();
      const auto [begin, end] = tree->entry_range(n);
      s.starts[begin].emplace_back(end, n);
      if (!tree->is_leaf(n)) {
        const auto [cb, ce] = tree->child_range(n);
        for (uint32_t c = cb; c < ce; ++c) stack.push_back({n.level - 1, c});
      }
    }
    for (auto& v : s.starts) {
      std::sort(v.begin(), v.end(),
                [](const auto& a, const auto& b) { return a.first > b.first; });
    }
    streams.push_back(std::move(s));
  }

  for (;;) {
    // Select the stream whose next entry has the smallest Z-address.
    Stream* next = nullptr;
    for (Stream& s : streams) {
      if (s.cursor >= s.tree->size()) continue;
      if (next == nullptr || WordsLess(s.tree->zwords(s.cursor),
                                       next->tree->zwords(next->cursor))) {
        next = &s;
      }
    }
    if (next == nullptr) break;

    // Region-level discard: if a subtree starting here is dominated as a
    // whole, skip it without touching its points.
    bool skipped = false;
    for (const auto& [end, node] : next->starts[next->cursor]) {
      if (sky.ExistsDominatorOf(next->tree->min_corner(node))) {
        ++local.subtrees_discarded;
        next->cursor = end;
        skipped = true;
        break;
      }
    }
    if (skipped) continue;

    if (next->tree->alive(next->cursor)) {
      ++local.points_tested;
      const auto p = next->tree->point(next->cursor);
      if (!sky.ExistsDominatorOf(p)) {
        result.push_back(next->tree->id(next->cursor));
        sky.Append(p, next->tree->id(next->cursor));
      }
    }
    ++next->cursor;
  }

  if (stats != nullptr) *stats = local;
  SortSkyline(result);
  return result;
}

}  // namespace zsky
