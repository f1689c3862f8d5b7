#include "index/zsearch.h"

namespace zsky {

namespace {

void Visit(const ZBTree& tree, ZBTree::NodeRef node, ZBTree& skyline,
           SkylineIndices& result, ZSearchStats& stats) {
  ++stats.nodes_visited;
  // If a skyline point strictly dominates the node's min corner, it
  // dominates every point the node can contain.
  if (skyline.ExistsDominatorOf(tree.min_corner(node))) {
    ++stats.nodes_pruned;
    return;
  }
  if (tree.is_leaf(node)) {
    auto [begin, end] = tree.entry_range(node);
    for (size_t slot = begin; slot < end; ++slot) {
      ++stats.points_tested;
      const auto p = tree.point(slot);
      if (!skyline.ExistsDominatorOf(p)) {
        result.push_back(tree.id(slot));
        skyline.Append(p, tree.id(slot));
      }
    }
    return;
  }
  auto [cb, ce] = tree.child_range(node);
  for (uint32_t c = cb; c < ce; ++c) {
    Visit(tree, {node.level - 1, c}, skyline, result, stats);
  }
}

}  // namespace

SkylineIndices ZSearchSkyline(const ZOrderCodec& codec, const PointSet& points,
                              const ZBTree::Options& options,
                              ZSearchStats* stats) {
  SkylineIndices result;
  if (points.empty()) return result;
  ZBTree tree(&codec, points, options);
  // Slots are visited in Z-order and a strict dominator always has a
  // smaller Z-address, so an accepted point is never removed: the
  // skyline is an append-mode tree.
  ZBTree skyline(&codec, options);
  ZSearchStats local_stats;
  Visit(tree, tree.root(), skyline, result, local_stats);
  if (stats != nullptr) *stats = local_stats;
  SortSkyline(result);
  return result;
}

SkylineIndices ZOrderSkyband(const ZOrderCodec& codec, const PointSet& points,
                             uint32_t k) {
  ZSKY_CHECK(k >= 1);
  ZSKY_CHECK(points.dim() == codec.dim());
  // In z-order, a dominator always precedes its dominated point, so each
  // point only needs its dominator count against earlier band members.
  // Points already at k dominators are dropped and never tested against
  // (a dropped point's dominators also dominate whatever it dominates, so
  // counts against the kept band are exact: if q (dropped, >= k
  // dominators) dominates p, then each of q's k dominators dominates p
  // transitively and at least k of them are in the band or themselves
  // dominated by band members — induction bottoms out at skyline points,
  // which are always kept).
  //
  // Correctness note: dropping q can only *undercount* p's dominators if
  // fewer than k kept points dominate p; but q's own >= k dominators all
  // dominate p and precede q in z-order. Applying the argument recursively
  // (each dropped dominator is replaced by its own k dominators, and
  // z-order is a well-order) yields >= k *kept* dominators of p.
  //
  // The kept band only grows, in z-order: an append-mode tree.
  ZBTree band(&codec);
  SkylineIndices result;
  for (uint32_t idx : ZOrderPermutation(codec, points)) {
    const auto p = points[idx];
    if (band.CountDominatorsOf(p, k) < k) {
      band.Append(p, idx);
      result.push_back(idx);
    }
  }
  SortSkyline(result);
  return result;
}

}  // namespace zsky
