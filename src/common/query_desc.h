#ifndef ZSKY_COMMON_QUERY_DESC_H_
#define ZSKY_COMMON_QUERY_DESC_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/point_set.h"

namespace zsky {

// Describes one skyline query variant: the standard production surface of
// a skyline service beyond the plain full-space query (constrained,
// subspace, direction-flipped, k-skyband — and any combination).
//
// The desc splits into two kinds of state with very different costs:
//
//  - The *shape* (dims, maximize, k): reshapes derived plan artifacts.
//    A dimension subset or direction flip re-derives the Z-order codec
//    over the projected dims (direction is realized by flipping
//    coordinates to max_coord - c at encode time, which preserves the
//    minimization convention and therefore Z-order's dominance
//    monotonicity); k > 1 swaps the sample-skyline mapper filter for a
//    sample-k-band counting filter. Shapes are cached per plan
//    (PreparedPlan::Variant) keyed by ShapeKey().
//
//  - The *constraint box* (box_lo/box_hi): pure per-query state. It never
//    invalidates any cached artifact — the pipeline derives an in-box
//    sample filter and its region counts at query time. This is the
//    warm-path invariant: two queries differing only in the box share the
//    plan AND the variant.
struct QueryDesc {
  // Inclusive constraint box in ORIGINAL coordinates (all dims, before
  // projection/flip — "price <= 200" keeps meaning price even when the
  // skyline runs over other dims). Both empty (unconstrained) or both of
  // size dim.
  std::vector<Coord> box_lo;
  std::vector<Coord> box_hi;

  // Subspace: the original dimensions dominance is computed over. Empty =
  // all dims. Canonicalize() sorts and dedups.
  std::vector<uint32_t> dims;

  // Per-ORIGINAL-dimension direction: non-zero = larger-is-better for that
  // dimension. Empty = all minimize (the library convention).
  std::vector<uint8_t> maximize;

  // k-skyband: keep points with fewer than k dominators. 1 = skyline.
  uint32_t k = 1;

  bool has_box() const { return !box_lo.empty(); }
  bool has_dims() const { return !dims.empty(); }
  bool has_flips() const;

  // True iff this is the plain full-space minimizing skyline — the
  // pipeline's untouched fast path.
  bool IsDefault() const {
    return !has_box() && IsIdentityShape();
  }

  // True iff the shape (everything but the box) is the identity: all dims,
  // no flips, k == 1. Identity shapes reuse the base plan's artifacts
  // outright.
  bool IsIdentityShape() const {
    return !has_dims() && !has_flips() && k == 1;
  }

  // Sorts/dedups dims and drops an all-zero maximize vector; call once
  // after filling the fields by hand (the CLI and tests do).
  void Canonicalize();

  // Aborts (ZSKY_CHECK) unless the desc is well-formed for `dim`-dimensional
  // data: box sides match dim with lo <= hi, dims in range, maximize either
  // empty or of size dim, k >= 1.
  void CheckValid(uint32_t dim) const;

  // Canonical cache key of the shape — dims, flips, k; deliberately NOT
  // the box. Equal keys must reuse the same cached plan variant.
  std::string ShapeKey() const;

  // Inclusive box membership of an original-space point (true when no box).
  bool InBox(std::span<const Coord> p) const {
    for (size_t d = 0; d < box_lo.size(); ++d) {
      if (p[d] < box_lo[d] || p[d] > box_hi[d]) return false;
    }
    return true;
  }

  // The selected dims as an explicit ascending list over `dim` dimensions
  // (fills in "all" when dims is empty).
  std::vector<uint32_t> EffectiveDims(uint32_t dim) const;

  // Per-SELECTED-dimension flip flags, parallel to EffectiveDims(dim).
  std::vector<uint8_t> EffectiveFlips(uint32_t dim) const;
};

}  // namespace zsky

#endif  // ZSKY_COMMON_QUERY_DESC_H_
