#ifndef ZSKY_COMMON_BOUNDS_TREE_WALK_H_
#define ZSKY_COMMON_BOUNDS_TREE_WALK_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>

#include "common/dominance_kernels.h"

// The ZB-tree probe walks over a BoundsTreeView (dominance_kernels.h),
// written once and instantiated by each kernel tier's TU with that tier's
// node test and leaf scans. The node test is inlined into the walk under
// the TU's ISA flags, so a probe pays one dispatch, not one per node.
//
// `Tier` must be a type local to the instantiating TU (an anonymous
// namespace): that gives each instantiation internal linkage, so the
// linker can never let the AVX2-compiled walk stand in for the scalar
// one. It provides
//   static uint32_t NodeTest(const Coord* bounds, uint32_t lanes,
//                            const Coord* p);
//   static bool LeafAny(const Coord* base, size_t stride, uint32_t dim,
//                       size_t begin, size_t end, const Coord* p);
//   static size_t LeafCount(same arguments as LeafAny);

namespace zsky::simd {

template <class Tier>
class BoundsTreeWalk {
 public:
  BoundsTreeWalk(const BoundsTreeView& tree, const Coord* p, size_t slot_end)
      : t_(tree), p_(p), limit_(std::min(tree.size, slot_end)) {}

  bool Any() const {
    return limit_ > 0 && AnyIn(t_.height - 1, 0, t_.root_span);
  }

  size_t Count(size_t cap) const {
    size_t count = 0;
    if (limit_ > 0 && cap > 0) {
      CountIn(t_.height - 1, 0, t_.root_span, cap, count);
    }
    return count;
  }

 private:
  const Coord* Row(size_t row) const {
    return t_.bounds + row * 2 * static_cast<size_t>(t_.lanes);
  }

  // Node `index` of `level` covers slots [index * span, ...); the caller
  // guarantees its first slot is below limit_.
  bool AnyIn(uint32_t level, size_t index, size_t span) const {
    const size_t row = t_.level_offset[level] + index;
    if (t_.alive[row] == 0) return false;
    const uint32_t test = Tier::NodeTest(Row(row), t_.lanes, p_);
    if ((test & kNodeMayHoldDominator) == 0) return false;
    const size_t begin = index * span;
    const size_t end = std::min(t_.size, begin + span);
    // Every alive entry below dominates p; only a node wholly before the
    // slot bound may answer so.
    if ((test & kNodeAllDominate) != 0 && end <= limit_) return true;
    const size_t stop = std::min(end, limit_);
    if (level == 0) {
      // Dead slots are all-max and never strictly dominate: no alive check.
      return Tier::LeafAny(t_.soa, t_.soa_stride, t_.dim, begin, stop, p_);
    }
    const size_t child_span = span / t_.fanout;
    size_t child = index * t_.fanout;
    for (size_t at = begin; at < stop; at += child_span, ++child) {
      if (AnyIn(level - 1, child, child_span)) return true;
    }
    return false;
  }

  void CountIn(uint32_t level, size_t index, size_t span, size_t cap,
               size_t& count) const {
    const size_t row = t_.level_offset[level] + index;
    const uint32_t alive = t_.alive[row];
    if (alive == 0) return;
    const uint32_t test = Tier::NodeTest(Row(row), t_.lanes, p_);
    if ((test & kNodeMayHoldDominator) == 0) return;
    const size_t begin = index * span;
    const size_t end = std::min(t_.size, begin + span);
    if ((test & kNodeAllDominate) != 0 && end <= limit_) {
      count = std::min(cap, count + alive);
      return;
    }
    const size_t stop = std::min(end, limit_);
    if (level == 0) {
      count = std::min(cap, count + Tier::LeafCount(t_.soa, t_.soa_stride,
                                                    t_.dim, begin, stop, p_));
      return;
    }
    const size_t child_span = span / t_.fanout;
    size_t child = index * t_.fanout;
    for (size_t at = begin; at < stop && count < cap;
         at += child_span, ++child) {
      CountIn(level - 1, child, child_span, cap, count);
    }
  }

  const BoundsTreeView& t_;
  const Coord* p_;
  size_t limit_;  // min(size, slot_end): slots at or past it are ignored.
};

}  // namespace zsky::simd

#endif  // ZSKY_COMMON_BOUNDS_TREE_WALK_H_
