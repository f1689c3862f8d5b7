#ifndef ZSKY_COMMON_DOMINANCE_KERNELS_H_
#define ZSKY_COMMON_DOMINANCE_KERNELS_H_

#include <cstdint>

#include "common/cpu.h"
#include "common/point_set.h"

// Per-ISA implementations of the block dominance primitives, the ZB-tree
// node test and probe walks, and the function-pointer table the public
// SoA* wrappers (dominance_block.h) and ZBTree dispatch through. Each ISA
// lives in its own translation unit so the vector variants can be compiled
// with -msse4.2 / -mavx2 without those flags leaking into the rest of the
// build:
//
//   dominance_kernels_scalar.cc  portable C++ tile kernels
//   dominance_kernels_sse42.cc   128-bit __m128i kernels
//   dominance_kernels_avx2.cc    256-bit __m256i kernels
//
// When the compiler cannot target an ISA, that TU compiles forwarding
// stubs to the scalar kernels instead — the build always succeeds, and
// runtime dispatch never selects a tier the *hardware* lacks anyway.
//
// All variants return bit-identical results for the same inputs: the
// primitives' outputs (a bool, a count, a 0/1 bitmap) are fully
// determined by the point data, independent of tile width or early-exit
// granularity. Enforced by tests/simd_dispatch_test.cc and by
// `scripts/check.sh simd` (whole-suite runs under each ZSKY_FORCE_ISA).

namespace zsky::simd {

// Signatures mirror the SoA* wrappers in dominance_block.h, with the
// probe passed as a raw pointer of `dim` coordinates.
using AnyDominatesFn = bool (*)(const Coord* base, size_t stride,
                                uint32_t dim, size_t begin, size_t end,
                                const Coord* p);
using CountDominatorsFn = size_t (*)(const Coord* base, size_t stride,
                                     uint32_t dim, size_t begin, size_t end,
                                     const Coord* p);
using MarkDominatedByFn = size_t (*)(const Coord* base, size_t stride,
                                     uint32_t dim, size_t begin, size_t end,
                                     const Coord* p, uint8_t* out);
// The columnar-direct map-wave primitive: both operands are SoA. For each
// wave row i in [begin, end), sets out[i - begin] to 1 iff some point of
// the filter block (filt, filt_stride, filt_size) strictly dominates it;
// returns the number of dominated rows. Equivalent to running
// MarkDominatedBy once per filter point and OR-ing the bitmaps, which is
// why every tier produces bit-identical output regardless of early exits.
//
// Min-pruning metadata for the mask kernel (built by MaskFilterIndex in
// dominance_block.h). The filter is grouped into tiles of kMaskTilePoints
// consecutive points and supertiles of kMaskTilesPerSuper consecutive
// tiles; `tile_mins` / `super_mins` hold the per-dimension minimum of
// each, SoA like the filter itself (the min of dimension k for tile t
// lives at tile_mins[k * tile_stride + t]). A tile (or supertile) can
// contain a dominator of row p only if its min is <= p in EVERY dimension
// — a dominator q satisfies q <= p componentwise and the min is <= q —
// so groups failing the test are skipped without touching their points.
// Rows no filter point dominates are the expensive case (they otherwise
// scan the whole block to prove the miss) and reject almost every
// supertile this way when the tiles are spatially clustered. Pruning
// never skips a group that holds a dominator, so output stays
// bit-identical with and without it.
//
// Both strides are padded to a multiple of 8 lanes and padding lanes hold
// ~0u: vector tiers may sweep whole 8-lane groups without bounds checks —
// a padding lane never passes the min test (and its scan range would be
// empty anyway).
struct MaskFilterPruning {
  const Coord* tile_mins;
  size_t tile_stride;
  const Coord* super_mins;
  size_t super_stride;
};

using MaskAnyDominatedFn = size_t (*)(const Coord* base, size_t stride,
                                      uint32_t dim, size_t begin, size_t end,
                                      const Coord* filt, size_t filt_stride,
                                      size_t filt_size,
                                      const MaskFilterPruning* pruning,
                                      uint8_t* out);

// The columnar-direct box test: for each wave row i in [begin, end), sets
// out[i - begin] to 1 iff lo[k] <= row[k] <= hi[k] on every dimension k
// (unsigned, inclusive); returns the number of in-box rows. Plain
// compares with no early exit, so every tier's bitmap is the same.
using MaskInBoxFn = size_t (*)(const Coord* base, size_t stride, uint32_t dim,
                               size_t begin, size_t end, const Coord* lo,
                               const Coord* hi, uint8_t* out);

// Filter points per tile / tiles per supertile of the min-pruning index.
inline constexpr size_t kMaskTilePoints = 8;
inline constexpr size_t kMaskTilesPerSuper = 8;

// --- ZB-tree node bounds (index/zbtree.h). ---
//
// A node's bounds are one row of 2 * lanes coordinates: the min corner in
// [0, lanes), the max corner in [lanes, 2 * lanes). `lanes` is the
// dimensionality rounded up to kBoundsLaneWidth (one AVX2 vector). Padding
// lanes hold 0 in both corners and in the padded probe, so they pass every
// test below without changing its answer.
inline constexpr uint32_t kBoundsLaneWidth = 8;

inline constexpr uint32_t BoundsLanes(uint32_t dim) {
  return (dim + kBoundsLaneWidth - 1) / kBoundsLaneWidth * kBoundsLaneWidth;
}

// Result bits of the node test of probe p against a bounds row.
// kNodeMayHoldDominator: min <= p in every lane, so the node may hold a
// dominator of p (when clear, it holds none). kNodeAllDominate: max
// strictly dominates p, so every entry of the node does.
inline constexpr uint32_t kNodeMayHoldDominator = 1;
inline constexpr uint32_t kNodeAllDominate = 2;

using NodeTestFn = uint32_t (*)(const Coord* bounds, uint32_t lanes,
                                const Coord* p);

// A ZB-tree's layout as the probe walks read it. All nodes live in one
// array of bounds rows and one of alive counts, level by level, root level
// first: node i of level l is row level_offset[l] + i. Level 0 holds the
// leaves; node i of level l covers slots [i * span_l, (i + 1) * span_l)
// with span_l = leaf_capacity * fanout^l, and its children are nodes
// [i * fanout, (i + 1) * fanout) of level l - 1. The entries live in a
// column-major mirror (lane k of slot s at soa[k * soa_stride + s]) whose
// dead slots are poisoned to the all-max coordinate, which never strictly
// dominates.
struct BoundsTreeView {
  const Coord* bounds;
  const uint32_t* alive;
  const uint32_t* level_offset;
  const Coord* soa;
  size_t soa_stride;
  size_t size;       // Entries (slots).
  size_t root_span;  // Slots per node of the root level.
  uint32_t height;   // Levels; the root level is height - 1.
  uint32_t dim;
  uint32_t lanes;
  uint32_t fanout;
};

// Probe walks over a BoundsTreeView, restricted to slots [0, slot_end).
// `p` is the probe padded to `lanes` coordinates with zeros. The caller
// guarantees height > 0 (and cap > 0 for the count). Each walk inlines
// its tier's node test, so a probe dispatches once, not once per node.
using TreeAnyDominatesFn = bool (*)(const BoundsTreeView& tree,
                                    const Coord* p, size_t slot_end);
// Counting stops at `cap`; the result is min(cap, dominators).
using TreeCountDominatorsFn = size_t (*)(const BoundsTreeView& tree,
                                         const Coord* p, size_t cap,
                                         size_t slot_end);

struct KernelTable {
  AnyDominatesFn any_dominates;
  CountDominatorsFn count_dominators;
  MarkDominatedByFn mark_dominated_by;
  MaskAnyDominatedFn mask_any_dominated;
  MaskInBoxFn mask_in_box;
  NodeTestFn node_test;
  TreeAnyDominatesFn tree_any_dominates;
  TreeCountDominatorsFn tree_count_dominators;
};

// The table for one tier (for tests/benches that pin a tier in-process).
const KernelTable& KernelTableFor(Isa isa);

// The table for ActiveIsa(); what the SoA* wrappers use.
const KernelTable& ActiveKernelTable();

// Vector kernels keep the sign-flipped probe in a fixed stack buffer;
// probes wider than this fall back to the scalar kernel (dominance tests
// at such dimensionality are region-pruned long before the inner loops
// matter).
inline constexpr uint32_t kMaxVectorDim = 64;

bool AnyDominatesScalar(const Coord* base, size_t stride, uint32_t dim,
                        size_t begin, size_t end, const Coord* p);
size_t CountDominatorsScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p);
size_t MarkDominatedByScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* p,
                             uint8_t* out);
size_t MaskAnyDominatedScalar(const Coord* base, size_t stride, uint32_t dim,
                              size_t begin, size_t end, const Coord* filt,
                              size_t filt_stride, size_t filt_size,
                              const MaskFilterPruning* pruning,
                              uint8_t* out);
size_t MaskInBoxScalar(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* lo,
                             const Coord* hi, uint8_t* out);
uint32_t NodeTestScalar(const Coord* bounds, uint32_t lanes, const Coord* p);
bool TreeAnyDominatesScalar(const BoundsTreeView& tree, const Coord* p,
                            size_t slot_end);
size_t TreeCountDominatorsScalar(const BoundsTreeView& tree, const Coord* p,
                                 size_t cap, size_t slot_end);

bool AnyDominatesSse42(const Coord* base, size_t stride, uint32_t dim,
                       size_t begin, size_t end, const Coord* p);
size_t CountDominatorsSse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p);
size_t MarkDominatedBySse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* p,
                            uint8_t* out);
size_t MaskAnyDominatedSse42(const Coord* base, size_t stride, uint32_t dim,
                             size_t begin, size_t end, const Coord* filt,
                             size_t filt_stride, size_t filt_size,
                             const MaskFilterPruning* pruning,
                             uint8_t* out);
size_t MaskInBoxSse42(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* lo,
                            const Coord* hi, uint8_t* out);
uint32_t NodeTestSse42(const Coord* bounds, uint32_t lanes, const Coord* p);
bool TreeAnyDominatesSse42(const BoundsTreeView& tree, const Coord* p,
                           size_t slot_end);
size_t TreeCountDominatorsSse42(const BoundsTreeView& tree, const Coord* p,
                                size_t cap, size_t slot_end);

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p);
size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p);
size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out);
size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning,
                            uint8_t* out);
size_t MaskInBoxAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* lo,
                           const Coord* hi, uint8_t* out);
uint32_t NodeTestAvx2(const Coord* bounds, uint32_t lanes, const Coord* p);
bool TreeAnyDominatesAvx2(const BoundsTreeView& tree, const Coord* p,
                          size_t slot_end);
size_t TreeCountDominatorsAvx2(const BoundsTreeView& tree, const Coord* p,
                               size_t cap, size_t slot_end);

}  // namespace zsky::simd

#endif  // ZSKY_COMMON_DOMINANCE_KERNELS_H_
