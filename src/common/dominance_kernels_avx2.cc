// AVX2 dominance kernels: 8 points per __m256i, unsigned compares via the
// sign-flip trick (x < y unsigned  <=>  (x ^ MIN) < (y ^ MIN) signed).
// Only this TU is compiled with -mavx2; without compiler support it
// degrades to forwarding stubs (and runtime dispatch is hardware-gated
// regardless).

#include "common/dominance_kernels.h"

#if defined(__AVX2__)

#include "common/bounds_tree_walk.h"

#include <immintrin.h>

#include <algorithm>
#include <bit>

namespace zsky::simd {

namespace {

// Sign-flips the probe into `pf` so signed compares order unsigned
// coordinates. Returns false when the probe is too wide for the buffer.
inline bool FlipProbe(const Coord* p, uint32_t dim, int32_t* pf) {
  if (dim > kMaxVectorDim) return false;
  for (uint32_t k = 0; k < dim; ++k) {
    pf[k] = static_cast<int32_t>(p[k] ^ 0x80000000u);
  }
  return true;
}

}  // namespace

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return AnyDominatesScalar(base, stride, dim, begin, end, p);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    __m256i leq = _mm256_set1_epi32(-1);
    __m256i lt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      leq = _mm256_andnot_si256(_mm256_cmpgt_epi32(v, pk), leq);
      lt = _mm256_or_si256(lt, _mm256_cmpgt_epi32(pk, v));
      // No lane still <= the probe on every dimension seen: the whole
      // group is out, skip its remaining dimensions.
      if (_mm256_testz_si256(leq, leq)) break;
    }
    if (!_mm256_testz_si256(leq, lt)) return true;
  }
  return at < end && AnyDominatesScalar(base, stride, dim, at, end, p);
}

size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return CountDominatorsScalar(base, stride, dim, begin, end, p);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    __m256i leq = _mm256_set1_epi32(-1);
    __m256i lt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      leq = _mm256_andnot_si256(_mm256_cmpgt_epi32(v, pk), leq);
      lt = _mm256_or_si256(lt, _mm256_cmpgt_epi32(pk, v));
      if (_mm256_testz_si256(leq, leq)) break;
    }
    const __m256i dom = _mm256_and_si256(leq, lt);
    count += static_cast<size_t>(std::popcount(static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(dom)))));
  }
  if (at < end) {
    count += CountDominatorsScalar(base, stride, dim, at, end, p);
  }
  return count;
}

size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out) {
  int32_t pf[kMaxVectorDim];
  if (!FlipProbe(p, dim, pf)) {
    return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  size_t count = 0;
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    // Reversed orientation: flag stored points the probe dominates.
    __m256i geq = _mm256_set1_epi32(-1);
    __m256i gt = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      const __m256i pk = _mm256_set1_epi32(pf[k]);
      geq = _mm256_andnot_si256(_mm256_cmpgt_epi32(pk, v), geq);
      gt = _mm256_or_si256(gt, _mm256_cmpgt_epi32(v, pk));
      if (_mm256_testz_si256(geq, geq)) break;
    }
    const uint32_t mask = static_cast<uint32_t>(_mm256_movemask_ps(
        _mm256_castsi256_ps(_mm256_and_si256(geq, gt))));
    uint8_t* slab = out + (at - begin);
    for (uint32_t b = 0; b < 8; ++b) {
      slab[b] = static_cast<uint8_t>((mask >> b) & 1u);
    }
    count += static_cast<size_t>(std::popcount(mask));
  }
  if (at < end) {
    count += MarkDominatedByScalar(base, stride, dim, at, end, p,
                                   out + (at - begin));
  }
  return count;
}

size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning, uint8_t* out) {
  if (dim > kMaxVectorDim) {
    return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                  filt_stride, filt_size, pruning, out);
  }
  // Per-row orientation: gather the row straight out of the SoA columns
  // (no transpose buffer), then scan the filter with the AnyDominates
  // structure, which compares the row against 8 filter points per op and
  // exits at the first dominator — dominated rows retire within a vector
  // or two. Undominated rows are the expensive case (a full-block proof);
  // with `pruning` the supertile min-check runs first, 8 supertiles per
  // vector op, then the 8 tiles of each qualifying supertile get one more
  // vector min-check, and only tiles whose min is <= the row in every
  // dimension get their points scanned.
  // The alternative orientation (pin an 8-row wave group in registers and
  // stream filter points past it with set1 broadcasts) does ~dim× more
  // vector work per (row, filter) pair and can only exit once ALL eight
  // rows are dominated; it measured ~3× slower end to end.
  static_assert(kMaskTilesPerSuper == 8,
                "supertile tile group must fill one __m256i");
  Coord row[kMaxVectorDim];
  int32_t pf[kMaxVectorDim];
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const size_t num_tiles =
      (filt_size + kMaskTilePoints - 1) / kMaskTilePoints;
  const size_t num_supers =
      (num_tiles + kMaskTilesPerSuper - 1) / kMaskTilesPerSuper;
  size_t count = 0;
  for (size_t i = begin; i < end; ++i) {
    for (uint32_t k = 0; k < dim; ++k) {
      row[k] = base[k * stride + i];
      pf[k] = static_cast<int32_t>(row[k] ^ 0x80000000u);
    }
    bool dom = false;
    if (pruning != nullptr) {
      for (size_t sg = 0; sg < num_supers && !dom; sg += 8) {
        // 8 supertiles at once: a lane stays set while its supertile min
        // is <= the row on every dimension seen so far. The group load is
        // always in-bounds (super_stride is padded to a multiple of 8).
        __m256i smay = _mm256_set1_epi32(-1);
        for (uint32_t k = 0; k < dim; ++k) {
          const __m256i mins = _mm256_xor_si256(
              _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                  pruning->super_mins + k * pruning->super_stride + sg)),
              sign);
          const __m256i pk = _mm256_set1_epi32(pf[k]);
          smay = _mm256_andnot_si256(_mm256_cmpgt_epi32(mins, pk), smay);
          if (_mm256_testz_si256(smay, smay)) break;
        }
        uint32_t sm = static_cast<uint32_t>(
            _mm256_movemask_ps(_mm256_castsi256_ps(smay)));
        // An all-max row qualifies the ~0u padding lanes too; drop them —
        // their tile groups sit past the end of tile_mins.
        if (num_supers - sg < 8) sm &= (1u << (num_supers - sg)) - 1u;
        while (sm != 0 && !dom) {
          const size_t s = sg + static_cast<size_t>(std::countr_zero(sm));
          sm &= sm - 1;
          // The supertile's 8 tiles in one vector min-check; in-bounds by
          // the tile_stride == num_supers * kMaskTilesPerSuper invariant.
          const size_t tbase = s * kMaskTilesPerSuper;
          __m256i may = _mm256_set1_epi32(-1);
          for (uint32_t k = 0; k < dim; ++k) {
            const __m256i mins = _mm256_xor_si256(
                _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                    pruning->tile_mins + k * pruning->tile_stride + tbase)),
                sign);
            const __m256i pk = _mm256_set1_epi32(pf[k]);
            may = _mm256_andnot_si256(_mm256_cmpgt_epi32(mins, pk), may);
            if (_mm256_testz_si256(may, may)) break;
          }
          uint32_t qm = static_cast<uint32_t>(
              _mm256_movemask_ps(_mm256_castsi256_ps(may)));
          while (qm != 0 && !dom) {
            const size_t t = tbase + static_cast<size_t>(std::countr_zero(qm));
            qm &= qm - 1;
            const size_t t0 = t * kMaskTilePoints;
            const size_t t1 = std::min(filt_size, t0 + kMaskTilePoints);
            // A qualifying padding tile (possible for the same all-max
            // rows) has an empty range; skip it.
            if (t0 < t1) {
              dom = AnyDominatesAvx2(filt, filt_stride, dim, t0, t1, row);
            }
          }
        }
      }
    } else {
      dom = AnyDominatesAvx2(filt, filt_stride, dim, 0, filt_size, row);
    }
    out[i - begin] = static_cast<uint8_t>(dom);
    count += static_cast<size_t>(dom);
  }
  return count;
}

size_t MaskInBoxAvx2(const Coord* base, size_t stride, uint32_t dim,
                     size_t begin, size_t end, const Coord* lo,
                     const Coord* hi, uint8_t* out) {
  int32_t lof[kMaxVectorDim];
  int32_t hif[kMaxVectorDim];
  if (!FlipProbe(lo, dim, lof) || !FlipProbe(hi, dim, hif)) {
    return MaskInBoxScalar(base, stride, dim, begin, end, lo, hi, out);
  }
  const __m256i sign = _mm256_set1_epi32(INT32_MIN);
  const __m128i one = _mm_set1_epi8(1);
  size_t count = 0;
  size_t at = begin;
  for (; at + 8 <= end; at += 8) {
    // Lanes below lo or above hi on some dimension seen so far.
    __m256i outside = _mm256_setzero_si256();
    for (uint32_t k = 0; k < dim; ++k) {
      const __m256i v = _mm256_xor_si256(
          _mm256_loadu_si256(
              reinterpret_cast<const __m256i*>(base + k * stride + at)),
          sign);
      outside = _mm256_or_si256(
          outside,
          _mm256_or_si256(_mm256_cmpgt_epi32(_mm256_set1_epi32(lof[k]), v),
                          _mm256_cmpgt_epi32(v, _mm256_set1_epi32(hif[k]))));
    }
    const __m256i in = _mm256_andnot_si256(outside, _mm256_set1_epi32(-1));
    // Narrow the 8 all-ones/zero lanes to 0/1 bytes.
    const __m128i w = _mm_packs_epi32(_mm256_castsi256_si128(in),
                                      _mm256_extracti128_si256(in, 1));
    _mm_storel_epi64(reinterpret_cast<__m128i*>(out + (at - begin)),
                     _mm_and_si128(_mm_packs_epi16(w, w), one));
    count += static_cast<size_t>(std::popcount(static_cast<uint32_t>(
        _mm256_movemask_ps(_mm256_castsi256_ps(in)))));
  }
  if (at < end) {
    count += MaskInBoxScalar(base, stride, dim, at, end, lo, hi,
                             out + (at - begin));
  }
  return count;
}

uint32_t NodeTestAvx2(const Coord* bounds, uint32_t lanes, const Coord* p) {
  // Unsigned a <= b  <=>  min(a, b) == a: no sign flip needed.
  const __m256i ones = _mm256_set1_epi32(-1);
  __m256i leq = ones;
  __m256i eq = ones;
  for (uint32_t k = 0; k < lanes; k += 8) {
    const __m256i vp =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + k));
    const __m256i vmin =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(bounds + k));
    if (!_mm256_testc_si256(
            _mm256_cmpeq_epi32(_mm256_min_epu32(vmin, vp), vmin), ones)) {
      return 0;
    }
    const __m256i vmax = _mm256_loadu_si256(
        reinterpret_cast<const __m256i*>(bounds + lanes + k));
    leq = _mm256_and_si256(
        leq, _mm256_cmpeq_epi32(_mm256_min_epu32(vmax, vp), vmax));
    eq = _mm256_and_si256(eq, _mm256_cmpeq_epi32(vmax, vp));
  }
  const bool all = _mm256_testc_si256(leq, ones) &&
                   !_mm256_testc_si256(eq, ones);
  return kNodeMayHoldDominator | (all ? kNodeAllDominate : 0u);
}

namespace {

struct Avx2Tier {
  static uint32_t NodeTest(const Coord* bounds, uint32_t lanes,
                           const Coord* p) {
    return NodeTestAvx2(bounds, lanes, p);
  }
  static bool LeafAny(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p) {
    return AnyDominatesAvx2(base, stride, dim, begin, end, p);
  }
  static size_t LeafCount(const Coord* base, size_t stride, uint32_t dim,
                          size_t begin, size_t end, const Coord* p) {
    return CountDominatorsAvx2(base, stride, dim, begin, end, p);
  }
};

}  // namespace

bool TreeAnyDominatesAvx2(const BoundsTreeView& tree, const Coord* p,
                          size_t slot_end) {
  return BoundsTreeWalk<Avx2Tier>(tree, p, slot_end).Any();
}

size_t TreeCountDominatorsAvx2(const BoundsTreeView& tree, const Coord* p,
                               size_t cap, size_t slot_end) {
  return BoundsTreeWalk<Avx2Tier>(tree, p, slot_end).Count(cap);
}

}  // namespace zsky::simd

#else  // !defined(__AVX2__)

namespace zsky::simd {

bool AnyDominatesAvx2(const Coord* base, size_t stride, uint32_t dim,
                      size_t begin, size_t end, const Coord* p) {
  return AnyDominatesScalar(base, stride, dim, begin, end, p);
}

size_t CountDominatorsAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p) {
  return CountDominatorsScalar(base, stride, dim, begin, end, p);
}

size_t MarkDominatedByAvx2(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* p,
                           uint8_t* out) {
  return MarkDominatedByScalar(base, stride, dim, begin, end, p, out);
}

size_t MaskAnyDominatedAvx2(const Coord* base, size_t stride, uint32_t dim,
                            size_t begin, size_t end, const Coord* filt,
                            size_t filt_stride, size_t filt_size,
                            const MaskFilterPruning* pruning, uint8_t* out) {
  return MaskAnyDominatedScalar(base, stride, dim, begin, end, filt,
                                filt_stride, filt_size, pruning, out);
}

size_t MaskInBoxAvx2(const Coord* base, size_t stride, uint32_t dim,
                     size_t begin, size_t end, const Coord* lo,
                     const Coord* hi, uint8_t* out) {
  return MaskInBoxScalar(base, stride, dim, begin, end, lo, hi, out);
}

uint32_t NodeTestAvx2(const Coord* bounds, uint32_t lanes, const Coord* p) {
  return NodeTestScalar(bounds, lanes, p);
}

bool TreeAnyDominatesAvx2(const BoundsTreeView& tree, const Coord* p,
                          size_t slot_end) {
  return TreeAnyDominatesScalar(tree, p, slot_end);
}

size_t TreeCountDominatorsAvx2(const BoundsTreeView& tree, const Coord* p,
                               size_t cap, size_t slot_end) {
  return TreeCountDominatorsScalar(tree, p, cap, slot_end);
}

}  // namespace zsky::simd

#endif  // defined(__AVX2__)
