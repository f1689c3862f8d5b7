#include "common/dominance_block.h"

#include <algorithm>

#include "common/dominance_kernels.h"

namespace zsky {

namespace simd {

namespace {

constexpr KernelTable kScalarTable = {
    AnyDominatesScalar,       CountDominatorsScalar,
    MarkDominatedByScalar,    MaskAnyDominatedScalar,
    MaskInBoxScalar,          NodeTestScalar,
    TreeAnyDominatesScalar,   TreeCountDominatorsScalar};
constexpr KernelTable kSse42Table = {
    AnyDominatesSse42,       CountDominatorsSse42,
    MarkDominatedBySse42,    MaskAnyDominatedSse42,
    MaskInBoxSse42,          NodeTestSse42,
    TreeAnyDominatesSse42,   TreeCountDominatorsSse42};
constexpr KernelTable kAvx2Table = {
    AnyDominatesAvx2,       CountDominatorsAvx2,
    MarkDominatedByAvx2,    MaskAnyDominatedAvx2,
    MaskInBoxAvx2,          NodeTestAvx2,
    TreeAnyDominatesAvx2,   TreeCountDominatorsAvx2};

}  // namespace

const KernelTable& KernelTableFor(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return kScalarTable;
    case Isa::kSse42:
      return kSse42Table;
    case Isa::kAvx2:
      return kAvx2Table;
  }
  return kScalarTable;
}

const KernelTable& ActiveKernelTable() { return KernelTableFor(ActiveIsa()); }

}  // namespace simd

bool SoAAnyDominates(const Coord* base, size_t stride, uint32_t dim,
                     size_t begin, size_t end, std::span<const Coord> p) {
  ZSKY_DCHECK(p.size() == dim);
  return simd::ActiveKernelTable().any_dominates(base, stride, dim, begin,
                                                 end, p.data());
}

size_t SoACountDominators(const Coord* base, size_t stride, uint32_t dim,
                          size_t begin, size_t end, std::span<const Coord> p) {
  ZSKY_DCHECK(p.size() == dim);
  return simd::ActiveKernelTable().count_dominators(base, stride, dim, begin,
                                                    end, p.data());
}

size_t SoAMarkDominatedBy(const Coord* base, size_t stride, uint32_t dim,
                          size_t begin, size_t end, std::span<const Coord> p,
                          uint8_t* out) {
  ZSKY_DCHECK(p.size() == dim);
  return simd::ActiveKernelTable().mark_dominated_by(base, stride, dim, begin,
                                                     end, p.data(), out);
}

size_t SoAMaskAnyDominated(const Coord* base, size_t stride, uint32_t dim,
                           size_t begin, size_t end, const Coord* filt,
                           size_t filt_stride, size_t filt_size,
                           const simd::MaskFilterPruning* pruning,
                           uint8_t* out) {
  if (filt_size == 0) {
    std::fill_n(out, end - begin, uint8_t{0});
    return 0;
  }
  return simd::ActiveKernelTable().mask_any_dominated(
      base, stride, dim, begin, end, filt, filt_stride, filt_size, pruning,
      out);
}

size_t SoAMaskInBox(const Coord* base, size_t stride, uint32_t dim,
                    size_t begin, size_t end, const Coord* lo,
                    const Coord* hi, uint8_t* out) {
  return simd::ActiveKernelTable().mask_in_box(base, stride, dim, begin, end,
                                               lo, hi, out);
}

namespace {

// Morton key of a point: coordinate bits interleaved MSB-first across
// dimensions, truncated to 64 bits. Only used to ORDER the filter copy —
// nearby keys mean componentwise-similar points, which keeps the tile
// minima tight — so truncation costs selectivity at worst, never
// correctness.
uint64_t MortonKey(const std::vector<Coord>& p, uint32_t dim) {
  uint64_t key = 0;
  uint32_t out_bits = 0;
  for (int b = 31; b >= 0 && out_bits < 64; --b) {
    for (uint32_t k = 0; k < dim && out_bits < 64; ++k) {
      key = (key << 1) | ((p[k] >> b) & 1u);
      ++out_bits;
    }
  }
  return key;
}

}  // namespace

MaskFilterIndex::MaskFilterIndex(const DominanceBlock& src)
    : block(src.dim()) {
  const size_t n = src.size();
  const uint32_t dim = src.dim();
  std::vector<std::pair<uint64_t, uint32_t>> order(n);
  std::vector<Coord> p(dim);
  for (size_t i = 0; i < n; ++i) {
    src.CopyPoint(i, p);
    order[i] = {MortonKey(p, dim), static_cast<uint32_t>(i)};
  }
  // The index tiebreak keeps the copy deterministic for equal keys.
  std::sort(order.begin(), order.end());
  block.Reserve(n);
  const size_t num_tiles =
      (n + simd::kMaskTilePoints - 1) / simd::kMaskTilePoints;
  const size_t num_supers =
      (num_tiles + simd::kMaskTilesPerSuper - 1) / simd::kMaskTilesPerSuper;
  // num_supers * kMaskTilesPerSuper == round_up(num_tiles, 8) — which makes
  // the 8-lane tile group of every supertile a full in-bounds load.
  tile_stride = num_supers * simd::kMaskTilesPerSuper;
  tile_mins.assign(tile_stride * dim, ~Coord{0});
  super_stride = (num_supers + 7) & ~size_t{7};
  super_mins.assign(super_stride * dim, ~Coord{0});
  for (size_t at = 0; at < n; ++at) {
    src.CopyPoint(order[at].second, p);
    block.Append(p);
    const size_t t = at / simd::kMaskTilePoints;
    const size_t s = t / simd::kMaskTilesPerSuper;
    for (uint32_t k = 0; k < dim; ++k) {
      Coord& m = tile_mins[k * tile_stride + t];
      m = std::min(m, p[k]);
      Coord& sm = super_mins[k * super_stride + s];
      sm = std::min(sm, p[k]);
    }
  }
}

void DominanceBlock::Regrow(size_t min_capacity) {
  size_t grown = std::max<size_t>(kDominanceTile, capacity_ * 2);
  while (grown < min_capacity) grown *= 2;
  std::vector<Coord> data(grown * dim_);
  for (uint32_t k = 0; k < dim_; ++k) {
    std::copy_n(data_.data() + k * capacity_, size_, data.data() + k * grown);
  }
  data_ = std::move(data);
  capacity_ = grown;
}

void DominanceBlock::Append(std::span<const Coord> p) {
  ZSKY_DCHECK(p.size() == dim_);
  if (size_ == capacity_) Regrow(size_ + 1);
  for (uint32_t k = 0; k < dim_; ++k) {
    data_[k * capacity_ + size_] = p[k];
  }
  ++size_;
}

void DominanceBlock::AppendAll(const PointSet& points) {
  ZSKY_DCHECK(points.dim() == dim_);
  const size_t n = points.size();
  if (n == 0) return;
  Reserve(size_ + n);
  // One pass per lane: contiguous writes, fixed-stride reads from the
  // row-major source.
  const Coord* src = points.raw().data();
  for (uint32_t k = 0; k < dim_; ++k) {
    Coord* lane = data_.data() + k * capacity_ + size_;
    const Coord* in = src + k;
    for (size_t i = 0; i < n; ++i) {
      lane[i] = in[i * dim_];
    }
  }
  size_ += n;
}

size_t DominanceBlock::DominatedBitmap(std::span<const Coord> p,
                                       std::vector<uint8_t>& out) const {
  out.assign(size_, 0);
  if (size_ == 0) return 0;
  return SoAMarkDominatedBy(data_.data(), capacity_, dim_, 0, size_, p,
                            out.data());
}

size_t DominanceBlock::FirstDominator(std::span<const Coord> p,
                                      size_t from) const {
  ZSKY_DCHECK(p.size() == dim_);
  for (size_t begin = from; begin < size_; begin += kDominanceTile) {
    const size_t end = std::min(size_, begin + kDominanceTile);
    if (!SoAAnyDominates(data_.data(), capacity_, dim_, begin, end, p)) {
      continue;
    }
    for (size_t i = begin; i < end; ++i) {
      bool all_le = true;
      bool any_lt = false;
      for (uint32_t k = 0; k < dim_ && all_le; ++k) {
        const Coord c = data_[k * capacity_ + i];
        all_le = c <= p[k];
        any_lt |= c < p[k];
      }
      if (all_le && any_lt) return i;
    }
  }
  return size_;
}

void DominanceBlock::Remove(const std::vector<uint8_t>& flags) {
  ZSKY_DCHECK(flags.size() == size_);
  // Removals are usually a few points of a large block: find them once,
  // then close each lane's gaps by moving the runs between them.
  std::vector<size_t> gone;
  for (size_t i = 0; i < size_; ++i) {
    if (flags[i]) gone.push_back(i);
  }
  if (gone.empty()) return;
  for (uint32_t k = 0; k < dim_; ++k) {
    Coord* lane = data_.data() + k * capacity_;
    size_t kept = gone[0];
    for (size_t g = 0; g < gone.size(); ++g) {
      const size_t end = g + 1 < gone.size() ? gone[g + 1] : size_;
      std::copy(lane + gone[g] + 1, lane + end, lane + kept);
      kept += end - gone[g] - 1;
    }
  }
  size_ -= gone.size();
}

void DominanceBlock::CopyPoint(size_t i, std::span<Coord> out) const {
  ZSKY_DCHECK(i < size_ && out.size() == dim_);
  for (uint32_t k = 0; k < dim_; ++k) {
    out[k] = data_[k * capacity_ + i];
  }
}

}  // namespace zsky
