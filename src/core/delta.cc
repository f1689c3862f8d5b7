#include "core/delta.h"

#include <algorithm>

#include "algo/skyband.h"
#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "common/dominance.h"
#include "zorder/zorder_codec.h"

namespace zsky {

namespace {

// Sets in_region[i] for every row-major row p of `rows` that `d` weakly
// dominates (d <= p on every dimension). Branch-free, and restrict-
// qualified so the byte stores cannot alias the coordinates: the compiler
// keeps `d` in registers and vectorizes the compares.
void MarkWeaklyDominated(const Coord* __restrict d,
                         const Coord* __restrict rows, size_t n, uint32_t dim,
                         uint8_t* __restrict in_region) {
  for (size_t i = 0; i < n; ++i) {
    const Coord* p = rows + i * dim;
    uint32_t outside = 0;
    for (uint32_t k = 0; k < dim; ++k) outside |= p[k] < d[k];
    in_region[i] |= static_cast<uint8_t>(outside == 0);
  }
}

}  // namespace

void RepairBandAfterDeletes(const DatasetView& base, DeltaState& delta,
                            std::span<const uint32_t> dead_band,
                            DominanceBlock& killed) {
  const uint32_t dim = base.dim();
  const SkylineIndices& old_band = *delta.base_band;

  // Split the old band: the survivors keep their ids and their SoA
  // coordinates (a lane-wise compaction of the old block); the dead
  // members' coordinates define the regions.
  std::vector<uint8_t> died(old_band.size(), 0);
  PointSet dead(dim);
  std::vector<Coord> buf(dim);
  for (uint32_t r : dead_band) {
    const size_t j = static_cast<size_t>(
        std::lower_bound(old_band.begin(), old_band.end(), r) -
        old_band.begin());
    died[j] = 1;
    delta.band_block->CopyPoint(j, buf);
    dead.Append(buf);
    killed.Append(buf);
  }
  SkylineIndices survivors;
  survivors.reserve(old_band.size() - dead_band.size());
  for (size_t j = 0; j < old_band.size(); ++j) {
    if (died[j] == 0) survivors.push_back(old_band[j]);
  }
  DominanceBlock survivor_block = *delta.band_block;
  survivor_block.Remove(died);

  // Keep the alive rows inside some dead member's region and outside
  // every survivor's, one chunk of the scan at a time. The region test is
  // a branch-free pass per dead member; only the few percent of rows it
  // flags reach the exact check and the survivor probe. No survivor is in
  // a region: the band is mutually non-dominated.
  constexpr size_t kChunkRows = 4096;
  std::vector<uint8_t> in_region(kChunkRows);
  PointSet kept(dim);
  std::vector<uint32_t> kept_rows;
  const uint8_t* alive =
      delta.base_alive != nullptr ? delta.base_alive->data() : nullptr;
  RowBlockCursor cursor(base, 0, base.size());
  RowBlockCursor::Block block;
  while (cursor.Next(&block)) {
    for (size_t c0 = 0; c0 < block.rows; c0 += kChunkRows) {
      const size_t rows = std::min(kChunkRows, block.rows - c0);
      const Coord* data = block.data + c0 * dim;
      std::fill_n(in_region.begin(), rows, uint8_t{0});
      for (size_t m = 0; m < dead.size(); ++m) {
        MarkWeaklyDominated(dead[m].data(), data, rows, dim,
                            in_region.data());
      }
      for (size_t i = 0; i < rows; ++i) {
        const size_t row = block.first_row + c0 + i;
        if (in_region[i] == 0 || (alive != nullptr && alive[row] == 0)) {
          continue;
        }
        const std::span<const Coord> p(data + i * dim, dim);
        bool strictly = false;
        for (size_t m = 0; m < dead.size() && !strictly; ++m) {
          strictly = Dominates(dead[m], p);
        }
        if (!strictly || survivor_block.AnyDominates(p)) continue;
        kept.Append(p);
        kept_rows.push_back(static_cast<uint32_t>(row));
      }
    }
  }

  // Splice the kept rows' skyline (ascending indices into `kept`, hence
  // ascending row ids) into the survivors, building the new SoA block in
  // the same order. Most repairs resurface nothing and keep the survivors.
  const SkylineIndices fresh = SortBasedSkyline(kept);
  if (fresh.empty()) {
    delta.base_band = std::make_shared<SkylineIndices>(std::move(survivors));
    delta.band_block =
        std::make_shared<DominanceBlock>(std::move(survivor_block));
    return;
  }
  auto band = std::make_shared<SkylineIndices>();
  auto band_block = std::make_shared<DominanceBlock>(dim);
  band->reserve(survivors.size() + fresh.size());
  band_block->Reserve(survivors.size() + fresh.size());
  size_t s = 0;
  size_t f = 0;
  while (s < survivors.size() || f < fresh.size()) {
    if (f == fresh.size() ||
        (s < survivors.size() && survivors[s] < kept_rows[fresh[f]])) {
      survivor_block.CopyPoint(s, buf);
      band->push_back(survivors[s++]);
      band_block->Append(buf);
    } else {
      band->push_back(kept_rows[fresh[f]]);
      band_block->Append(kept[fresh[f++]]);
    }
  }
  delta.base_band = std::move(band);
  delta.band_block = std::move(band_block);
}

void RepairDeltaCandidates(DeltaState& delta, const DominanceBlock& killed) {
  if (killed.empty()) return;
  const size_t n = delta.inserted.size();
  for (size_t i = 0; i < n; ++i) {
    if (delta.inserted_alive[i] == 0 || delta.inserted_candidate[i] != 0) {
      continue;
    }
    const std::span<const Coord> p = delta.inserted[i];
    if (!killed.AnyDominates(p) || delta.band_block->AnyDominates(p)) {
      continue;
    }
    bool dominated = false;
    for (size_t j = 0; j < n && !dominated; ++j) {
      if (j == i || delta.inserted_alive[j] == 0) continue;
      dominated = Dominates(delta.inserted[j], p);
    }
    if (!dominated) delta.inserted_candidate[i] = 1;
  }
}

SkylineIndices DefaultSkylineWithDelta(const DeltaState& delta) {
  SkylineIndices out;
  // The candidates, as one SoA block for the band-side probes.
  DominanceBlock candidates(delta.inserted.dim());
  std::vector<uint32_t> candidate_ids;
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_candidate[i] == 0) continue;
    candidates.Append(delta.inserted[i]);
    candidate_ids.push_back(static_cast<uint32_t>(delta.base_rows + i));
  }
  // Band members survive unless a candidate dominates them (the band is
  // already mutually non-dominated, and non-candidate delta rows are
  // dominated by something alive, hence — transitively — by a band member
  // or candidate, so they can never eject a band member a candidate
  // couldn't).
  if (delta.base_band != nullptr && !delta.base_band->empty()) {
    const SkylineIndices& band = *delta.base_band;
    std::vector<Coord> buf(delta.inserted.dim());
    for (size_t j = 0; j < band.size(); ++j) {
      delta.band_block->CopyPoint(j, buf);
      if (candidates.empty() || !candidates.AnyDominates(buf)) {
        out.push_back(band[j]);
      }
    }
  }
  // Band ids are ascending and < base_rows; candidate ids are ascending
  // (insertion order) and >= base_rows — the concatenation is sorted.
  out.insert(out.end(), candidate_ids.begin(), candidate_ids.end());
  return out;
}

SkylineIndices OverlayQueryRecount(const DatasetView& base,
                                   const DeltaState& delta,
                                   const SkylineIndices& base_result,
                                   const QueryDesc& desc, Coord max_coord,
                                   uint32_t bits, bool use_block_kernel) {
  const uint32_t dim = base.dim();
  const std::vector<uint32_t> dims = desc.EffectiveDims(dim);
  const std::vector<uint8_t> flips = desc.EffectiveFlips(dim);
  bool any_flip = false;
  for (uint8_t f : flips) any_flip |= (f != 0);
  const bool identity = !any_flip && dims.size() == dim;
  const uint32_t qdim = static_cast<uint32_t>(dims.size());

  // The union, transformed into query space, with logical ids alongside.
  PointSet qpoints(qdim);
  std::vector<uint32_t> ids;
  qpoints.Reserve(base_result.size() + delta.alive_delta_rows());
  std::vector<Coord> orig(dim);
  std::vector<Coord> proj(qdim);
  auto append = [&](std::span<const Coord> p, uint32_t id) {
    if (identity) {
      qpoints.Append(p);
    } else {
      ProjectRowInto(p, dims, flips, max_coord, proj);
      qpoints.Append(proj);
    }
    ids.push_back(id);
  };
  for (uint32_t r : base_result) {
    base.CopyRow(r, orig.data());
    append(orig, r);
  }
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_alive[i] == 0) continue;
    const std::span<const Coord> p = delta.inserted[i];
    if (!desc.InBox(p)) continue;
    append(p, static_cast<uint32_t>(delta.base_rows + i));
  }

  SkylineIndices kept;
  if (qpoints.empty()) return kept;
  if (desc.k <= 1) {
    kept = SortBasedSkyline(qpoints, use_block_kernel);
  } else {
    const ZOrderCodec codec(qdim, bits);
    kept = ZOrderSkyband(codec, qpoints, desc.k);
  }
  SkylineIndices out;
  out.reserve(kept.size());
  for (uint32_t i : kept) out.push_back(ids[i]);
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace zsky
