#include "core/delta.h"

#include <algorithm>
#include <cmath>

#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "common/dominance.h"
#include "index/zsearch.h"
#include "zorder/zorder_codec.h"

namespace zsky {

namespace {

// A member's score in the witness-probe order: the log of the volume it
// dominates, with +1 so a coordinate at the domain's edge stays finite.
double DominatedVolumeScore(std::span<const Coord> p, Coord max_coord) {
  double score = 0.0;
  for (Coord x : p) score += std::log(static_cast<double>(max_coord - x) + 1.0);
  return score;
}

// True iff (score a, row a) comes before (score b, row b) in the witness
// order.
bool ProbesBefore(double score_a, uint32_t row_a, double score_b,
                  uint32_t row_b) {
  return score_a > score_b || (score_a == score_b && row_a < row_b);
}

// Positions 0..rows.size()-1 sorted into witness order.
std::vector<uint32_t> WitnessOrder(std::span<const uint32_t> rows,
                                   std::span<const double> scores) {
  std::vector<uint32_t> order(rows.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    return ProbesBefore(scores[a], rows[a], scores[b], rows[b]);
  });
  return order;
}

// Fills the probe order of `w` from members `rows` with coordinates
// `points` (parallel), which it sorts.
void FillOrder(BandWitnesses& w, std::span<const uint32_t> rows,
               const PointSet& points) {
  std::vector<double> scores(rows.size());
  for (size_t i = 0; i < rows.size(); ++i) {
    scores[i] = DominatedVolumeScore(points[i], w.max_coord);
  }
  w.order_rows.clear();
  w.order_scores.clear();
  w.order_block.Clear();
  w.order_rows.reserve(rows.size());
  w.order_scores.reserve(rows.size());
  w.order_block.Reserve(rows.size());
  for (uint32_t i : WitnessOrder(rows, scores)) {
    w.order_rows.push_back(rows[i]);
    w.order_scores.push_back(scores[i]);
    w.order_block.Append(points[i]);
  }
}

}  // namespace

void CoverBandMembers(DeltaState& delta, std::span<const Coord> p,
                      std::shared_ptr<std::vector<uint8_t>>& owned,
                      std::vector<uint8_t>& hits) {
  if (delta.band_block == nullptr ||
      delta.band_block->DominatedBitmap(p, hits) == 0) {
    return;
  }
  if (owned == nullptr) {
    owned = delta.band_covered != nullptr
                ? std::make_shared<std::vector<uint8_t>>(*delta.band_covered)
                : std::make_shared<std::vector<uint8_t>>(hits.size(),
                                                         uint8_t{0});
    delta.band_covered = owned;
  }
  std::vector<uint8_t>& covered = *owned;
  for (size_t j = 0; j < hits.size(); ++j) covered[j] |= hits[j];
}

std::shared_ptr<BandWitnesses> BootstrapWitnesses(
    const DatasetView& base, const SkylineIndices& band,
    const DominanceBlock& band_block, Coord max_coord, mr::WorkerPool* pool) {
  const uint32_t dim = base.dim();
  auto w = std::make_shared<BandWitnesses>(dim, max_coord);
  {
    PointSet members(dim);
    members.Reserve(band.size());
    std::vector<Coord> buf(dim);
    for (size_t j = 0; j < band.size(); ++j) {
      band_block.CopyPoint(j, buf);
      members.Append(buf);
    }
    FillOrder(*w, band, members);
  }
  const size_t n = base.size();
  if (n == band.size()) return w;

  // witness[r]: the probe-order position of row r's witness; band rows
  // are marked and skipped.
  constexpr uint32_t kMember = UINT32_MAX;
  std::vector<uint32_t> witness(n, 0);
  for (uint32_t r : band) witness[r] = kMember;
  constexpr size_t kTaskRows = 32768;
  const size_t tasks = (n + kTaskRows - 1) / kTaskRows;
  pool->Run(tasks, [&](size_t task) {
    const size_t begin = task * kTaskRows;
    RowBlockCursor cursor(base, begin, std::min(n, begin + kTaskRows));
    RowBlockCursor::Block block;
    while (cursor.Next(&block)) {
      for (size_t i = 0; i < block.rows; ++i) {
        const size_t row = block.first_row + i;
        if (witness[row] == kMember) continue;
        const size_t pos = w->order_block.FirstDominator(
            std::span<const Coord>(block.data + i * dim, dim));
        // The band is the exact skyline: every other row is dominated.
        ZSKY_CHECK(pos < w->order_rows.size());
        witness[row] = static_cast<uint32_t>(pos);
      }
    }
  });

  std::vector<std::vector<uint32_t>> lists(w->order_rows.size());
  for (size_t r = 0; r < n; ++r) {
    if (witness[r] != kMember) {
      lists[witness[r]].push_back(static_cast<uint32_t>(r));
    }
  }
  w->rows_of.reserve(lists.size());
  for (size_t pos = 0; pos < lists.size(); ++pos) {
    if (!lists[pos].empty()) {
      w->rows_of.emplace(w->order_rows[pos], std::move(lists[pos]));
    }
  }
  return w;
}

void RepairBandAfterDeletes(const DatasetView& base, DeltaState& delta,
                            std::span<const uint32_t> dead_band,
                            DominanceBlock& killed, WitnessMoves& moves) {
  const uint32_t dim = base.dim();
  const SkylineIndices& old_band = *delta.base_band;
  const BandWitnesses& w = *delta.witnesses;

  // Split the old band: the survivors keep their ids and their SoA
  // coordinates (a lane-wise compaction of the old block).
  std::vector<uint8_t> died(old_band.size(), 0);
  std::vector<Coord> buf(dim);
  for (uint32_t r : dead_band) {
    const size_t j = static_cast<size_t>(
        std::lower_bound(old_band.begin(), old_band.end(), r) -
        old_band.begin());
    died[j] = 1;
    delta.band_block->CopyPoint(j, buf);
    killed.Append(buf);
    moves.dead_scores.push_back(DominatedVolumeScore(buf, w.max_coord));
  }
  SkylineIndices survivors;
  survivors.reserve(old_band.size() - dead_band.size());
  const std::vector<uint8_t>* old_covered = delta.band_covered.get();
  std::vector<uint8_t> covered;  // Parallel to `survivors`, if tracked.
  for (size_t j = 0; j < old_band.size(); ++j) {
    if (died[j] != 0) continue;
    survivors.push_back(old_band[j]);
    if (old_covered != nullptr) covered.push_back((*old_covered)[j]);
  }
  DominanceBlock survivor_block = *delta.band_block;
  survivor_block.Remove(died);

  // Re-home the dead members' alive rows: the first survivor in witness
  // order that dominates a row becomes its witness. The probe order still
  // holds this batch's dead members (ApplyWitnessMoves drops them), so a
  // hit on one resumes the probe after it.
  moves.dead.assign(dead_band.begin(), dead_band.end());
  PointSet orphans(dim);
  std::vector<uint32_t> orphan_rows;
  for (uint32_t m : dead_band) {
    const auto it = w.rows_of.find(m);
    if (it == w.rows_of.end()) continue;
    for (uint32_t r : it->second) {
      if (!delta.base_row_alive(r)) continue;
      base.CopyRow(r, buf.data());
      size_t pos = w.order_block.FirstDominator(buf);
      while (pos < w.order_rows.size() &&
             !delta.base_row_alive(w.order_rows[pos])) {
        pos = w.order_block.FirstDominator(buf, pos + 1);
      }
      if (pos < w.order_rows.size()) {
        moves.moves.emplace_back(r, w.order_rows[pos]);
        ++moves.rehomed;
      } else {
        orphans.Append(buf);
        orphan_rows.push_back(r);
      }
    }
  }
  moves.orphans = orphan_rows.size();

  // The orphans' skyline joins the band; every other orphan is dominated
  // by one of those fresh members (no survivor dominates it) and moves to
  // the first in witness order.
  std::vector<uint32_t> fresh = SortBasedSkyline(orphans);
  moves.fresh_points = PointSet(dim);
  if (fresh.size() < orphan_rows.size()) {
    std::vector<uint8_t> is_fresh(orphan_rows.size(), 0);
    std::vector<uint32_t> fresh_rows;
    std::vector<double> fresh_scores;
    for (uint32_t f : fresh) {
      is_fresh[f] = 1;
      fresh_rows.push_back(orphan_rows[f]);
      fresh_scores.push_back(DominatedVolumeScore(orphans[f], w.max_coord));
    }
    DominanceBlock fresh_order(dim);
    std::vector<uint32_t> fresh_order_rows;
    for (uint32_t i : WitnessOrder(fresh_rows, fresh_scores)) {
      fresh_order.Append(orphans[fresh[i]]);
      fresh_order_rows.push_back(fresh_rows[i]);
    }
    for (size_t o = 0; o < orphan_rows.size(); ++o) {
      if (is_fresh[o] != 0) continue;
      const size_t pos = fresh_order.FirstDominator(orphans[o]);
      ZSKY_CHECK(pos < fresh_order_rows.size());
      moves.moves.emplace_back(orphan_rows[o], fresh_order_rows[pos]);
    }
  }
  // Splice the fresh members into the survivors in ascending row-id
  // order, building the new SoA block alongside. Most repairs resurface
  // nothing and keep the survivors.
  std::sort(fresh.begin(), fresh.end(), [&](uint32_t a, uint32_t b) {
    return orphan_rows[a] < orphan_rows[b];
  });
  for (uint32_t f : fresh) {
    moves.fresh.push_back(orphan_rows[f]);
    moves.fresh_points.Append(orphans[f]);
  }
  if (fresh.empty()) {
    delta.base_band = std::make_shared<SkylineIndices>(std::move(survivors));
    delta.band_block =
        std::make_shared<DominanceBlock>(std::move(survivor_block));
    if (old_covered != nullptr) {
      delta.band_covered =
          std::make_shared<std::vector<uint8_t>>(std::move(covered));
    }
    return;
  }
  auto band = std::make_shared<SkylineIndices>();
  auto band_block = std::make_shared<DominanceBlock>(dim);
  auto band_covered = std::make_shared<std::vector<uint8_t>>();
  band->reserve(survivors.size() + fresh.size());
  band_block->Reserve(survivors.size() + fresh.size());
  band_covered->reserve(survivors.size() + fresh.size());
  size_t s = 0;
  size_t f = 0;
  while (s < survivors.size() || f < moves.fresh.size()) {
    if (f == moves.fresh.size() ||
        (s < survivors.size() && survivors[s] < moves.fresh[f])) {
      survivor_block.CopyPoint(s, buf);
      band_covered->push_back(old_covered != nullptr ? covered[s] : 0);
      band->push_back(survivors[s++]);
      band_block->Append(buf);
    } else {
      band_covered->push_back(1);  // Pending RepairBandCovered.
      band->push_back(moves.fresh[f]);
      band_block->Append(moves.fresh_points[f++]);
    }
  }
  delta.base_band = std::move(band);
  delta.band_block = std::move(band_block);
  delta.band_covered = std::move(band_covered);
}

void ApplyWitnessMoves(BandWitnesses& w, const WitnessMoves& moves) {
  for (uint32_t m : moves.dead) w.rows_of.erase(m);
  for (const auto& [row, member] : moves.moves) {
    w.rows_of[member].push_back(row);
  }

  // The probe order loses the dead members, each found by a binary
  // search on its score, and gains the fresh ones.
  std::vector<uint8_t> died(w.order_rows.size(), 0);
  for (size_t d = 0; d < moves.dead.size(); ++d) {
    size_t lo = 0;
    size_t hi = w.order_rows.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      if (ProbesBefore(w.order_scores[mid], w.order_rows[mid],
                       moves.dead_scores[d], moves.dead[d])) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    ZSKY_CHECK(lo < w.order_rows.size() && w.order_rows[lo] == moves.dead[d]);
    died[lo] = 1;
  }
  if (moves.fresh.empty()) {
    size_t kept = 0;
    for (size_t i = 0; i < w.order_rows.size(); ++i) {
      if (died[i] != 0) continue;
      w.order_rows[kept] = w.order_rows[i];
      w.order_scores[kept++] = w.order_scores[i];
    }
    w.order_rows.resize(kept);
    w.order_scores.resize(kept);
    w.order_block.Remove(died);
    return;
  }
  // Merge the fresh members, sorted into witness order, into the
  // surviving order.
  std::vector<double> fresh_scores(moves.fresh.size());
  for (size_t f = 0; f < moves.fresh.size(); ++f) {
    fresh_scores[f] = DominatedVolumeScore(moves.fresh_points[f], w.max_coord);
  }
  const std::vector<uint32_t> fresh_order =
      WitnessOrder(moves.fresh, fresh_scores);
  const size_t n = w.order_rows.size();
  const size_t total = n - moves.dead.size() + moves.fresh.size();
  std::vector<uint32_t> rows;
  std::vector<double> scores;
  DominanceBlock block(w.order_block.dim());
  rows.reserve(total);
  scores.reserve(total);
  block.Reserve(total);
  std::vector<Coord> buf(w.order_block.dim());
  size_t i = 0;
  size_t f = 0;
  while (i < n || f < fresh_order.size()) {
    if (i < n && died[i] != 0) {
      ++i;
      continue;
    }
    if (f == fresh_order.size() ||
        (i < n && ProbesBefore(w.order_scores[i], w.order_rows[i],
                               fresh_scores[fresh_order[f]],
                               moves.fresh[fresh_order[f]]))) {
      w.order_block.CopyPoint(i, buf);
      block.Append(buf);
      rows.push_back(w.order_rows[i]);
      scores.push_back(w.order_scores[i++]);
    } else {
      const uint32_t x = fresh_order[f++];
      block.Append(moves.fresh_points[x]);
      rows.push_back(moves.fresh[x]);
      scores.push_back(fresh_scores[x]);
    }
  }
  w.order_rows = std::move(rows);
  w.order_scores = std::move(scores);
  w.order_block = std::move(block);
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

void RepairBandCovered(DeltaState& delta, const DominanceBlock& killed) {
  if (delta.band_covered == nullptr || killed.empty()) return;
  DominanceBlock candidates(delta.inserted.dim());
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_candidate[i] != 0) candidates.Append(delta.inserted[i]);
  }
  if (candidates.empty()) {
    delta.band_covered = nullptr;
    return;
  }
  auto covered = std::make_shared<std::vector<uint8_t>>(*delta.band_covered);
  std::vector<Coord> buf(delta.inserted.dim());
  for (size_t j = 0; j < covered->size(); ++j) {
    if ((*covered)[j] == 0) continue;
    delta.band_block->CopyPoint(j, buf);
    if (killed.AnyDominates(buf)) {
      (*covered)[j] = candidates.AnyDominates(buf) ? 1 : 0;
    }
  }
  delta.band_covered = std::move(covered);
}

SkylineIndices DefaultSkylineWithDelta(const DeltaState& delta) {
  SkylineIndices out;
  // Band members survive unless a candidate dominates them (the band is
  // already mutually non-dominated, and non-candidate delta rows are
  // dominated by something alive, hence — transitively — by a band member
  // or candidate, so they can never eject a band member a candidate
  // couldn't). `band_covered` records exactly that.
  if (delta.base_band != nullptr) {
    const SkylineIndices& band = *delta.base_band;
    const uint8_t* covered =
        delta.band_covered != nullptr ? delta.band_covered->data() : nullptr;
    out.reserve(band.size());
    for (size_t j = 0; j < band.size(); ++j) {
      if (covered == nullptr || covered[j] == 0) out.push_back(band[j]);
    }
  }
  // Band ids are ascending and < base_rows; candidate ids are ascending
  // (insertion order) and >= base_rows — the concatenation is sorted.
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_candidate[i] != 0) {
      out.push_back(static_cast<uint32_t>(delta.base_rows + i));
    }
  }
  return out;
}

std::shared_ptr<DeltaState> CarryAcrossMerge(const DeltaState& delta,
                                             const DatasetView& merged) {
  const uint32_t dim = merged.dim();
  auto carried = std::make_shared<DeltaState>();
  carried->base_rows = merged.size();
  carried->inserted = PointSet(dim);

  // The id compaction: alive base rows in ascending order, then alive
  // delta rows in insertion order.
  constexpr uint32_t kDead = UINT32_MAX;
  std::vector<uint32_t> base_id(delta.base_rows, kDead);
  uint32_t next_id = 0;
  for (size_t r = 0; r < delta.base_rows; ++r) {
    if (delta.base_row_alive(r)) base_id[r] = next_id++;
  }
  std::vector<uint32_t> delta_id(delta.inserted.size(), kDead);
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_alive[i] != 0) delta_id[i] = next_id++;
  }
  ZSKY_CHECK(next_id == merged.size());

  // The band: the exact skyline of the merged base is the default answer
  // over the pre-merge state, ascending (band ids below base_rows, then
  // candidates), and the compaction keeps that order.
  const SkylineIndices current = DefaultSkylineWithDelta(delta);
  auto band = std::make_shared<SkylineIndices>();
  auto block = std::make_shared<DominanceBlock>(dim);
  PointSet members(dim);
  band->reserve(current.size());
  block->Reserve(current.size());
  members.Reserve(current.size());
  std::vector<Coord> buf(dim);
  for (uint32_t id : current) {
    band->push_back(id < delta.base_rows ? base_id[id]
                                         : delta_id[id - delta.base_rows]);
    merged.CopyRow(band->back(), buf.data());
    block->Append(buf);
    members.Append(buf);
  }

  const BandWitnesses& old = *delta.witnesses;
  auto w = std::make_shared<BandWitnesses>(dim, old.max_coord);
  FillOrder(*w, *band, members);
  w->rows_of.reserve(old.rows_of.size());
  // A listed row keeps its witness; a covered member and its rows move to
  // a candidate that covers it.
  DominanceBlock candidates(dim);
  std::vector<uint32_t> candidate_ids;
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_candidate[i] != 0) {
      candidates.Append(delta.inserted[i]);
      candidate_ids.push_back(delta_id[i]);
    }
  }
  const SkylineIndices& old_band = *delta.base_band;
  for (size_t j = 0; j < old_band.size(); ++j) {
    const uint32_t member = old_band[j];
    const bool covered =
        delta.band_covered != nullptr && (*delta.band_covered)[j] != 0;
    const auto it = old.rows_of.find(member);
    if (!covered && it == old.rows_of.end()) continue;
    uint32_t owner = base_id[member];
    if (covered) {
      delta.band_block->CopyPoint(j, buf);
      const size_t c = candidates.FirstDominator(buf);
      ZSKY_CHECK(c < candidate_ids.size());
      owner = candidate_ids[c];
    }
    std::vector<uint32_t>& list = w->rows_of[owner];
    if (covered) list.push_back(base_id[member]);
    if (it == old.rows_of.end()) continue;
    for (uint32_t r : it->second) {
      if (base_id[r] != kDead) list.push_back(base_id[r]);
    }
  }
  // Each alive non-candidate delta row: one probe of the carried band.
  for (size_t i = 0; i < delta.inserted.size(); ++i) {
    if (delta.inserted_alive[i] == 0 || delta.inserted_candidate[i] != 0) {
      continue;
    }
    const size_t pos = w->order_block.FirstDominator(delta.inserted[i]);
    ZSKY_CHECK(pos < w->order_rows.size());
    w->rows_of[w->order_rows[pos]].push_back(delta_id[i]);
  }

  carried->base_band = std::move(band);
  carried->band_block = std::move(block);
  carried->witnesses = std::move(w);
  return carried;
}

std::vector<uint32_t> WitnessOfRows(const DeltaState& delta) {
  std::vector<uint32_t> out;
  if (delta.witnesses == nullptr) return out;
  out.assign(delta.base_rows, kNoWitness);
  for (const auto& [member, rows] : delta.witnesses->rows_of) {
    for (uint32_t r : rows) {
      if (delta.base_row_alive(r)) out[r] = member;
    }
  }
  return out;
}

SkylineIndices OverlayQueryRecount(const DatasetView& base,
                                   const DeltaState& delta,
                                   const SkylineIndices& base_result,
                                   const QueryDesc& desc, Coord max_coord,
                                   uint32_t bits) {
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
    kept = SortBasedSkyline(qpoints);
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
