#ifndef ZSKY_CORE_DELTA_H_
#define ZSKY_CORE_DELTA_H_

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "algo/skyline.h"
#include "common/dataset_view.h"
#include "common/dominance_block.h"
#include "common/point_set.h"
#include "common/query_desc.h"

namespace zsky {

// The write-side state layered over one immutable base snapshot
// (docs/updates.md). A DeltaState is itself immutable once published:
// every mutation batch builds a new one copy-on-write — the O(delta)
// fields (`inserted` + its flags) are copied, the O(base)/O(skyline)
// fields (`base_alive`, `base_band`, `band_block`) are shared by pointer
// when the batch did not change them. In-flight queries therefore read a
// frozen, internally consistent delta no matter how many mutations land
// while they run.
//
// Logical row ids: base rows keep their ids 0..base_rows-1; delta row i
// has id base_rows + i. Deletes tombstone (the id stays assigned, the row
// stops existing logically); a merge compacts ids — alive base rows in
// ascending order followed by alive delta rows in insertion order — so
// ids are only stable between merges.
struct DeltaState {
  // Rows in the base snapshot this delta overlays.
  size_t base_rows = 0;

  // Rows inserted since the last merge / SetDataset, in insertion order.
  PointSet inserted{1};
  // Parallel to `inserted`: 0 = tombstoned delta row.
  std::vector<uint8_t> inserted_alive;
  // Parallel to `inserted`: 1 iff the row is alive AND no alive row (base
  // or delta) strictly dominates it — the delta's skyline candidates.
  // Kept exact (see RepairDeltaCandidates): exactness makes the
  // candidates mutually non-dominated, so the default full-space query is
  // answered from candidates + band alone, with no pipeline run.
  std::vector<uint8_t> inserted_candidate;
  size_t inserted_dead = 0;

  // Base tombstones: null = every base row alive; else base_rows entries,
  // 0 = deleted. Shared so insert-only batches never copy O(base) state.
  std::shared_ptr<const std::vector<uint8_t>> base_alive;
  size_t base_dead = 0;

  // The maintained full-space skyline of the ALIVE base rows (ascending
  // base row ids), and the same points' coordinates in an SoA block for
  // the SIMD dominance probes. Bootstrapped by the first mutation after
  // SetDataset, repaired by deletes (RepairBandAfterDeletes below);
  // inserts never change it — the base band deliberately excludes delta
  // rows.
  std::shared_ptr<const SkylineIndices> base_band;
  std::shared_ptr<const DominanceBlock> band_block;

  size_t alive_delta_rows() const { return inserted.size() - inserted_dead; }
  size_t alive_base_rows() const { return base_rows - base_dead; }
  // False for a band-only delta (as carried across a merge): the base is
  // the exact logical dataset and the band is its exact skyline.
  bool has_changes() const { return !inserted.empty() || base_dead > 0; }
  bool base_row_alive(size_t row) const {
    return base_alive == nullptr || (*base_alive)[row] != 0;
  }
};

// Exclusive-dominance-region repair of the band after a delete batch
// (docs/updates.md). `dead_band` lists the band members the batch killed
// (ascending base row ids, already tombstoned in `delta.base_alive`).
// A row can join the skyline only if every old band member dominating it
// died, so it lies inside some dead member's dominance region and outside
// every survivor's: one pass over the alive base rows keeps exactly those
// (the dead members' regions first — a branch-free test against a handful
// of points — then the survivors' SoA block), and the skyline of the kept
// rows is spliced into the surviving band. Chains inside the regions
// (d < s < r) are settled by that final skyline. Runs no pipeline; a
// columnar base streams through RowBlockCursor, so a budget-bounded
// mapping drops its pages behind the scan. Appends the dead members'
// coordinates to `killed` (for RepairDeltaCandidates).
void RepairBandAfterDeletes(const DatasetView& base, DeltaState& delta,
                            std::span<const uint32_t> dead_band,
                            DominanceBlock& killed);

// Restores exact `inserted_candidate` flags after a delete batch. `killed`
// holds the coordinates of the batch's dead band members and dead delta
// candidates; the band must already be repaired. A delete never retires
// a candidate (a resurfaced base row is dominated by a dead member that
// did not dominate the candidate). A non-candidate can become one only if
// a killed point strictly dominates it: its old skyline dominator is
// either still alive or one of those points. So only those rows are
// rechecked, against the band block and the alive delta rows.
void RepairDeltaCandidates(DeltaState& delta, const DominanceBlock& killed);

// The default (full-space, k = 1) skyline of base ∪ delta, as ascending
// logical ids: the candidates plus every band member no candidate
// dominates. Exact because the candidate flags are exact — candidates
// are mutually non-dominated and nothing else alive can appear in the
// skyline. O(band x candidates) SIMD, no pipeline run.
SkylineIndices DefaultSkylineWithDelta(const DeltaState& delta);

// Query-time overlay for non-default descs: re-counts the union of the
// base pipeline's result (`base_result`, base row ids — already exact for
// `desc` over the alive base) and every alive in-box delta row, in query
// space. Exact by the same drop-induction the pipeline's merge recount
// uses: a point the base band dropped retains >= k of its dominators
// inside `base_result`, so dominator counts over the union are >= k iff
// they are over the full dataset. Returns ascending logical ids.
SkylineIndices OverlayQueryRecount(const DatasetView& base,
                                   const DeltaState& delta,
                                   const SkylineIndices& base_result,
                                   const QueryDesc& desc, Coord max_coord,
                                   uint32_t bits, bool use_block_kernel);

}  // namespace zsky

#endif  // ZSKY_CORE_DELTA_H_
