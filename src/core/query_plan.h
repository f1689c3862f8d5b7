#ifndef ZSKY_CORE_QUERY_PLAN_H_
#define ZSKY_CORE_QUERY_PLAN_H_

#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>

#include "common/dataset_view.h"
#include "common/dominance_block.h"
#include "common/point_set.h"
#include "common/query_desc.h"
#include "core/options.h"
#include "index/zbtree.h"
#include "partition/grid_partitioner.h"
#include "partition/partitioner.h"
#include "partition/zorder_grouping.h"
#include "zorder/zorder_codec.h"

namespace zsky {

struct PreparedPlan;

// The SZB mapper filter over a sample band: for k == 1 (`band` is a
// dominance-free skyline) the batched DominanceBlock head + ZB-tree
// overflow; for k > 1 (`band` is a k-band) a pure ZB-tree, since the probe
// is CountDominatorsOf rather than an exists-test. Built by the plan, by
// plan variants, and per query for the constrained in-box filter
// (pipeline.cc) — one construction path for all three.
struct SzbFilter {
  std::optional<DominanceBlock> block;
  std::unique_ptr<ZBTree> tree;

  bool empty() const { return !block.has_value() && tree == nullptr; }
};

SzbFilter BuildSzbFilter(const ZOrderCodec* codec, const PointSet& band,
                         uint32_t k, const ZBTree::Options& tree_options);

// One cached per-shape derivation of a PreparedPlan (see
// common/query_desc.h for the shape/box split): the Z-order codec
// re-derived over the projected (and direction-flipped) dims, a
// partitioner learned from the transformed sample, and the k-aware sample
// band + mapper filter. Built lazily by PreparedPlan::Variant() and shared
// by every query whose desc has the same canonical shape.
//
// The constraint box is deliberately NOT part of a variant: boxes are
// per-query state (the pipeline derives the in-box filter and its region
// counts at query time), so a desc that only changes the
// box reuses both the plan and its variant — the warm-path invariant.
//
// For the identity projection (all dims, no flips) the codec and
// partitioner fields stay null and consumers fall back to the base plan's
// artifacts; nothing is rebuilt. k > 1 with identity projection replaces
// only the sample band + filter. A variant never stores pointers into the
// plan object itself, so the plan stays movable until the first Variant()
// call (which only ever happens once the plan has settled in a snapshot).
struct PreparedVariant {
  std::vector<uint32_t> dims;  // Ascending original dims (full list).
  std::vector<uint8_t> flip;   // Parallel to dims; 1 = larger-is-better.
  uint32_t k = 1;
  // True iff dims == all and no flips: codec/partitioner alias the plan's.
  bool identity_projection = false;
  // True iff the whole shape is the identity (identity projection AND
  // k == 1): the sample band + filter alias the plan's too.
  bool identity = false;

  std::unique_ptr<ZOrderCodec> codec;        // Null when identity_projection.
  std::unique_ptr<Partitioner> partitioner;  // Null when identity_projection.
  const ZOrderGroupedPartitioner* zgroup = nullptr;  // Typed aliases into
  const GridPartitioner* grid = nullptr;             // `partitioner`.
  PointSet sample{1};       // Transformed sample (empty when identity proj.).
  PointSet sample_band{1};  // Its skyline (k == 1) / k-band (empty when
                            // identity).
  SzbFilter filter;         // Empty when identity (probe the plan's).
  size_t num_partitions = 0;
  size_t pruned_partitions = 0;
};

// The master-side preprocessing artifacts of the paper's Phase 1 (Section
// 5.1), packaged as a reusable value: reservoir sample, partition pivots +
// PGmap (the partitioner), the sample skyline, and the SZB mapper filter.
//
// A plan is built once per dataset by PreparePlan() and is immutable
// afterwards: every query artifact is only read through const methods, so
// one plan may be shared by const reference across concurrently running
// queries (see core/query_service.h). Rebuilding the plan is only needed
// when the dataset or a plan-shaping option changes — partitioning scheme,
// num_groups, expansion, sample_ratio, bits, seed, tree geometry, or the
// SZB-filter toggle. Pipeline-only knobs (merge algorithm, map-task
// counts, thread counts) can vary per query against the same plan.
struct PreparedPlan {
  // The options the plan was built under (PreparePlan copies them in).
  ExecutorOptions options;

  uint32_t dim = 0;
  size_t dataset_size = 0;

  // Heap-allocated for address stability: the partitioner and the SZB tree
  // hold raw pointers into the codec, and the plan itself must stay
  // movable. Shared with the plans PatchPlanForDeletes derives, which keep
  // this plan's partitioner (or a copy of it).
  std::shared_ptr<const ZOrderCodec> codec;
  // Tree geometry; used for every tree a query over this plan builds
  // (local skylines, merge trees).
  ZBTree::Options tree_options{};

  std::shared_ptr<const Partitioner> partitioner;
  // Typed aliases into `partitioner` (null when another scheme is active):
  // the Z-order view exposes partition regions/stats, the grid view exposes
  // cell regions (MR-GPMRS's bitstring pruning).
  const ZOrderGroupedPartitioner* zgroup = nullptr;
  const GridPartitioner* grid = nullptr;

  PointSet sample{1};
  PointSet sample_skyline{1};
  // Ascending dataset row ids `sample` was gathered from (row-parallel to
  // it). The write path keys plan invalidation on row identity, not
  // coordinates: the k > 1 counting filter needs k DISTINCT alive rows,
  // so only the death of a row that was actually sampled can make a
  // filter artifact unsound (PatchPlanForDeletes).
  std::vector<uint32_t> sample_rows;

  // SZB mapper filter (Algorithm 3 lines 2-3); present only for Z-order
  // schemes with the filter enabled. The block covers the head of the
  // sample skyline for the SIMD scan; the tree holds the overflow.
  std::optional<DominanceBlock> szb_block;
  std::unique_ptr<ZBTree> szb_tree;

  // Plan-shape statistics (copied into every query's PhaseMetrics).
  size_t num_partitions = 0;
  size_t pruned_partitions = 0;

  // Wall time PreparePlan spent building this plan. A query that triggers
  // the build charges it as preprocess_ms; queries reusing the plan report
  // preprocess_ms = 0 (the cost is amortized).
  double build_ms = 0.0;

  // True iff job 1's mapper filter is active for this plan.
  bool HasSzbFilter() const {
    return szb_block.has_value() || szb_tree != nullptr;
  }

  // Lazily built per-shape variants (common/query_desc.h), keyed by
  // ShapeKey(). Behind a unique_ptr so the plan stays movable (a mutex is
  // not) — moving the plan carries the cache along; its entries never
  // point back into the plan object, so they survive the move.
  struct VariantCache {
    std::mutex mu;
    std::map<std::string, std::shared_ptr<const PreparedVariant>> by_shape;
  };
  std::unique_ptr<VariantCache> variants = std::make_unique<VariantCache>();

  // Returns the cached variant for `desc`'s shape, building it on first
  // use (`built`, when non-null, reports whether this call built — the
  // pipeline's subspace_plan_rebuilds counter). Thread-safe; the identity
  // shape is pre-seeded at PreparePlan time so the common case takes one
  // map lookup and no build ever.
  std::shared_ptr<const PreparedVariant> Variant(const QueryDesc& desc,
                                                 bool* built = nullptr) const;
};

// Builds the plan for `points`: samples, learns partition pivots and the
// partition->group map, computes the sample skyline, and builds the SZB
// filter. This is exactly the executor's preprocessing phase — one-shot
// Execute() is PreparePlan() + the pipeline, so plan reuse is
// bit-identical to one-shot execution by construction.
//
// Coordinates must fit in options.bits bits per dimension. An empty
// `points` yields an empty plan (partitioner == nullptr); callers must not
// run the pipeline over it.
//
// `points` is a DatasetView (heap PointSets convert implicitly), so the
// build works unchanged over an mmap'd columnar dataset (io/columnar.h):
// only the reservoir sample is ever materialized — the build streams row
// indices, never the dataset.
PreparedPlan PreparePlan(const DatasetView& points,
                         const ExecutorOptions& options);

// Plan patching for the write path (docs/updates.md), in place: O(sample),
// with the partitioner's cuts and groups kept. Returns nullptr when no
// sampled row died — the existing plan stays exactly valid (its sample is
// still a subset of the alive rows), which is the common case and the
// reason deletes rarely touch plan state. Otherwise the dead rows leave
// `sample`, `sample_rows` and the sample skyline, the SZB filter is built
// again from what is left of the skyline, and the variant cache starts
// empty (variants are re-derived from the alive sample). Sound because
// any subset of the alive rows is a sound filter: a row it dominates has
// an alive dominator, and for the k > 1 counting filter a row with k
// dominators in the subset has k alive ones. A ZDG-pruned partition stays
// pruned only while a partition that still holds an alive sampled row
// dominates its region (ZOrderGroupedPartitioner::WithSample). When every
// sampled row died but alive rows remain, an emergency sample is drawn
// from the first alive rows and the plan tail is derived from it afresh,
// so the plan never goes filterless while the dataset is non-empty.
//
// `base_alive` must have plan.dataset_size entries (0 = deleted), with at
// least one alive row — callers handle the all-dead dataset themselves
// (no pipeline ever runs over it).
std::shared_ptr<const PreparedPlan> PatchPlanForDeletes(
    const PreparedPlan& plan, const DatasetView& points,
    const std::vector<uint8_t>& base_alive);

}  // namespace zsky

#endif  // ZSKY_CORE_QUERY_PLAN_H_
