#include "core/pipeline.h"

#include <algorithm>
#include <atomic>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <utility>

#include "algo/skyband.h"
#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "common/scan_counters.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/metrics_registry.h"
#include "index/bbs.h"
#include "index/zsearch.h"
#include "mapreduce/job.h"

namespace zsky {

namespace {

// Folds one MR job's engine metrics into the registry. The task-latency
// histograms are schedule-dependent; every counter is deterministic work
// accounting (see metrics_registry_test).
void FoldJobIntoRegistry(const mr::JobMetrics& job, const char* map_hist,
                         const char* reduce_hist) {
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("shuffle_records").Add(job.shuffle_records);
  registry.counter("shuffle_bytes").Add(job.shuffle_bytes);
  registry.counter("shuffle_copy_bytes").Add(job.shuffle_copy_bytes);
  registry.counter("shuffle_alloc_bytes").Add(job.shuffle_alloc_bytes);
  registry.counter("spill_bytes").Add(job.spill_bytes);
  registry.counter("spilled_tasks").Add(job.spilled_tasks);
  registry.counter("combiner_records_in").Add(job.combiner_in);
  registry.counter("combiner_records_out").Add(job.combiner_out);
  registry.counter("failed_attempts").Add(job.failed_attempts);
  registry.counter("morsels_total").Add(job.morsels_total);
  registry.counter("tasks_stolen").Add(job.tasks_stolen);
  registry.counter("collapse_tasks").Add(job.collapse_tasks);
  registry.counter("collapsed_runs").Add(job.collapsed_runs);
  registry.counter("transpose_bytes").Add(job.transpose_bytes);
  registry.counter("readahead_bytes").Add(job.readahead_bytes);
  registry.counter("readahead_hits").Add(job.readahead_hits);
  registry.counter("readahead_wasted_bytes").Add(job.readahead_wasted_bytes);
  registry.counter("rows_pruned_by_sketch").Add(job.rows_pruned_by_sketch);
  // Wave balance: one skew sample (max/mean task ms, x1000) per wave, so
  // serve --stats-every and the benches can watch straggler pressure.
  if (!job.map_tasks.empty()) {
    registry.histogram("wave_skew_x1000")
        .Observe(static_cast<uint64_t>(job.map_stats().skew * 1000.0));
  }
  if (!job.reduce_tasks.empty()) {
    registry.histogram("wave_skew_x1000")
        .Observe(static_cast<uint64_t>(job.reduce_stats().skew * 1000.0));
  }
  if (job.shuffle_records > 0) {
    registry.histogram("shuffle_records_per_sec")
        .Observe(static_cast<uint64_t>(job.ShuffleRecordsPerSec()));
  }
  auto& map_us = registry.histogram(map_hist);
  for (const mr::TaskMetrics& t : job.map_tasks) {
    map_us.Observe(static_cast<uint64_t>(t.ms * 1000.0));
  }
  auto& reduce_us = registry.histogram(reduce_hist);
  for (const mr::TaskMetrics& t : job.reduce_tasks) {
    reduce_us.Observe(static_cast<uint64_t>(t.ms * 1000.0));
  }
}

// Fills a job's out-of-core read-path fields with the change in the
// process-wide scan counters since `before`. Concurrent queries in one
// process share the counters, so under overlap the split between jobs is
// approximate — the registry totals stay exact.
void FillScanDeltas(mr::JobMetrics& job, const ScanCounterSnapshot& before) {
  const ScanCounterSnapshot now = SnapshotScanCounters();
  job.transpose_bytes = now.transpose_bytes - before.transpose_bytes;
  job.readahead_bytes = now.readahead_bytes - before.readahead_bytes;
  job.readahead_hits = now.readahead_hits - before.readahead_hits;
  job.readahead_wasted_bytes =
      now.readahead_wasted_bytes - before.readahead_wasted_bytes;
  job.rows_pruned_by_sketch =
      now.rows_pruned_by_sketch - before.rows_pruned_by_sketch;
}

SkylineIndices LocalSkyline(const ZOrderCodec& codec, const PointSet& points,
                            LocalAlgorithm algorithm,
                            const ZBTree::Options& tree_options) {
  if (points.empty()) return {};
  switch (algorithm) {
    case LocalAlgorithm::kSortBased:
      return SortBasedSkyline(points);
    case LocalAlgorithm::kZSearch:
      return ZSearchSkyline(codec, points, tree_options);
    case LocalAlgorithm::kBbs: {
      RTree::Options rtree_options;
      rtree_options.leaf_capacity = tree_options.leaf_capacity;
      rtree_options.fanout = tree_options.fanout;
      return BbsSkyline(codec, points, rtree_options);
    }
  }
  return {};
}

// k-aware local skyline: k == 1 keeps the per-algorithm dispatch
// bit-identical; k > 1 computes a local k-band (kSortBased keeps the
// comparison-based reference, the Z-order algorithms share ZOrderSkyband).
// Local bands compose: a point a band drops has >= k dominators among the
// points it keeps, so band-of-bands still contains the true global band
// and the final recount in job 2 is exact (induction over drops).
SkylineIndices LocalSkylineK(const ZOrderCodec& codec, const PointSet& points,
                             LocalAlgorithm algorithm,
                             const ZBTree::Options& tree_options, uint32_t k) {
  if (k <= 1) return LocalSkyline(codec, points, algorithm, tree_options);
  if (points.empty()) return {};
  if (algorithm == LocalAlgorithm::kSortBased) return NaiveSkyband(points, k);
  return ZOrderSkyband(codec, points, k);
}

// Gathers `rows` from the dataset into query space: identity projections
// reuse the view's Gather verbatim; otherwise each row is projected (and
// direction-flipped) through the variant's transform.
PointSet GatherTransformed(const DatasetView& points,
                           std::span<const uint32_t> rows,
                           const PreparedVariant& v, Coord max_coord) {
  if (v.identity_projection) return points.Gather(rows);
  const uint32_t vdim = static_cast<uint32_t>(v.dims.size());
  PointSet out(vdim);
  std::vector<Coord>& raw = out.mutable_raw();
  raw.resize(static_cast<size_t>(rows.size()) * vdim);
  std::vector<Coord> orig(points.dim());
  for (size_t i = 0; i < rows.size(); ++i) {
    points.CopyRow(rows[i], orig.data());
    ProjectRowInto(orig, v.dims, v.flip, max_coord,
                   std::span<Coord>(raw.data() + i * vdim, vdim));
  }
  return out;
}

bool IsZScheme(PartitioningScheme scheme) {
  return scheme == PartitioningScheme::kNaiveZ ||
         scheme == PartitioningScheme::kZhg ||
         scheme == PartitioningScheme::kZdg;
}

// The per-query routing state: the resolved mapper filter, the box's
// region count, and (when ZDG's static pruning must be revisited) a
// per-partition group table. Built once per query by BuildQueryRouting;
// everything here is box-dependent and therefore deliberately NOT cached
// in the plan or its variants (the shape/box split of common/query_desc.h).
struct QueryRouting {
  // Group per Z-order partition, with ZDG's pruned partitions rerouted;
  // empty when the partitioner's own GroupOf routes every row.
  std::vector<int32_t> group;
  size_t regions_pruned_by_box = 0;
  // Constrained filter: skyline/k-band of the IN-BOX sample points in
  // query space. The plan's full-space filter is unsound under a box (a
  // dominator outside the box must not reject an in-box point), so it is
  // replaced per query; a dominator inside the box dominates in the query
  // too, so this one is sound.
  SzbFilter box_filter;
  const DominanceBlock* probe_block = nullptr;
  const ZBTree* probe_tree = nullptr;
};

// True iff the region (in query space) is disjoint from the transformed
// box: no point of it can satisfy the constraint.
bool RegionOutsideBox(const RZRegion& region, std::span<const Coord> tlo,
                      std::span<const Coord> thi) {
  const std::span<const Coord> rmin = region.min_corner();
  const std::span<const Coord> rmax = region.max_corner();
  for (size_t j = 0; j < tlo.size(); ++j) {
    if (rmin[j] > thi[j] || rmax[j] < tlo[j]) return true;
  }
  return false;
}

void BuildQueryRouting(QueryRouting& r, const PreparedPlan& plan,
                       const PreparedVariant& v, const QueryDesc& desc,
                       const ExecutorOptions& options,
                       const ZOrderCodec& vcodec,
                       const ZOrderGroupedPartitioner* zgroup,
                       const GridPartitioner* grid, uint32_t num_groups) {
  const Coord max_coord = plan.codec->max_coord();

  // The mapper filter for this query. Box queries build a fresh filter
  // from the in-box sample; shape-only queries probe the variant's cached
  // filter; the identity shape probes the plan's.
  if (desc.has_box()) {
    if (options.enable_szb_filter && IsZScheme(options.partitioning) &&
        !plan.sample.empty()) {
      std::vector<uint32_t> in_rows;
      for (size_t i = 0; i < plan.sample.size(); ++i) {
        if (desc.InBox(plan.sample[i])) {
          in_rows.push_back(static_cast<uint32_t>(i));
        }
      }
      if (!in_rows.empty()) {
        // ProjectDimsInto preserves row order, so the variant's
        // transformed sample is row-parallel to the base sample and the
        // in-box rows can be gathered from it directly.
        const PointSet& tsample =
            v.identity_projection ? plan.sample : v.sample;
        const PointSet sub = PointSet::Gather(tsample, in_rows);
        PointSet band(sub.dim());
        if (desc.k == 1) {
          for (uint32_t idx : SortBasedSkyline(sub)) band.AppendFrom(sub, idx);
        } else {
          for (uint32_t idx : ZOrderSkyband(vcodec, sub, desc.k)) {
            band.AppendFrom(sub, idx);
          }
        }
        r.box_filter = BuildSzbFilter(&vcodec, band, desc.k, plan.tree_options);
      }
    }
    r.probe_block =
        r.box_filter.block.has_value() ? &*r.box_filter.block : nullptr;
    r.probe_tree = r.box_filter.tree.get();
  } else if (v.identity) {
    r.probe_block = plan.szb_block.has_value() ? &*plan.szb_block : nullptr;
    r.probe_tree = plan.szb_tree.get();
  } else {
    r.probe_block =
        v.filter.block.has_value() ? &*v.filter.block : nullptr;
    r.probe_tree = v.filter.tree.get();
  }

  // Regions (Z-order partitions or grid cells, in query space) that the
  // box misses. A count for the metrics only: the map wave tests the box
  // on every row before routing it, and an in-box row never lies in a
  // box-disjoint region. Angle/quadtree/random partitions have no
  // coordinate-box region, so they count none.
  if (desc.has_box() && (zgroup != nullptr || grid != nullptr)) {
    // Transform the box into query space: per selected dim j (original
    // dim d), a flipped dim maps [lo, hi] to [max - hi, max - lo].
    const size_t vdim = v.dims.size();
    std::vector<Coord> tlo(vdim);
    std::vector<Coord> thi(vdim);
    for (size_t j = 0; j < vdim; ++j) {
      const uint32_t d = v.dims[j];
      if (v.flip[j] != 0) {
        // Clamp to the coordinate domain first: data never exceeds
        // max_coord, so the clamp is membership-preserving and keeps the
        // unsigned subtraction safe.
        const Coord lo_c = std::min(desc.box_lo[d], max_coord);
        const Coord hi_c = std::min(desc.box_hi[d], max_coord);
        tlo[j] = max_coord - hi_c;
        thi[j] = max_coord - lo_c;
      } else {
        tlo[j] = desc.box_lo[d];
        thi[j] = desc.box_hi[d];
      }
    }
    if (zgroup != nullptr) {
      for (size_t i = 0; i < zgroup->num_partitions(); ++i) {
        if (RegionOutsideBox(zgroup->partition_region(i), tlo, thi)) {
          ++r.regions_pruned_by_box;
        }
      }
    } else {
      for (uint32_t c = 0; c < grid->num_groups(); ++c) {
        if (RegionOutsideBox(grid->CellRegion(c, vcodec.max_coord()), tlo,
                             thi)) {
          ++r.regions_pruned_by_box;
        }
      }
    }
  }

  // ZDG's static partition pruning proves a partition fully dominated
  // with unconstrained 1-dominance, so it is unsound under a box (the
  // dominating region may lie outside it) and under k > 1 (k dominators
  // are needed). Such queries reroute the pruned partitions instead of
  // dropping their rows. Grouping is result-invariant (it only shapes load
  // balance), so any deterministic assignment is correct.
  if (zgroup != nullptr && zgroup->pruned_partition_count() > 0 &&
      (desc.has_box() || desc.k > 1)) {
    const size_t nparts = zgroup->num_partitions();
    r.group.resize(nparts);
    for (size_t i = 0; i < nparts; ++i) {
      const int32_t g = zgroup->group_of_partition(i);
      r.group[i] =
          g == kDroppedGroup ? static_cast<int32_t>(i % num_groups) : g;
    }
  }
}

// Number of simulated cluster slots for the sim_* metrics.
uint32_t SimSlots(const ExecutorOptions& options) {
  return options.sim_workers != 0 ? options.sim_workers : options.num_groups;
}

}  // namespace

CandidateList RunCandidateJob(const PreparedPlan& plan,
                              const ExecutorOptions& options,
                              const DatasetView& points_in,
                              mr::WorkerPool* pool, PhaseMetrics& pm,
                              const QueryDesc& desc, const uint8_t* alive) {
  // Local copy of the (pointer-sized) view so the readahead ablation can
  // disarm the prefetch hook for this query without touching the backing.
  DatasetView points = points_in;
  if (!options.readahead) points.DisarmPrefetch();
  CandidateList candidates;
  if (points.empty()) return candidates;
  ZSKY_CHECK(plan.partitioner != nullptr);
  ZSKY_CHECK(plan.dim == points.dim());

  // Resolve the query's shape through the plan's variant cache. The
  // identity shape is pre-seeded, so the default desc never builds (and
  // subspace_plan_rebuilds stays 0 — the warm-path invariant).
  bool built_variant = false;
  const std::shared_ptr<const PreparedVariant> vp =
      plan.Variant(desc, &built_variant);
  const PreparedVariant& v = *vp;
  pm.skyband_k = desc.k;
  pm.subspace_plan_rebuilds += built_variant ? 1 : 0;

  ZSKY_TRACE_SPAN_ARGS("pipeline.job1",
                       "{\"points\":" + std::to_string(points.size()) + "}");
  Stopwatch job1_watch;
  const size_t n = points.size();
  const uint32_t dim = points.dim();
  const Coord max_coord = plan.codec->max_coord();
  const ZOrderCodec& codec =
      v.identity_projection ? *plan.codec : *v.codec;
  const Partitioner& partitioner =
      v.identity_projection ? *plan.partitioner : *v.partitioner;
  const ZOrderGroupedPartitioner* zgroup =
      v.identity_projection ? plan.zgroup : v.zgroup;
  const GridPartitioner* grid = v.identity_projection ? plan.grid : v.grid;
  if (!v.identity_projection) {
    pm.num_partitions = v.num_partitions;
    pm.pruned_partitions = v.pruned_partitions;
  }

  QueryRouting routing;
  BuildQueryRouting(routing, plan, v, desc, options, codec, zgroup, grid,
                    partitioner.num_groups());
  pm.regions_pruned_by_box = routing.regions_pruned_by_box;
  // The plain full-space skyline skips the box test and probes the plan's
  // SZB filter before routing; every other desc tests its box first, then
  // projects, routes and probes.
  const bool plain = v.identity && !desc.has_box();
  // Columnar-direct map wave: when the backing exposes a uniform-stride
  // SoA span (every `.zsc` mapping), every desc scans straight over the
  // mapped columns, with no transpose. A column-at-a-time kernel answers
  // the first test of a whole block (the box, or a plain desc's SZB
  // block probe), and only its survivors are gathered row-major. Row
  // order, predicates and counter increments match the heap scan, so the
  // emitted candidate stream is bit-identical for the same rows.
  const Coord* soa_base = nullptr;
  size_t soa_stride = 0;
  const bool columnar_direct = points.SoaSpan(&soa_base, &soa_stride);
  // Min-pruned probe index over the SZB filter block for the mask wave:
  // undominated rows skip every filter tile whose per-dimension min
  // exceeds them somewhere instead of proving a full-block miss. The
  // plan's block itself stays untouched: the heap scan probes it in its
  // original order.
  std::optional<MaskFilterIndex> direct_filter;
  if (columnar_direct && plain && plan.szb_block.has_value() &&
      plan.szb_block->size() > 0) {
    direct_filter.emplace(*plan.szb_block);
  }

  size_t num_map_tasks = std::min<size_t>(options.num_map_tasks, n);
  if (options.morsel_scheduling && options.map_morsel_rows > 0) {
    // Map morselization: widen the wave so no split exceeds
    // ~map_morsel_rows rows. A function of the data size only, so the
    // split layout (and every work counter downstream of it) is identical
    // for every thread count.
    const size_t morsel_tasks =
        (n + options.map_morsel_rows - 1) / options.map_morsel_rows;
    num_map_tasks = std::min<size_t>(n, std::max(num_map_tasks, morsel_tasks));
  }
  std::atomic<size_t> filtered{0};
  std::atomic<size_t> dropped{0};
  std::atomic<size_t> box_dropped{0};
  std::atomic<size_t> tombstoned{0};
  std::mutex candidates_mutex;

  typename mr::MapReduceJob<uint32_t>::Options job1_options;
  job1_options.num_reduce_tasks = partitioner.num_groups();
  job1_options.num_threads = options.num_threads;
  job1_options.pool = pool;
  job1_options.spawn_per_wave = !options.reuse_worker_pool;
  job1_options.morsel_scheduling = options.morsel_scheduling;
  // Job 1's combiner (a group-local skyline/band) is idempotent, so
  // oversized reducer runs may legally be pre-collapsed in slices. The
  // collapse is part of the morsel subsystem: turning morsel_scheduling
  // off yields the true static-split baseline (the ablation arm in
  // bench_skew_stragglers).
  job1_options.reduce_morsel_records =
      options.morsel_scheduling ? options.reduce_morsel_records : 0;
  job1_options.spill_to_disk = options.spill_to_disk;
  job1_options.shuffle_memory_budget_bytes =
      options.shuffle_memory_budget_bytes;
  if (!options.spill_dir.empty()) job1_options.spill_dir = options.spill_dir;
  job1_options.split_size = [n, num_map_tasks](size_t task) {
    return (task + 1) * n / num_map_tasks - task * n / num_map_tasks;
  };
  job1_options.enable_combiner = options.enable_combiner;
  job1_options.max_task_attempts = options.max_task_attempts;
  if (options.failure_injector != nullptr) {
    job1_options.failure_injector =
        [&options](mr::MapReduceJob<uint32_t>::Wave wave, size_t task,
                   uint32_t attempt) {
          return options.failure_injector(static_cast<int>(wave), task,
                                          attempt);
        };
  }
  mr::MapReduceJob<uint32_t> job1(job1_options);

  auto job1_map = [&](size_t task, auto& emit) {
    const size_t begin = task * n / num_map_tasks;
    const size_t end = (task + 1) * n / num_map_tasks;
    size_t local_filtered = 0;
    size_t local_dropped = 0;
    size_t local_box_dropped = 0;
    size_t local_tombstoned = 0;
    size_t local_pruned_sketch = 0;
    // The plain desc's tail for an alive row the SZB block did not
    // reject: the filter's overflow tree, then the router.
    auto plain_tail = [&](size_t row, std::span<const Coord> p) {
      if (plan.szb_tree != nullptr && plan.szb_tree->ExistsDominatorOf(p)) {
        ++local_filtered;
        return;
      }
      const int32_t gid = partitioner.GroupOf(p);
      if (gid == kDroppedGroup) {
        ++local_dropped;
        return;
      }
      emit(gid, static_cast<uint32_t>(row));
    };
    // Every other desc's tail for an alive in-box row (original
    // coordinates): project, route, then probe the query's filter.
    std::vector<Coord> qbuf(codec.dim());
    auto desc_tail = [&](size_t row, std::span<const Coord> p) {
      std::span<const Coord> q = p;
      if (!v.identity_projection) {
        ProjectRowInto(p, v.dims, v.flip, max_coord, qbuf);
        q = qbuf;
      }
      int32_t gid;
      if (!routing.group.empty()) {
        gid = routing.group[zgroup->PartitionOf(q)];
      } else {
        gid = partitioner.GroupOf(q);
        if (gid == kDroppedGroup) {
          // Only reachable without a box and with k == 1 (otherwise the
          // group table reroutes), where the static ZDG drop is sound.
          ++local_dropped;
          return;
        }
      }
      bool dominated = false;
      if (desc.k > 1) {
        if (routing.probe_tree != nullptr) {
          dominated =
              routing.probe_tree->CountDominatorsOf(q, desc.k) >= desc.k;
        }
      } else if (routing.probe_block != nullptr) {
        dominated = routing.probe_block->AnyDominates(q);
        if (!dominated && routing.probe_tree != nullptr) {
          dominated = routing.probe_tree->ExistsDominatorOf(q);
        }
      }
      if (dominated) {
        ++local_filtered;
        return;
      }
      emit(gid, static_cast<uint32_t>(row));
    };

    if (columnar_direct) {
      constexpr size_t kDirectRows = RowBlockCursor::kDefaultBlockRows;
      std::vector<uint8_t> mask(kDirectRows);
      std::vector<Coord> pbuf(dim);
      const std::span<const Coord> p(pbuf.data(), dim);
      simd::MaskFilterPruning pruning{};
      if (direct_filter.has_value()) pruning = direct_filter->pruning();
      // Scans rows [lo, hi) block by block. mask[i - b0] is set for a row
      // the plain desc's SZB block dominates, or for a row inside the box.
      auto scan_columns = [&](size_t lo, size_t hi) {
        for (size_t b0 = lo; b0 < hi; b0 += kDirectRows) {
          const size_t b1 = std::min(hi, b0 + kDirectRows);
          points.WillNeedRows(b1, std::min(hi, b1 + kDirectRows));
          if (direct_filter.has_value()) {
            SoAMaskAnyDominated(soa_base, soa_stride, dim, b0, b1,
                                direct_filter->block.lanes(),
                                direct_filter->block.lane_stride(),
                                direct_filter->block.size(), &pruning,
                                mask.data());
          } else if (desc.has_box()) {
            SoAMaskInBox(soa_base, soa_stride, dim, b0, b1,
                         desc.box_lo.data(), desc.box_hi.data(),
                         mask.data());
          } else {
            std::fill_n(mask.data(), b1 - b0, uint8_t{0});
          }
          for (size_t i = b0; i < b1; ++i) {
            if (alive != nullptr && alive[i] == 0) {
              ++local_tombstoned;
              continue;
            }
            if (plain) {
              if (mask[i - b0] != 0) {
                ++local_filtered;
                continue;
              }
            } else if (desc.has_box() && mask[i - b0] == 0) {
              ++local_box_dropped;
              continue;
            }
            for (uint32_t k = 0; k < dim; ++k) {
              pbuf[k] = soa_base[k * soa_stride + i];
            }
            if (plain) {
              plain_tail(i, p);
            } else {
              desc_tail(i, p);
            }
          }
          points.ReleaseRows(b0, b1);
        }
      };
      // Sketch pruning: a sketch block whose per-column [min, max] misses
      // the box (in original coordinates, whatever the shape) holds no
      // in-box row, so each of its alive rows is a box drop. Counting the
      // block wholesale keeps results and counters bit-identical while
      // skipping its scan (and its page faults) entirely.
      const bool sketch = desc.has_box() && points.has_sketch();
      for (size_t at = begin; at < end;) {
        size_t next = end;
        if (sketch) {
          const size_t blk = at / points.sketch_block_rows();
          next = std::min(end, (blk + 1) * points.sketch_block_rows());
          const Coord* mins = points.sketch_mins(blk);
          const Coord* maxs = points.sketch_maxs(blk);
          bool disjoint = false;
          for (uint32_t d = 0; d < dim && !disjoint; ++d) {
            disjoint = mins[d] > desc.box_hi[d] || maxs[d] < desc.box_lo[d];
          }
          if (disjoint) {
            for (size_t i = at; i < next; ++i) {
              if (alive != nullptr && alive[i] == 0) {
                ++local_tombstoned;
              } else {
                ++local_box_dropped;
                ++local_pruned_sketch;
              }
            }
            at = next;
            continue;
          }
        }
        scan_columns(at, next);
        at = next;
      }
    } else {
      // Heap backings: the split is one zero-copy row-major block (other
      // columnar views stream transposed blocks through the cursor).
      RowBlockCursor cursor(points, begin, end);
      RowBlockCursor::Block block;
      std::vector<uint32_t> survivors;
      while (cursor.Next(&block)) {
        if (plain) {
          // Pass 1 (per block): rows the SZB block does not reject. Each
          // probe is one SIMD block scan with tile early-exit.
          survivors.clear();
          survivors.reserve(block.rows);
          for (size_t i = 0; i < block.rows; ++i) {
            if (alive != nullptr && alive[block.first_row + i] == 0) {
              ++local_tombstoned;
              continue;
            }
            if (plan.szb_block.has_value() &&
                plan.szb_block->AnyDominates(
                    std::span<const Coord>(block.data + i * dim, dim))) {
              ++local_filtered;
            } else {
              survivors.push_back(static_cast<uint32_t>(i));
            }
          }
          // Pass 2 (per block, while it is still cache-hot): the overflow
          // tree and the router.
          for (uint32_t i : survivors) {
            plain_tail(block.first_row + i,
                       std::span<const Coord>(block.data + i * dim, dim));
          }
          continue;
        }
        for (size_t i = 0; i < block.rows; ++i) {
          if (alive != nullptr && alive[block.first_row + i] == 0) {
            ++local_tombstoned;
            continue;
          }
          const std::span<const Coord> p(block.data + i * dim, dim);
          if (!desc.InBox(p)) {
            ++local_box_dropped;
            continue;
          }
          desc_tail(block.first_row + i, p);
        }
      }
    }
    if (local_pruned_sketch > 0) {
      GlobalScanCounters().rows_pruned_by_sketch.fetch_add(
          local_pruned_sketch, std::memory_order_relaxed);
    }
    filtered.fetch_add(local_filtered, std::memory_order_relaxed);
    dropped.fetch_add(local_dropped, std::memory_order_relaxed);
    box_dropped.fetch_add(local_box_dropped, std::memory_order_relaxed);
    tombstoned.fetch_add(local_tombstoned, std::memory_order_relaxed);
  };
  // The reducers consume their rows as spans straight into the shuffle's
  // grouped storage; the gather copies (and for variants, transforms) the
  // points once, with no intermediate row vector.
  auto local_skyline_of_rows =
      [&](std::span<const uint32_t> rows) -> std::vector<uint32_t> {
    const PointSet local = GatherTransformed(points, rows, v, max_coord);
    // The gathered candidate rows are the reduce side's working set;
    // meter them under the candidate gauge so bench_outofcore's RSS
    // ceiling can budget from measurement instead of a fixed allowance.
    const ScopedCandidateBytes cand_scope(
        static_cast<uint64_t>(local.size()) * local.dim() * sizeof(Coord));
    const SkylineIndices sky =
        LocalSkylineK(codec, local, options.local, plan.tree_options, desc.k);
    std::vector<uint32_t> out;
    out.reserve(sky.size());
    for (uint32_t i : sky) out.push_back(rows[i]);
    return out;
  };
  auto job1_combine = [&](int32_t /*gid*/, std::span<const uint32_t> rows,
                          auto&& emit) {
    for (uint32_t row : local_skyline_of_rows(rows)) emit(row);
  };
  auto job1_reduce = [&](int32_t gid, std::span<const uint32_t> rows) {
    const std::vector<uint32_t> sky = local_skyline_of_rows(rows);
    // Per-group candidate balance (the paper's Fig. 9 quantity).
    MetricsRegistry::Global().histogram("candidates_per_group")
        .Observe(sky.size());
    const std::lock_guard<std::mutex> lock(candidates_mutex);
    for (uint32_t row : sky) candidates.emplace_back(gid, row);
  };
  const size_t point_bytes = static_cast<size_t>(dim) * sizeof(Coord);
  const ScanCounterSnapshot scan0 = SnapshotScanCounters();
  pm.job1 = job1.Run(
      num_map_tasks, job1_map, job1_combine, job1_reduce,
      [point_bytes](const uint32_t&) { return point_bytes; });
  FillScanDeltas(pm.job1, scan0);
  pm.job1_ms = job1_watch.ElapsedMs();
  pm.candidates = candidates.size();
  pm.filtered_by_szb = filtered.load();
  pm.dropped_by_pruning = dropped.load();
  pm.dropped_by_box = box_dropped.load();
  pm.dropped_by_tombstone = tombstoned.load();
  pm.sim_job1_ms = pm.job1.SimulatedMs(SimSlots(options), options.sim_net_mbps);

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("records_pruned_by_szb").Add(pm.filtered_by_szb);
  registry.counter("records_dropped_by_grouping").Add(pm.dropped_by_pruning);
  registry.counter("candidates_emitted").Add(candidates.size());
  if (pm.dropped_by_tombstone > 0) {
    registry.counter("records_dropped_by_tombstone")
        .Add(pm.dropped_by_tombstone);
  }
  if (!desc.IsDefault()) {
    registry.counter("records_dropped_by_box").Add(pm.dropped_by_box);
    registry.counter("regions_pruned_by_box").Add(pm.regions_pruned_by_box);
    registry.histogram("skyband_k").Observe(desc.k);
  }
  FoldJobIntoRegistry(pm.job1, "job1_map_task_us", "job1_reduce_task_us");
  return candidates;
}

SkylineIndices RunMergeJob(const PreparedPlan& plan,
                           const ExecutorOptions& options,
                           const DatasetView& points_in,
                           CandidateList candidates, mr::WorkerPool* pool,
                           PhaseMetrics& pm, const QueryDesc& desc) {
  DatasetView points = points_in;
  if (!options.readahead) points.DisarmPrefetch();
  if (points.empty()) return {};
  ZSKY_CHECK(plan.dim == points.dim());

  ZSKY_TRACE_SPAN_ARGS(
      "pipeline.job2",
      "{\"candidates\":" + std::to_string(candidates.size()) + "}");
  Stopwatch job2_watch;
  // Job 1 already resolved (and cached) this shape; here it is a lookup.
  const std::shared_ptr<const PreparedVariant> vp = plan.Variant(desc);
  const PreparedVariant& v = *vp;
  const Coord max_coord = plan.codec->max_coord();
  const ZOrderCodec& codec =
      v.identity_projection ? *plan.codec : *v.codec;
  // MR value type of job 2. A plain struct rather than std::pair: pair is
  // not trivially copyable (user-provided assignment), and the engine
  // moves values as raw bytes.
  struct Candidate {
    int32_t gid;
    uint32_t row;
  };
  const uint32_t dim = points.dim();
  const size_t n = candidates.size();
  const bool prefix_probe = options.merge == MergeAlgorithm::kPrefixProbe;
  SkylineIndices final_skyline;

  // Candidate-side working set per candidate. The prefix probe holds one
  // tree over all candidates: the gathered rows, then the tree's point
  // copy, SoA mirror, Z-words, id, alive flag and share of the node
  // bounds. A reducer-side merge holds its gathered points and the merge
  // trees over them (~2 point copies and a row id).
  const size_t point_bytes = static_cast<size_t>(dim) * sizeof(Coord);
  const size_t cand_row_bytes =
      prefix_probe ? point_bytes + ZBTree::BytesPerEntry(
                                       codec.dim(), codec.num_words(),
                                       plan.tree_options)
                   : 2 * point_bytes + sizeof(uint32_t);

  // Prefix probe: gather every candidate into query space once and
  // bulk-load one tree; its slots are the candidates in Z-order. The
  // build runs on the driver, so it is serial time. The rows are gathered
  // in row order: a sorted gather releases a residency-bounded backing's
  // pages behind it (DatasetView::Gather), where the concatenated groups
  // would leave every page they touch resident.
  std::optional<ZBTree> tree;
  std::optional<ScopedCandidateBytes> tree_scope;
  double tree_ms = 0.0;
  if (prefix_probe) {
    ZSKY_TRACE_SPAN_ARGS("pipeline.job2_tree",
                         "{\"candidates\":" + std::to_string(n) + "}");
    Stopwatch tree_watch;
    tree_scope.emplace(static_cast<uint64_t>(n) * cand_row_bytes);
    std::vector<uint32_t> rows;
    rows.reserve(n);
    for (const auto& [gid, row] : candidates) rows.push_back(row);
    CandidateList().swap(candidates);
    std::sort(rows.begin(), rows.end());
    tree.emplace(&codec, GatherTransformed(points, rows, v, max_coord),
                 std::move(rows), plan.tree_options);
    tree_ms = tree_watch.ElapsedMs();
  }

  // The probe wave runs fixed 256-slot morsels, so its task count depends
  // only on the candidate count. The paper's formulation ran job 2's map
  // phase as a single task; splitting the candidate list across map tasks
  // removes that serial stage from the hot path.
  constexpr size_t kProbeMorselSlots = 256;
  const size_t job2_map_tasks = std::max<size_t>(
      1, std::min<size_t>(
             prefix_probe ? (n + kProbeMorselSlots - 1) / kProbeMorselSlots
                          : options.num_map_tasks,
             std::max<size_t>(n, 1)));

  typename mr::MapReduceJob<Candidate>::Options job2_options;
  job2_options.num_reduce_tasks = 1;
  job2_options.num_threads = options.num_threads;
  job2_options.pool = pool;
  job2_options.spawn_per_wave = !options.reuse_worker_pool;
  job2_options.morsel_scheduling = options.morsel_scheduling;
  job2_options.spill_to_disk = options.spill_to_disk;
  // Fold job 2's candidate-side working set under the same memory budget
  // that bounds the shuffle, instead of letting it ride on top: the
  // shuffle's slice of the budget shrinks by the estimate, floored at a
  // quarter of the budget so tiny budgets still make progress.
  size_t job2_budget = options.shuffle_memory_budget_bytes;
  if (job2_budget > 0) {
    const size_t cand_est = n * cand_row_bytes;
    job2_budget = std::max(
        job2_budget / 4,
        job2_budget > cand_est ? job2_budget - cand_est : job2_budget / 4);
  }
  job2_options.shuffle_memory_budget_bytes = job2_budget;
  if (!options.spill_dir.empty()) job2_options.spill_dir = options.spill_dir;
  job2_options.split_size = [n, job2_map_tasks](size_t task) {
    return (task + 1) * n / job2_map_tasks - task * n / job2_map_tasks;
  };
  job2_options.enable_combiner = false;
  job2_options.max_task_attempts = options.max_task_attempts;
  if (options.failure_injector != nullptr) {
    job2_options.failure_injector =
        [&options](mr::MapReduceJob<Candidate>::Wave wave, size_t task,
                   uint32_t attempt) {
          return options.failure_injector(static_cast<int>(wave), task,
                                          attempt);
        };
  }
  mr::MapReduceJob<Candidate> job2(job2_options);

  auto job2_map = [&](size_t task, auto& emit) {
    const size_t begin = task * n / job2_map_tasks;
    const size_t end = (task + 1) * n / job2_map_tasks;
    if (!prefix_probe) {
      for (size_t i = begin; i < end; ++i) {
        const auto& [gid, row] = candidates[i];
        emit(0, Candidate{gid, row});
      }
      return;
    }
    // A strict dominator of slot s has a smaller Z-address, so it sits in
    // a slot before s: testing s against slots [0, s) decides it exactly
    // (docs/architecture.md "Phase 3"). Only survivors reach the reducer.
    for (size_t slot = begin; slot < end; ++slot) {
      const std::span<const Coord> p = tree->point(slot);
      const bool dropped =
          desc.k > 1 ? tree->CountDominatorsOf(p, desc.k, slot) >= desc.k
                     : tree->ExistsDominatorOf(p, slot);
      if (!dropped) emit(0, Candidate{0, tree->id(slot)});
    }
  };
  // Z-merges a set of candidates grouped by gid; every gid's candidate
  // set is dominance-free (a group-local skyline), as Z-merge requires.
  auto zmerge_by_group = [&](std::span<const Candidate> values,
                             ZMergeStats* stats) {
    std::map<int32_t, std::vector<uint32_t>> by_group;
    for (const Candidate& c : values) by_group[c.gid].push_back(c.row);
    std::vector<std::unique_ptr<ZBTree>> group_trees;
    std::vector<const ZBTree*> tree_ptrs;
    for (auto& [gid, rows] : by_group) {
      const PointSet group_points =
          GatherTransformed(points, rows, v, max_coord);
      group_trees.push_back(std::make_unique<ZBTree>(
          &codec, group_points, std::move(rows), plan.tree_options));
      tree_ptrs.push_back(group_trees.back().get());
    }
    return ZMergeAll(codec, tree_ptrs, plan.tree_options, stats);
  };
  // One reducer, one key: it runs once, after the map wave.
  auto job2_reduce = [&](int32_t /*key*/, std::span<const Candidate> values) {
    if (prefix_probe) {
      for (const Candidate& c : values) final_skyline.push_back(c.row);
      return;
    }
    const ScopedCandidateBytes cand_scope(
        static_cast<uint64_t>(values.size()) * cand_row_bytes);
    ZMergeStats stats;
    if (desc.k > 1) {
      // k-skyband merge: every algorithm becomes a band recount over the
      // candidates. Exact because job 1's local bands kept, for each
      // dropped point, >= k of its dominators among the candidates (see
      // LocalSkylineK).
      std::vector<uint32_t> rows;
      rows.reserve(values.size());
      for (const Candidate& c : values) rows.push_back(c.row);
      const PointSet all = GatherTransformed(points, rows, v, max_coord);
      for (uint32_t i : ZOrderSkyband(codec, all, desc.k)) {
        final_skyline.push_back(rows[i]);
      }
    } else if (options.merge == MergeAlgorithm::kZMerge) {
      final_skyline = zmerge_by_group(values, &stats);
    } else {
      std::vector<uint32_t> rows;
      rows.reserve(values.size());
      for (const Candidate& c : values) rows.push_back(c.row);
      const PointSet all = GatherTransformed(points, rows, v, max_coord);
      const LocalAlgorithm merge_algo =
          options.merge == MergeAlgorithm::kZSearch
              ? LocalAlgorithm::kZSearch
              : LocalAlgorithm::kSortBased;
      for (uint32_t i :
           LocalSkyline(codec, all, merge_algo, plan.tree_options)) {
        final_skyline.push_back(rows[i]);
      }
    }
    pm.merge_stats.subtrees_discarded += stats.subtrees_discarded;
    pm.merge_stats.subtrees_appended += stats.subtrees_appended;
    pm.merge_stats.points_tested += stats.points_tested;
    pm.merge_stats.skyline_removed += stats.skyline_removed;
  };
  const ScanCounterSnapshot scan0 = SnapshotScanCounters();
  pm.job2 = job2.Run(
      job2_map_tasks, job2_map, nullptr, job2_reduce,
      [point_bytes](const Candidate&) { return point_bytes + 4; });
  // Every candidate is one probe of the tree.
  if (prefix_probe) pm.merge_stats.points_tested += n;
  tree.reset();
  tree_scope.reset();
  SortSkyline(final_skyline);

  FillScanDeltas(pm.job2, scan0);
  pm.candidate_peak_bytes =
      GlobalScanCounters().candidate_bytes_peak.load(std::memory_order_relaxed);
  pm.job2_ms = job2_watch.ElapsedMs();
  pm.sim_job2_ms =
      pm.job2.SimulatedMs(SimSlots(options), options.sim_net_mbps) + tree_ms;

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("skyline_points").Add(final_skyline.size());
  registry.counter("zmerge_points_tested").Add(pm.merge_stats.points_tested);
  registry.counter("zmerge_subtrees_discarded")
      .Add(pm.merge_stats.subtrees_discarded);
  FoldJobIntoRegistry(pm.job2, "job2_map_task_us", "job2_reduce_task_us");
  return final_skyline;
}

}  // namespace zsky
