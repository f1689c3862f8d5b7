#include "core/query_plan.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "algo/sort_based.h"
#include "algo/subspace.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/metrics_registry.h"
#include "index/zsearch.h"
#include "partition/angle_partitioner.h"
#include "partition/quadtree_partitioner.h"
#include "partition/random_partitioner.h"
#include "sample/reservoir.h"

namespace zsky {

namespace {

GroupingStrategy ToGroupingStrategy(PartitioningScheme scheme) {
  switch (scheme) {
    case PartitioningScheme::kNaiveZ:
      return GroupingStrategy::kNaiveZ;
    case PartitioningScheme::kZhg:
      return GroupingStrategy::kHeuristic;
    default:
      return GroupingStrategy::kDominance;
  }
}

bool IsZScheme(PartitioningScheme scheme) {
  return scheme == PartitioningScheme::kNaiveZ ||
         scheme == PartitioningScheme::kZhg ||
         scheme == PartitioningScheme::kZdg;
}

// The partitioner construction shared by the base plan and its projected
// variants: the same scheme switch, learned from whichever (possibly
// transformed) sample the caller passes. Z-order schemes also yield the
// sample skyline and partition statistics as side products.
struct PartitionerBuild {
  std::unique_ptr<Partitioner> partitioner;
  const ZOrderGroupedPartitioner* zgroup = nullptr;
  const GridPartitioner* grid = nullptr;
  PointSet sample_skyline{1};
  size_t num_partitions = 0;
  size_t pruned_partitions = 0;
};

PartitionerBuild BuildPartitioner(const ZOrderCodec* codec,
                                  const PointSet& sample,
                                  const ExecutorOptions& options) {
  PartitionerBuild build;
  build.sample_skyline = PointSet(sample.dim());
  switch (options.partitioning) {
    case PartitioningScheme::kRandom: {
      build.partitioner = std::make_unique<RandomPartitioner>(
          options.num_groups, options.seed);
      break;
    }
    case PartitioningScheme::kGrid: {
      auto grid =
          std::make_unique<GridPartitioner>(sample, options.num_groups);
      build.grid = grid.get();
      build.partitioner = std::move(grid);
      break;
    }
    case PartitioningScheme::kAngle: {
      if (sample.dim() >= 2) {
        build.partitioner =
            std::make_unique<AnglePartitioner>(sample, options.num_groups);
      } else {
        auto grid =
            std::make_unique<GridPartitioner>(sample, options.num_groups);
        build.grid = grid.get();
        build.partitioner = std::move(grid);
      }
      break;
    }
    case PartitioningScheme::kQuadTree: {
      build.partitioner = std::make_unique<QuadTreePartitioner>(
          sample, options.num_groups);
      break;
    }
    case PartitioningScheme::kNaiveZ:
    case PartitioningScheme::kZhg:
    case PartitioningScheme::kZdg: {
      ZOrderGroupedPartitioner::Options zopt;
      zopt.num_groups = options.num_groups;
      zopt.expansion = options.expansion;
      zopt.strategy = ToGroupingStrategy(options.partitioning);
      auto z = std::make_unique<ZOrderGroupedPartitioner>(codec, sample,
                                                          zopt);
      build.sample_skyline = z->sample_skyline();
      build.num_partitions = z->num_partitions();
      build.pruned_partitions = z->pruned_partition_count();
      build.zgroup = z.get();
      build.partitioner = std::move(z);
      break;
    }
  }
  return build;
}

// Pre-seeds the identity shape so the default desc's Variant() lookup
// never builds anything (and never contends beyond one map find).
void SeedIdentityVariant(PreparedPlan& plan) {
  auto identity = std::make_shared<PreparedVariant>();
  identity->dims.resize(plan.dim);
  for (uint32_t d = 0; d < plan.dim; ++d) identity->dims[d] = d;
  identity->flip.assign(plan.dim, 0);
  identity->identity_projection = true;
  identity->identity = true;
  plan.variants->by_shape.emplace(QueryDesc{}.ShapeKey(),
                                  std::move(identity));
}

// The sample-derived tail of plan construction, shared by PreparePlan and
// PatchPlanForDeletes: learns the partitioner from plan.sample, computes
// the sample skyline, and builds the SZB mapper filter.
void FinishPlanFromSample(PreparedPlan& plan,
                          const ExecutorOptions& options) {
  {
    PartitionerBuild build =
        BuildPartitioner(plan.codec.get(), plan.sample, options);
    plan.partitioner = std::move(build.partitioner);
    plan.zgroup = build.zgroup;
    plan.grid = build.grid;
    plan.sample_skyline = std::move(build.sample_skyline);
    plan.num_partitions = build.num_partitions;
    plan.pruned_partitions = build.pruned_partitions;
  }
  if (plan.sample_skyline.empty()) {
    // Non-Z path: compute the sample skyline for metrics and (potential)
    // filter reuse.
    for (uint32_t idx :
         SortBasedSkyline(plan.sample, options.use_block_kernel)) {
      plan.sample_skyline.AppendFrom(plan.sample, idx);
    }
  }

  // The SZB-tree mapper filter is part of the paper's Z-order pipeline
  // (Algorithm 3 lines 2-3); the Grid/Angle baselines as published have no
  // sample-skyline prefilter, so it only activates for Z-order schemes.
  if (options.enable_szb_filter && IsZScheme(options.partitioning)) {
    SzbFilter filter = BuildSzbFilter(plan.codec.get(), plan.sample_skyline,
                                      1, options, plan.tree_options);
    plan.szb_block = std::move(filter.block);
    plan.szb_tree = std::move(filter.tree);
  }
}

}  // namespace

SzbFilter BuildSzbFilter(const ZOrderCodec* codec, const PointSet& band,
                         uint32_t k, const ExecutorOptions& options,
                         const ZBTree::Options& tree_options) {
  SzbFilter filter;
  if (band.empty()) return filter;
  // The filter has two implementations with identical answers ("is p
  // strictly dominated by some band point?"):
  //  - batched: a DominanceBlock over the first kSzbBlockCap band points,
  //    scanned by the SIMD kernel; when the band is larger, a ZB-tree over
  //    the remainder catches what the block missed. For the common case
  //    (band <= cap) the mapper never touches a tree.
  //  - tree walk: the per-point SZB-tree probe (kept as the
  //    scalar/ablation path).
  // k > 1 probes *count* dominators (CountDominatorsOf), which only the
  // tree supports, so the k-band filter is always a pure tree.
  constexpr size_t kSzbBlockCap = 4096;
  if (k == 1 && options.batch_szb_filter && options.use_block_kernel) {
    const size_t head = std::min(band.size(), kSzbBlockCap);
    filter.block.emplace(band.dim());
    filter.block->Reserve(head);
    for (size_t i = 0; i < head; ++i) filter.block->Append(band[i]);
    if (band.size() > head) {
      PointSet rest(band.dim());
      rest.Reserve(band.size() - head);
      for (size_t i = head; i < band.size(); ++i) rest.AppendFrom(band, i);
      filter.tree = std::make_unique<ZBTree>(codec, rest, tree_options);
    }
  } else {
    filter.tree = std::make_unique<ZBTree>(codec, band, tree_options);
  }
  return filter;
}

PreparedPlan PreparePlan(const DatasetView& points,
                         const ExecutorOptions& options) {
  ZSKY_CHECK(options.num_groups >= 1);
  ZSKY_CHECK(options.expansion >= 1);
  ZSKY_CHECK(options.sample_ratio > 0.0 && options.sample_ratio <= 1.0);
  ZSKY_CHECK(options.bits >= 1 && options.bits <= 32);

  PreparedPlan plan;
  ZSKY_TRACE_SPAN_ARGS("plan.build",
                       "{\"points\":" + std::to_string(points.size()) + "}");
  Stopwatch build_watch;
  plan.options = options;
  plan.dim = points.dim();
  plan.dataset_size = points.size();
  const uint32_t dim = points.dim();
  plan.codec = std::make_shared<const ZOrderCodec>(dim, options.bits);
  plan.tree_options = options.tree;
  plan.sample = PointSet(dim);
  plan.sample_skyline = PointSet(dim);
  SeedIdentityVariant(plan);
  if (points.empty()) {
    plan.build_ms = build_watch.ElapsedMs();
    return plan;
  }

  const size_t n = points.size();
  Rng rng(options.seed);
  size_t sample_target =
      static_cast<size_t>(options.sample_ratio * static_cast<double>(n));
  // Floor: enough sample mass to cut M*delta partitions meaningfully.
  sample_target = std::max<size_t>(
      sample_target,
      std::max<size_t>(256, 4ull * options.num_groups * options.expansion));
  sample_target = std::min(sample_target, n);
  {
    ZSKY_TRACE_SPAN_ARGS(
        "plan.sample", "{\"target\":" + std::to_string(sample_target) + "}");
    // Inlined ReservoirSample, keeping the sampled row ids: identical rng
    // consumption and gather order, so the sample (and every artifact
    // derived from it) is bit-identical to the pre-sample_rows build.
    plan.sample_rows = ReservoirSampleIndices(n, sample_target, rng);
    std::sort(plan.sample_rows.begin(), plan.sample_rows.end());
    plan.sample = points.Gather(plan.sample_rows);
  }

  ZSKY_TRACE_SPAN("plan.partition_and_filter");
  FinishPlanFromSample(plan, options);
  plan.build_ms = build_watch.ElapsedMs();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("plan_builds").Increment();
  registry.histogram("plan_build_us")
      .Observe(static_cast<uint64_t>(plan.build_ms * 1000.0));
  return plan;
}

std::shared_ptr<const PreparedPlan> PatchPlanForDeletes(
    const PreparedPlan& plan, const DatasetView& points,
    const std::vector<uint8_t>& base_alive) {
  ZSKY_CHECK(base_alive.size() == plan.dataset_size);
  std::vector<uint32_t> kept;  // Positions into plan.sample still alive.
  std::vector<uint32_t> dead;  // And those that died.
  kept.reserve(plan.sample_rows.size());
  for (size_t i = 0; i < plan.sample_rows.size(); ++i) {
    (base_alive[plan.sample_rows[i]] != 0 ? kept : dead)
        .push_back(static_cast<uint32_t>(i));
  }
  if (dead.empty()) return nullptr;

  ZSKY_TRACE_SPAN_ARGS(
      "plan.patch", "{\"kept\":" + std::to_string(kept.size()) + "}");
  Stopwatch patch_watch;
  auto patched = std::make_shared<PreparedPlan>();
  patched->options = plan.options;
  patched->dim = plan.dim;
  patched->dataset_size = plan.dataset_size;
  patched->codec = plan.codec;
  patched->tree_options = plan.tree_options;
  patched->sample_skyline = PointSet(plan.dim);
  SeedIdentityVariant(*patched);

  patched->sample = PointSet::Gather(plan.sample, kept);
  patched->sample_rows.reserve(kept.size());
  for (uint32_t pos : kept) {
    patched->sample_rows.push_back(plan.sample_rows[pos]);
  }
  if (patched->sample.empty()) {
    // Every sampled row died but the dataset still has alive rows (the
    // caller's contract): draw an emergency sample from the first alive
    // rows so the partitioner and filter never go missing while data
    // remains. Not statistically uniform — merely sound — and the next
    // merge replaces it with a real reservoir pass.
    constexpr size_t kEmergencySampleRows = 256;
    for (size_t r = 0;
         r < base_alive.size() &&
         patched->sample_rows.size() < kEmergencySampleRows;
         ++r) {
      if (base_alive[r] != 0) {
        patched->sample_rows.push_back(static_cast<uint32_t>(r));
      }
    }
    ZSKY_CHECK_MSG(!patched->sample_rows.empty(),
                   "PatchPlanForDeletes over an all-dead dataset");
    patched->sample = points.Gather(patched->sample_rows);
    FinishPlanFromSample(*patched, patched->options);
  } else {
    // The sample skyline without the dead rows: one stored point equal to
    // each dead sampled row it holds goes (equal points are
    // interchangeable in a filter), so what is left is made of alive
    // sampled rows.
    std::vector<uint8_t> gone(plan.sample_skyline.size(), 0);
    for (uint32_t pos : dead) {
      const std::span<const Coord> p = plan.sample[pos];
      for (size_t i = 0; i < gone.size(); ++i) {
        const std::span<const Coord> q = plan.sample_skyline[i];
        if (gone[i] == 0 && std::equal(p.begin(), p.end(), q.begin())) {
          gone[i] = 1;
          break;
        }
      }
    }
    patched->sample_skyline.Reserve(gone.size());
    for (size_t i = 0; i < gone.size(); ++i) {
      if (gone[i] == 0) {
        patched->sample_skyline.AppendFrom(plan.sample_skyline, i);
      }
    }
    patched->num_partitions = plan.num_partitions;
    patched->pruned_partitions = plan.pruned_partitions;
    if (plan.zgroup != nullptr) {
      std::vector<uint32_t> counts(plan.zgroup->num_partitions());
      for (size_t i = 0; i < counts.size(); ++i) {
        counts[i] = plan.zgroup->partition_sample_count(i);
      }
      for (uint32_t pos : dead) {
        uint32_t& count = counts[plan.zgroup->PartitionOf(plan.sample[pos])];
        ZSKY_CHECK(count > 0);
        --count;
      }
      auto z = plan.zgroup->WithSample(std::move(counts),
                                       patched->sample_skyline);
      patched->pruned_partitions = z->pruned_partition_count();
      patched->zgroup = z.get();
      patched->partitioner = std::move(z);
    } else {
      patched->partitioner = plan.partitioner;
      patched->grid = plan.grid;
    }
    if (plan.HasSzbFilter()) {
      SzbFilter filter =
          BuildSzbFilter(patched->codec.get(), patched->sample_skyline, 1,
                         patched->options, patched->tree_options);
      patched->szb_block = std::move(filter.block);
      patched->szb_tree = std::move(filter.tree);
    }
  }
  patched->build_ms = patch_watch.ElapsedMs();
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("plan_patches").Increment();
  registry.histogram("plan_patch_us")
      .Observe(static_cast<uint64_t>(patched->build_ms * 1000.0));
  return patched;
}

std::shared_ptr<const PreparedVariant> PreparedPlan::Variant(
    const QueryDesc& desc, bool* built) const {
  if (built != nullptr) *built = false;
  desc.CheckValid(dim);
  const std::string key = desc.ShapeKey();
  // The build runs under the cache lock: variant builds are sample-sized
  // (milliseconds), shapes repeat across queries, and holding the lock
  // keeps the build-count deterministic. The pre-seeded identity shape
  // means default queries only ever pay the map lookup.
  std::lock_guard<std::mutex> lock(variants->mu);
  auto it = variants->by_shape.find(key);
  if (it != variants->by_shape.end()) return it->second;

  ZSKY_TRACE_SPAN_ARGS("plan.build_variant", "{\"shape\":\"" + key + "\"}");
  auto v = std::make_shared<PreparedVariant>();
  v->dims = desc.EffectiveDims(dim);
  v->flip = desc.EffectiveFlips(dim);
  v->k = desc.k;
  bool any_flip = false;
  for (uint8_t f : v->flip) any_flip |= (f != 0);
  // dims are unique and in [0, dim), so a full-length list is "all dims".
  v->identity_projection = !any_flip && v->dims.size() == dim;
  v->identity = v->identity_projection && desc.k == 1;

  if (!v->identity) {
    const ZOrderCodec* vcodec = codec.get();
    const PointSet* vsample = &sample;
    if (!v->identity_projection) {
      // Re-derived interleave over the projected dims; directions fold
      // into the sample transform (and every per-row transform after it).
      v->codec = std::make_unique<ZOrderCodec>(
          static_cast<uint32_t>(v->dims.size()), options.bits);
      vcodec = v->codec.get();
      v->sample = PointSet(static_cast<uint32_t>(v->dims.size()));
      ProjectDimsInto(sample, v->dims, v->flip, codec->max_coord(),
                      v->sample);
      vsample = &v->sample;
      PartitionerBuild build = BuildPartitioner(vcodec, v->sample, options);
      v->partitioner = std::move(build.partitioner);
      v->zgroup = build.zgroup;
      v->grid = build.grid;
      v->num_partitions = build.num_partitions;
      v->pruned_partitions = build.pruned_partitions;
      if (desc.k == 1) {
        v->sample_band = std::move(build.sample_skyline);
        if (v->sample_band.empty() && !v->sample.empty()) {
          v->sample_band = PointSet(v->sample.dim());
          for (uint32_t idx :
               SortBasedSkyline(v->sample, options.use_block_kernel)) {
            v->sample_band.AppendFrom(v->sample, idx);
          }
        }
      }
    } else {
      v->num_partitions = num_partitions;
      v->pruned_partitions = pruned_partitions;
    }
    if (desc.k > 1 && !vsample->empty()) {
      // The k-band of the transformed sample: a point with >= k dominators
      // inside it has >= k real dominators (soundness of the counting
      // filter below).
      v->sample_band = PointSet(vcodec->dim());
      for (uint32_t idx : ZOrderSkyband(*vcodec, *vsample, desc.k)) {
        v->sample_band.AppendFrom(*vsample, idx);
      }
    }
    if (options.enable_szb_filter && IsZScheme(options.partitioning)) {
      v->filter = BuildSzbFilter(vcodec, v->sample_band, desc.k, options,
                                 tree_options);
    }
  }

  if (built != nullptr) *built = true;
  MetricsRegistry::Global().counter("subspace_plan_rebuilds").Increment();
  auto [inserted, ok] = variants->by_shape.emplace(key, std::move(v));
  ZSKY_CHECK(ok);
  return inserted->second;
}

}  // namespace zsky
