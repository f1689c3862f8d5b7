#include "core/query_service.h"

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common/dominance.h"
#include "common/macros.h"
#include "common/stopwatch.h"
#include "common/trace.h"
#include "core/metrics_registry.h"
#include "core/pipeline.h"

namespace zsky {

namespace {

// The plan's SZB mapper filter as an insert probe: true iff some sampled
// alive row strictly dominates `p`. Sound as a candidacy oracle because
// the snapshot's plan is patched whenever a sampled row dies
// (PatchPlanForDeletes) — the filter never testifies for a ghost.
bool SzbFilterDominates(const PreparedPlan& plan, std::span<const Coord> p) {
  if (plan.szb_block.has_value() && plan.szb_block->AnyDominates(p)) {
    return true;
  }
  return plan.szb_tree != nullptr && plan.szb_tree->ExistsDominatorOf(p);
}

}  // namespace

QueryService::SnapshotBase::~SnapshotBase() {
  if (!owned_path.empty()) {
    // Epoch-based file reclamation: this merge-produced `.zsc` dies with
    // the last snapshot (or in-flight query) that referenced it.
    mapped.reset();  // Unmap before unlinking.
    std::remove(owned_path.c_str());
  }
}

QueryService::QueryService(const QueryServiceOptions& options)
    : options_(options), pool_(options.executor.num_threads) {
  ZSKY_CHECK(options_.max_in_flight >= 1);
  // The service owns the one pool every query runs on; the pipeline must
  // use it (spawn-per-wave is the legacy single-shot ablation path).
  options_.executor.reuse_worker_pool = true;
}

QueryService::QueryService(const QueryServiceOptions& options, PointSet points)
    : QueryService(options) {
  SetDataset(std::move(points));
}

void QueryService::SetDataset(PointSet points) {
  std::lock_guard<std::mutex> lock(mu_);
  pending_points_ = std::move(points);
  pending_mapped_.reset();
  has_pending_ = true;
  installing_rows_ = pending_points_.size();
  // The cached plan (if any) is now stale: the next AcquireSnapshot()
  // rebuilds before serving. In-flight queries keep the snapshot they
  // already acquired and finish against the old dataset. A concurrent
  // mutation's publish fails against has_pending_ and re-reads — its
  // batch lands on the NEW dataset, never a zombie of the old one.
}

bool QueryService::SetDatasetFile(const std::string& path,
                                  std::string* error) {
  ColumnarDataset::Options map_options;
  // Under a shuffle budget the whole query runs memory-bounded: the
  // mapping drops pages behind each scan so the dataset never accumulates
  // in the resident set.
  map_options.bounded_residency =
      options_.executor.shuffle_memory_budget_bytes > 0;
  // Arm the dataset's readahead worker when the executor wants prefetch;
  // per-query ablation still works because the pipeline disarms the
  // view's hook when ExecutorOptions::readahead is off.
  map_options.readahead = options_.executor.readahead;
  std::shared_ptr<const ColumnarDataset> mapped =
      ColumnarDataset::Open(path, error, map_options);
  if (mapped == nullptr) return false;

  std::lock_guard<std::mutex> lock(mu_);
  pending_points_ = PointSet(1);
  installing_rows_ = mapped->size();
  pending_mapped_ = std::move(mapped);
  has_pending_ = true;
  return true;
}

QueryService::Stats QueryService::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

DeltaStats QueryService::delta_stats() const {
  DeltaStats out;
  std::shared_ptr<const Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (installing_rows_.has_value()) {
      // A dataset installed but not yet published: the next operation
      // sees it pristine.
      out.logical_rows = *installing_rows_;
      out.alive_rows = out.logical_rows;
      return out;
    }
    snap = snapshot_;
  }
  if (snap == nullptr) return out;
  if (snap->delta == nullptr) {
    out.logical_rows = snap->base->view.size();
    out.alive_rows = out.logical_rows;
    return out;
  }
  const DeltaState& delta = *snap->delta;
  out.active = delta.has_changes();
  out.logical_rows = delta.base_rows + delta.inserted.size();
  out.alive_rows = delta.alive_base_rows() + delta.alive_delta_rows();
  out.delta_rows = delta.inserted.size();
  out.base_dead = delta.base_dead;
  out.band_size = delta.base_band != nullptr ? delta.base_band->size() : 0;
  if (delta.band_covered != nullptr) {
    out.band_covered = static_cast<size_t>(std::count(
        delta.band_covered->begin(), delta.band_covered->end(), uint8_t{1}));
  }
  out.delta_candidates = static_cast<size_t>(
      std::count(delta.inserted_candidate.begin(),
                 delta.inserted_candidate.end(), uint8_t{1}));
  return out;
}

std::vector<uint32_t> QueryService::base_witnesses() {
  std::lock_guard<std::mutex> mutate(mutate_mu_);
  std::shared_ptr<const Snapshot> snap;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (installing_rows_.has_value()) return {};
    snap = snapshot_;
  }
  if (snap == nullptr || snap->delta == nullptr) return {};
  return WitnessOfRows(*snap->delta);
}

std::pair<std::shared_ptr<const QueryService::Snapshot>, bool>
QueryService::AcquireSnapshot() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    // While a rebuild is running, has_pending_ is already false but
    // snapshot_ still points at the *old* dataset — callers must wait for
    // the build, not serve stale data (the fuzz test catches this under
    // TSan timing).
    if (!building_) {
      if (snapshot_ != nullptr && !has_pending_) return {snapshot_, false};
      break;  // Elected: this thread builds.
    }
    build_cv_.wait(lock);
  }
  ZSKY_CHECK_MSG(has_pending_, "QueryService::Query before SetDataset");
  building_ = true;
  auto snap = std::make_shared<Snapshot>();
  auto base = std::make_shared<SnapshotBase>();
  if (pending_mapped_ != nullptr) {
    base->mapped = std::move(pending_mapped_);
    pending_mapped_.reset();
  } else {
    base->points = std::move(pending_points_);
    pending_points_ = PointSet(1);
  }
  // The view borrows the base's own backing, so it is built only after
  // the points/mapping have reached their final address.
  base->view = base->mapped != nullptr ? base->mapped->view()
                                       : DatasetView(base->points);
  snap->base = std::move(base);
  has_pending_ = false;
  // delta stays null: a fresh dataset has no write history.

  lock.unlock();  // PreparePlan is the expensive part; build unlocked.
  snap->plan = std::make_shared<PreparedPlan>(
      PreparePlan(snap->base->view, options_.executor));
  lock.lock();

  snapshot_ = snap;
  building_ = false;
  // Published, unless a newer SetDataset is already waiting.
  if (!has_pending_) installing_rows_.reset();
  ++stats_.plan_builds;
  stats_.plan_build_ms_total += snap->plan->build_ms;
  build_cv_.notify_all();
  return {std::move(snap), true};
}

bool QueryService::TryPublish(const std::shared_ptr<const Snapshot>& from,
                              std::shared_ptr<const Snapshot> next) {
  std::lock_guard<std::mutex> lock(mu_);
  // Fail when the world moved while the mutation was being built: a
  // SetDataset is pending (the batch must land on the new dataset), a
  // plan build is mid-flight (its publish would clobber ours), or a build
  // for a newer dataset already swapped the snapshot. The caller
  // re-acquires and rebuilds its batch — mutations serialize on
  // mutate_mu_, so the only racers are read-side plan builds, which
  // converge.
  if (building_ || has_pending_ || snapshot_ != from) return false;
  snapshot_ = std::move(next);
  return true;
}

std::shared_ptr<DeltaState> QueryService::BootstrapDelta(
    const Snapshot& snap) {
  const DatasetView& view = snap.base->view;
  auto delta = std::make_shared<DeltaState>();
  delta->base_rows = view.size();
  delta->inserted = PointSet(view.dim());
  auto band = std::make_shared<SkylineIndices>();
  auto block = std::make_shared<DominanceBlock>(view.dim());
  const Coord max_coord = snap.plan->codec->max_coord();
  if (view.empty()) {
    delta->witnesses = std::make_shared<BandWitnesses>(view.dim(), max_coord);
  } else {
    // First mutation after SetDataset: one default pipeline run computes
    // the exact base skyline the delta maintains from here on, and one
    // probe wave on the same ticket gives every other row its witness.
    PhaseMetrics pm;
    std::lock_guard<std::mutex> ticket(pool_mu_);
    CandidateList candidates =
        RunCandidateJob(*snap.plan, options_.executor, view, &pool_, pm);
    *band = RunMergeJob(*snap.plan, options_.executor, view,
                        std::move(candidates), &pool_, pm);
    block->Reserve(band->size());
    std::vector<Coord> buf(view.dim());
    for (uint32_t r : *band) {
      view.CopyRow(r, buf.data());
      block->Append(buf);
    }
    ZSKY_TRACE_SPAN_ARGS("delta.bootstrap_witnesses",
                         "{\"rows\":" + std::to_string(view.size()) +
                             ",\"band\":" + std::to_string(band->size()) +
                             "}");
    delta->witnesses =
        BootstrapWitnesses(view, *band, *block, max_coord, &pool_);
  }
  delta->base_band = std::move(band);
  delta->band_block = std::move(block);
  return delta;
}

MutationResult QueryService::Insert(const PointSet& points) {
  ZSKY_TRACE_SPAN_ARGS("service.insert",
                       "{\"rows\":" + std::to_string(points.size()) + "}");
  MutationResult result;
  Stopwatch watch;
  std::lock_guard<std::mutex> mutate(mutate_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshot_ == nullptr && !has_pending_ && !building_) {
      result.ok = false;
      result.error = "Insert before SetDataset";
      return result;
    }
  }
  if (points.empty()) {
    result.ms = watch.ElapsedMs();
    return result;
  }

  for (;;) {
    result = MutationResult{};
    auto acquired = AcquireSnapshot();
    const std::shared_ptr<const Snapshot>& snap = acquired.first;
    const DatasetView& view = snap->base->view;
    if (points.dim() != view.dim()) {
      result.ok = false;
      result.error = "Insert: dimension mismatch (batch dim " +
                     std::to_string(points.dim()) + ", dataset dim " +
                     std::to_string(view.dim()) + ")";
      return result;
    }
    const Coord max_coord = snap->plan->codec->max_coord();
    for (size_t i = 0; i < points.size(); ++i) {
      for (Coord c : points[i]) {
        if (c > max_coord) {
          result.ok = false;
          result.error =
              "Insert: coordinate exceeds the plan's " +
              std::to_string(snap->plan->options.bits) + "-bit resolution";
          return result;
        }
      }
    }

    // Copy-on-write: O(batch + delta) copied, the O(base) tombstones and
    // the O(skyline) band shared by pointer — an insert batch never
    // touches them (and never touches the plan: the dominated fast path
    // is the acceptance invariant the metrics test pins down). The band's
    // cover flags are copied once, by the first new candidate that
    // dominates a member.
    auto delta = snap->delta != nullptr
                     ? std::make_shared<DeltaState>(*snap->delta)
                     : BootstrapDelta(*snap);
    std::shared_ptr<std::vector<uint8_t>> covered_copy;
    std::vector<uint8_t> hits;
    result.first_id =
        static_cast<uint32_t>(delta->base_rows + delta->inserted.size());
    const bool base_live = delta->alive_base_rows() > 0;
    delta->inserted.Reserve(delta->inserted.size() + points.size());
    delta->inserted_alive.reserve(delta->inserted_alive.size() +
                                  points.size());
    delta->inserted_candidate.reserve(delta->inserted_candidate.size() +
                                      points.size());
    for (size_t i = 0; i < points.size(); ++i) {
      const std::span<const Coord> p = points[i];
      // Candidacy probe chain, cheapest witness first: the plan's sample
      // skyline (one SIMD block scan), then the maintained base band,
      // then the (small) alive delta buffer. Any hit proves an alive
      // strict dominator exists — the flag stays exact.
      bool dominated = false;
      if (base_live && SzbFilterDominates(*snap->plan, p)) {
        dominated = true;
        ++result.fast_path;
      }
      if (!dominated && delta->band_block != nullptr &&
          !delta->band_block->empty()) {
        dominated = delta->band_block->AnyDominates(p);
      }
      const size_t existing = delta->inserted.size();
      if (!dominated) {
        for (size_t j = 0; j < existing && !dominated; ++j) {
          if (delta->inserted_alive[j] == 0) continue;
          dominated = Dominates(delta->inserted[j], p);
        }
      }
      delta->inserted.Append(p);
      delta->inserted_alive.push_back(1);
      delta->inserted_candidate.push_back(dominated ? 0 : 1);
      if (!dominated) {
        // A fresh candidate may retire earlier delta rows' candidacy
        // (their flags stay exact: the dominator is alive, right here)
        // and covers the band members it dominates.
        for (size_t j = 0; j < existing; ++j) {
          if (delta->inserted_candidate[j] == 0) continue;
          if (Dominates(p, delta->inserted[j])) {
            delta->inserted_candidate[j] = 0;
          }
        }
        CoverBandMembers(*delta, p, covered_copy, hits);
      }
      ++result.applied;
    }

    auto next = std::make_shared<Snapshot>(*snap);
    next->delta = std::move(delta);
    if (TryPublish(snap, std::move(next))) break;
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.inserts += result.applied;
    stats_.fast_path_inserts += result.fast_path;
  }
  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("delta_inserts").Add(result.applied);
  registry.counter("delta_buffer_rows").Add(result.applied);
  registry.counter("fast_path_inserts").Add(result.fast_path);
  MaybeAutoMerge(&result);
  result.ms = watch.ElapsedMs();
  return result;
}

MutationResult QueryService::Delete(std::span<const uint32_t> ids) {
  ZSKY_TRACE_SPAN_ARGS("service.delete",
                       "{\"ids\":" + std::to_string(ids.size()) + "}");
  MutationResult result;
  Stopwatch watch;
  std::lock_guard<std::mutex> mutate(mutate_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshot_ == nullptr && !has_pending_ && !building_) {
      result.ok = false;
      result.error = "Delete before SetDataset";
      return result;
    }
  }
  if (ids.empty()) {
    result.ms = watch.ElapsedMs();
    return result;
  }

  MetricsRegistry& registry = MetricsRegistry::Global();
  bool repaired = false;  // The published batch killed band members.
  for (;;) {
    result = MutationResult{};
    auto acquired = AcquireSnapshot();
    const std::shared_ptr<const Snapshot>& snap = acquired.first;
    const DatasetView& view = snap->base->view;
    auto delta = snap->delta != nullptr
                     ? std::make_shared<DeltaState>(*snap->delta)
                     : BootstrapDelta(*snap);

    // Apply the tombstones. The base_alive vector is copied lazily — an
    // all-delta batch shares the previous epoch's vector untouched.
    // `killed` collects the coordinates of the points whose death can
    // uncover others: dead delta candidates here, dead band members in
    // the band repair.
    std::shared_ptr<std::vector<uint8_t>> alive_copy;
    std::vector<uint32_t> dead_base;  // Base rows tombstoned by THIS batch.
    DominanceBlock killed(view.dim());
    WitnessMoves moves;
    for (uint32_t id : ids) {
      if (id < delta->base_rows) {
        if (!delta->base_row_alive(id)) {
          ++result.rejected;
          continue;
        }
        if (alive_copy == nullptr) {
          alive_copy = delta->base_alive != nullptr
                           ? std::make_shared<std::vector<uint8_t>>(
                                 *delta->base_alive)
                           : std::make_shared<std::vector<uint8_t>>(
                                 delta->base_rows, uint8_t{1});
          delta->base_alive = alive_copy;
        }
        (*alive_copy)[id] = 0;
        ++delta->base_dead;
        dead_base.push_back(id);
        ++result.applied;
      } else if (id - delta->base_rows < delta->inserted.size()) {
        const size_t i = id - delta->base_rows;
        if (delta->inserted_alive[i] == 0) {
          ++result.rejected;
          continue;
        }
        if (delta->inserted_candidate[i] != 0) {
          killed.Append(delta->inserted[i]);
        }
        delta->inserted_alive[i] = 0;
        delta->inserted_candidate[i] = 0;
        ++delta->inserted_dead;
        ++result.applied;
      } else {
        ++result.rejected;
      }
    }
    if (result.applied == 0) break;  // All rejected: nothing to publish.

    // Plan patch: only the death of a row the plan actually sampled can
    // make its artifacts unsound (the k > 1 counting filter needs k
    // distinct alive rows); everything else leaves the plan untouched.
    std::shared_ptr<const PreparedPlan> plan = snap->plan;
    std::vector<uint32_t> dead_band;
    if (!dead_base.empty()) {
      std::sort(dead_base.begin(), dead_base.end());
      const SkylineIndices& band = *delta->base_band;
      for (uint32_t r : dead_base) {
        if (std::binary_search(band.begin(), band.end(), r)) {
          dead_band.push_back(r);
        }
      }
      if (delta->alive_base_rows() > 0) {
        bool sampled_died = false;
        for (uint32_t r : dead_base) {
          if (std::binary_search(plan->sample_rows.begin(),
                                 plan->sample_rows.end(), r)) {
            sampled_died = true;
            break;
          }
        }
        if (sampled_died) {
          auto repaired =
              PatchPlanForDeletes(*plan, view, *delta->base_alive);
          if (repaired != nullptr) {
            plan = std::move(repaired);
            std::lock_guard<std::mutex> lock(mu_);
            ++stats_.plan_patches;
          }
        }
      }
    }

    // Band repair: deleting a band member may resurface rows it was the
    // only band dominator of — all in its witness list, the only rows
    // the repair reads: O(band) to split the band plus one probe per
    // listed row (no scan, no pipeline, no pool ticket).
    if (!dead_band.empty()) {
      ZSKY_TRACE_SPAN_NAMED(repair_span, "delta.repair_band");
      RepairBandAfterDeletes(view, *delta, dead_band, killed, moves);
      ZSKY_TRACE_SPAN_SET_ARGS(
          repair_span,
          "{\"dead_members\":" + std::to_string(dead_band.size()) +
              ",\"rehomed\":" + std::to_string(moves.rehomed) +
              ",\"orphans\":" + std::to_string(moves.orphans) +
              ",\"fresh\":" + std::to_string(moves.fresh.size()) + "}");
    }
    // Exactness maintenance: a delta row whose every dominator died is a
    // candidate again, and a band member whose every covering candidate
    // died is uncovered. Deleting a non-band base row or a non-candidate
    // delta row uncovers nothing — a band member or candidate still
    // dominates everything it dominated, transitively.
    if (!killed.empty()) {
      ZSKY_TRACE_SPAN("delta.repair_candidates");
      RepairDeltaCandidates(*delta, killed);
      RepairBandCovered(*delta, killed);
    }

    // The witness lists are shared with the published delta, so the
    // batch's moves land only once it has published: a failed publish
    // retries against the same, untouched lists.
    const std::shared_ptr<BandWitnesses> witnesses = delta->witnesses;
    auto next = std::make_shared<Snapshot>(*snap);
    next->plan = std::move(plan);
    next->delta = std::move(delta);
    if (TryPublish(snap, std::move(next))) {
      repaired = !dead_band.empty();
      if (repaired) ApplyWitnessMoves(*witnesses, moves);
      break;
    }
  }

  {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.deletes += result.applied;
    if (repaired) ++stats_.repairs;
  }
  registry.counter("delta_deletes").Add(result.applied);
  registry.counter("delta_buffer_rows").Add(result.applied);
  MaybeAutoMerge(&result);
  result.ms = watch.ElapsedMs();
  return result;
}

void QueryService::MaybeAutoMerge(MutationResult* result) {
  if (options_.delta_merge_threshold == 0) return;
  std::shared_ptr<const Snapshot> cur;
  {
    std::lock_guard<std::mutex> lock(mu_);
    cur = snapshot_;
  }
  if (cur == nullptr || cur->delta == nullptr) return;
  if (cur->delta->inserted.size() + cur->delta->base_dead <
      options_.delta_merge_threshold) {
    return;
  }
  MergeLocked(result);
}

bool QueryService::Merge() {
  std::lock_guard<std::mutex> mutate(mutate_mu_);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (snapshot_ == nullptr && !has_pending_ && !building_) return false;
  }
  MutationResult result;
  return MergeLocked(&result);
}

bool QueryService::MergeLocked(MutationResult* result) {
  ZSKY_TRACE_SPAN("service.merge");
  for (;;) {
    auto acquired = AcquireSnapshot();
    const std::shared_ptr<const Snapshot>& snap = acquired.first;
    const std::shared_ptr<const DeltaState>& delta = snap->delta;
    if (delta == nullptr ||
        (delta->inserted.empty() && delta->base_dead == 0)) {
      return false;  // Pristine snapshot: nothing to fold.
    }
    const DatasetView& view = snap->base->view;
    const uint8_t* base_alive =
        delta->base_alive != nullptr ? delta->base_alive->data() : nullptr;

    // Materialize the merged base: alive base rows in ascending order,
    // then alive delta rows in insertion order (the documented id
    // compaction). A file-backed base streams to a sibling `.zsc` owned
    // by the new snapshot — the mmap'd serving path survives merges; on
    // any I/O failure the merge falls back to a heap base rather than
    // failing the mutation.
    auto base = std::make_shared<SnapshotBase>();
    if (snap->base->mapped != nullptr) {
      uint64_t seq;
      {
        std::lock_guard<std::mutex> lock(mu_);
        seq = merge_files_++;
      }
      const std::string path =
          snap->base->mapped->path() + ".merge-" + std::to_string(seq);
      std::string error;
      if (WriteColumnarMerged(path, view, base_alive, delta->inserted,
                              delta->inserted_alive.data(),
                              snap->base->mapped->bits(), &error)) {
        auto opened =
            ColumnarDataset::Open(path, &error, snap->base->mapped->options());
        if (opened != nullptr) {
          base->mapped = std::move(opened);
          base->owned_path = path;
        }
      }
      if (base->mapped == nullptr) std::remove(path.c_str());
    }
    if (base->mapped == nullptr) {
      PointSet merged = view.GatherAlive(base_alive);
      for (size_t i = 0; i < delta->inserted.size(); ++i) {
        if (delta->inserted_alive[i] != 0) merged.Append(delta->inserted[i]);
      }
      base->points = std::move(merged);
    }
    base->view = base->mapped != nullptr ? base->mapped->view()
                                         : DatasetView(base->points);

    // Full plan build over the merged base (same construction as a cold
    // AcquireSnapshot build), off every lock.
    auto next = std::make_shared<Snapshot>();
    next->base = std::move(base);
    next->plan = std::make_shared<PreparedPlan>(
        PreparePlan(next->base->view, options_.executor));

    // Carry the band and its witnesses across the merge: the exact
    // skyline of the merged base is the default overlay answer over the
    // pre-merge state, so remapping it through the id compaction hands the
    // new snapshot a valid band, and the lists follow their rows. Without
    // this, the next mutation would re-pay a full bootstrap after every
    // merge.
    {
      ZSKY_TRACE_SPAN_ARGS(
          "delta.merge_carry",
          "{\"rows\":" + std::to_string(next->base->view.size()) + "}");
      next->delta = CarryAcrossMerge(*delta, next->base->view);
    }

    if (!TryPublish(snap, std::move(next))) continue;
    {
      std::lock_guard<std::mutex> lock(mu_);
      ++stats_.merges;
      ++stats_.plan_builds;
    }
    MetricsRegistry::Global().counter("merges_total").Increment();
    result->merged = true;
    return true;
  }
}

SkylineQueryResult QueryService::Query(const QueryRequest& request) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    ZSKY_CHECK_MSG(has_pending_ || snapshot_ != nullptr || building_,
                   "QueryService::Query before SetDataset");
    admit_cv_.wait(lock,
                   [this] { return in_flight_ < options_.max_in_flight; });
    ++in_flight_;
    stats_.peak_in_flight =
        std::max(stats_.peak_in_flight, static_cast<size_t>(in_flight_));
  }

  SkylineQueryResult result = RunQuery(request);

  MetricsRegistry& registry = MetricsRegistry::Global();
  registry.counter("queries_served").Increment();
  registry.histogram("query_total_us")
      .Observe(static_cast<uint64_t>(result.metrics.total_ms * 1000.0));

  {
    std::lock_guard<std::mutex> lock(mu_);
    --in_flight_;
    ++stats_.queries;
    stats_.query_ms_total += result.metrics.total_ms;
  }
  admit_cv_.notify_one();
  return result;
}

SkylineQueryResult QueryService::RunQuery(const QueryRequest& request) {
  auto acquired = AcquireSnapshot();
  const std::shared_ptr<const Snapshot>& snap = acquired.first;
  const bool built_now = acquired.second;
  const DatasetView& view = snap->base->view;
  const DeltaState* delta = snap->delta.get();
  ZSKY_TRACE_SPAN_ARGS(
      "service.query",
      std::string("{\"plan_reused\":") + (built_now ? "false" : "true") + "}");

  SkylineQueryResult result;
  PhaseMetrics& pm = result.metrics;
  pm.plan_reused = !built_now;
  pm.preprocess_ms = built_now ? snap->plan->build_ms : 0.0;
  if (view.empty() && (delta == nullptr || !delta->has_changes())) {
    pm.total_ms = pm.preprocess_ms;
    pm.sim_total_ms = pm.preprocess_ms;
    return result;
  }

  ExecutorOptions run_options = options_.executor;
  if (request.merge) run_options.merge = *request.merge;
  if (request.num_map_tasks) run_options.num_map_tasks = *request.num_map_tasks;

  const PreparedPlan& plan = *snap->plan;
  pm.sample_size = plan.sample.size();
  pm.sample_skyline_size = plan.sample_skyline.size();
  pm.num_partitions = plan.num_partitions;
  pm.pruned_partitions = plan.pruned_partitions;
  pm.num_groups =
      plan.partitioner != nullptr ? plan.partitioner->num_groups() : 0;

  Stopwatch pipeline_watch;
  // A band-only delta (carried across a merge) leaves the base as the exact
  // logical dataset: non-default descs take the pristine pipeline
  // unchanged, while the default desc is answered from the carried band
  // below — no pipeline run at all.
  const bool pristine =
      delta == nullptr ||
      (!delta->has_changes() && !request.desc.IsDefault());
  if (pristine) {
    // Pristine snapshot: the seed's exact read path.
    {
      // Pool ticket: one query's wave *sequence* at a time on the shared
      // pool. Without this, two queries' waves interleave arbitrarily (the
      // executor's documented single-caller hazard).
      std::lock_guard<std::mutex> ticket(pool_mu_);
      CandidateList candidates = RunCandidateJob(plan, run_options, view,
                                                 &pool_, pm, request.desc);
      result.skyline =
          RunMergeJob(plan, run_options, view, std::move(candidates), &pool_,
                      pm, request.desc);
    }
    pm.total_ms = pm.preprocess_ms + pipeline_watch.ElapsedMs();
    pm.sim_total_ms = pm.preprocess_ms + pm.sim_job1_ms + pm.sim_job2_ms;
    return result;
  }

  // Delta overlay path (docs/updates.md): the snapshot carries buffered
  // mutations; reads stay exact between merges.
  pm.delta_rows = delta->alive_delta_rows();
  if (request.desc.IsDefault()) {
    // The maintained band plus the exact candidate and cover flags ARE
    // the answer — no pipeline run, no pool ticket, no dominance test:
    // the warm default query under writes costs O(band + delta).
    result.skyline = DefaultSkylineWithDelta(*delta);
  } else {
    SkylineIndices base_result;
    if (delta->alive_base_rows() > 0) {
      // The pipeline computes `desc` exactly over the alive base (the
      // tombstone mask drops dead rows at the mapper); the overlay then
      // re-counts the union with the alive in-box delta rows.
      std::lock_guard<std::mutex> ticket(pool_mu_);
      const uint8_t* alive =
          delta->base_alive != nullptr ? delta->base_alive->data() : nullptr;
      CandidateList candidates = RunCandidateJob(
          plan, run_options, view, &pool_, pm, request.desc, alive);
      base_result = RunMergeJob(plan, run_options, view,
                                std::move(candidates), &pool_, pm,
                                request.desc);
    }
    // Base fully tombstoned (or empty): the overlay over an empty base
    // result covers every alive delta row by itself.
    result.skyline = OverlayQueryRecount(
        view, *delta, base_result, request.desc, plan.codec->max_coord(),
        plan.options.bits);
  }
  pm.total_ms = pm.preprocess_ms + pipeline_watch.ElapsedMs();
  pm.sim_total_ms = pm.preprocess_ms + pm.sim_job1_ms + pm.sim_job2_ms;
  return result;
}

}  // namespace zsky
