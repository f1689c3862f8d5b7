#include "workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <thread>
#include <utility>

#include "common/cpu.h"
#include "core/pipeline.h"
#include "core/query_plan.h"
#include "core/query_service.h"
#include "io/columnar.h"
#include "mapreduce/worker_pool.h"
#include "mirror.h"
#include "spans.h"
#include "stats.h"

namespace perfbench {

namespace {

// zsc-box serves its 244 MiB file under this shuffle budget, which also
// arms the mapping's bounded residency.
constexpr size_t kShuffleBudgetBytes = size_t{64} << 20;
// The traced run's layers must account for the end-to-end time to within
// this share (trace.residual_pct).
constexpr double kResidualTolerancePct = 10.0;
// Direct pipeline runs on the mutate-mix base in its traced run; about
// 0.4 s each on a 4-vCPU x86 VM.
constexpr size_t kMixDirectRuns = 5;
constexpr double kMiB = 1024.0 * 1024.0;
constexpr double kFailedLatency = std::numeric_limits<double>::infinity();

// --- Host ----------------------------------------------------------------

// The service pool gets nproc - 1 threads: the calling thread runs a slot
// of every wave, so pool plus client equals nproc.
unsigned PoolThreads() {
  return std::max(1u, std::thread::hardware_concurrency() - 1);
}

struct HostSample {
  uint64_t cpu_jiffies = 0;    // All CPUs, every /proc/stat state.
  uint64_t steal_jiffies = 0;  // Of which stolen by the hypervisor.
  double process_cpu_ms = 0.0;
};

double TimevalMs(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

HostSample SampleHost() {
  HostSample sample;
  // First line: cpu user nice system idle iowait irq softirq steal ...
  std::ifstream stat("/proc/stat");
  std::string label;
  if (stat >> label && label == "cpu") {
    uint64_t fields[8] = {};
    for (uint64_t& field : fields) stat >> field;
    for (uint64_t field : fields) sample.cpu_jiffies += field;
    sample.steal_jiffies = fields[7];
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  sample.process_cpu_ms = TimevalMs(usage.ru_utime) + TimevalMs(usage.ru_stime);
  return sample;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

Fingerprint MakeFingerprint(const HostSample& before, const HostSample& after,
                            size_t ops) {
  Fingerprint fp;
  fp.nproc = std::max(1u, std::thread::hardware_concurrency());
  fp.pool_threads = PoolThreads();
  fp.isa = std::string(zsky::IsaName(zsky::ActiveIsa()));
  const uint64_t total = after.cpu_jiffies - before.cpu_jiffies;
  fp.steal_pct =
      total == 0 ? 0.0
                 : 100.0 * static_cast<double>(after.steal_jiffies -
                                               before.steal_jiffies) /
                       static_cast<double>(total);
  fp.cpu_ms_per_op = ops == 0 ? 0.0
                              : (after.process_cpu_ms - before.process_cpu_ms) /
                                    static_cast<double>(ops);
  return fp;
}

// Spins every CPU for `seconds` without calling into the library, so the
// first timed set-up does not pay the VM's idle-to-busy ramp.
void WarmUp(double seconds) {
  if (seconds <= 0.0) return;
  const int64_t until =
      SpanRecorder::NowNs() + static_cast<int64_t>(seconds * 1e9);
  std::atomic<uint64_t> sink{0};
  const auto spin = [&] {
    uint64_t x = 1;
    while (SpanRecorder::NowNs() < until) {
      for (int i = 0; i < 4096; ++i) x = x * 6364136223846793005ull + 1;
    }
    sink += x;
  };
  std::vector<std::thread> threads;
  for (unsigned i = 1; i < std::max(1u, std::thread::hardware_concurrency());
       ++i) {
    threads.emplace_back(spin);
  }
  spin();
  for (std::thread& t : threads) t.join();
}

// --- Failure accounting --------------------------------------------------

// Counts attempted and failed operations. A wrong answer, an ok == false
// result and an exception each fail the operation. The self-test's
// injection corrupts one chosen answer before it is compared, so it
// exercises the real check.
class Tally {
 public:
  explicit Tally(long inject_at) : inject_at_(inject_at) {}

  // An operation whose answer must equal `want`; returns whether it did.
  bool Answer(std::vector<uint32_t> got, const std::vector<uint32_t>& want) {
    if (Next()) {
      if (got.empty()) {
        got.push_back(0);
      } else {
        got.pop_back();
      }
    }
    return Record(got == want);
  }

  // A mutation whose result must match the mirror's prediction exactly.
  bool Mutation(zsky::MutationResult got, const Mirror::Outcome& want) {
    if (Next()) ++got.applied;
    return Record(got.ok && got.applied == want.applied &&
                  got.rejected == want.rejected &&
                  got.first_id == want.first_id && got.merged == want.merged);
  }

  // An operation whose answer is not checked: it fails only by throwing.
  void Unchecked() { Next(); }

  void Exception(const std::exception& e) {
    Next();
    Record(false);
    std::fprintf(stderr, "perfbench: operation failed: %s\n", e.what());
  }

  size_t attempted() const { return attempted_; }
  size_t failed() const { return failed_; }

 private:
  // Counts one operation; true iff its answer is the one to corrupt.
  bool Next() { return static_cast<long>(attempted_++) == inject_at_; }
  bool Record(bool ok) {
    if (!ok) ++failed_;
    return ok;
  }

  long inject_at_;
  size_t attempted_ = 0;
  size_t failed_ = 0;
};

template <typename T>
struct Timed {
  double ms;
  T value;
};

// Runs `call` inside span `name` (timed but not recorded when null). An
// exception fails the operation and yields nullopt.
template <typename Fn>
auto TryTimed(SpanRecorder& rec, Tally& tally, const char* name, Fn&& call)
    -> std::optional<Timed<decltype(call())>> {
  try {
    Timed<decltype(call())> out{0.0, {}};
    out.ms = rec.Time(name, [&] { out.value = call(); });
    return out;
  } catch (const std::exception& e) {
    tally.Exception(e);
    return std::nullopt;
  }
}

// --- Metrics -------------------------------------------------------------

class Metrics {
 public:
  void Add(const char* name, double value, const char* unit) {
    out_.push_back(Metric{name, value, unit});
  }
  // A latency percentile, omitted (with a note) when too few samples lie
  // beyond it.
  void AddPercentile(const char* name, const std::vector<double>& samples,
                     int percent, const char* unit) {
    const std::optional<double> value = Percentile(samples, percent);
    if (value.has_value()) {
      Add(name, *value, unit);
    } else {
      std::fprintf(stderr,
                   "perfbench: %s omitted: %zu samples, p%d needs %zu\n", name,
                   samples.size(), percent, MinSamplesFor(percent));
    }
  }
  // trace.residual_pct, with a note when it leaves the tolerance.
  void AddResidual(double pct) {
    Add("trace.residual_pct", pct, "%");
    if (std::abs(pct) > kResidualTolerancePct) {
      std::fprintf(stderr,
                   "perfbench: layers leave %.1f%% of the end-to-end time "
                   "unaccounted, beyond the %.0f%% tolerance\n",
                   pct, kResidualTolerancePct);
    }
  }
  // The metrics, once they are exactly MetricNames(trace): a run never
  // returns a report that lacks one.
  std::vector<Metric> Finish(bool trace) {
    std::vector<std::string> got;
    for (const Metric& metric : out_) got.push_back(metric.name);
    std::vector<std::string> want = MetricNames(trace);
    std::sort(got.begin(), got.end());
    std::sort(want.begin(), want.end());
    if (got != want) {
      std::string names;
      for (const std::string& name : got) names += " " + name;
      throw std::runtime_error("run reported an incomplete metric set:" +
                               names);
    }
    return std::move(out_);
  }

 private:
  std::vector<Metric> out_;
};

double P50(const std::vector<double>& samples) {
  const std::optional<double> value = Percentile(samples, 50);
  if (!value.has_value()) {
    throw std::logic_error("traced run too short for a median");
  }
  return *value;
}

template <typename T, typename Fn>
std::vector<double> Collect(const std::vector<T>& items, Fn&& fn) {
  std::vector<double> out;
  out.reserve(items.size());
  for (const T& item : items) out.push_back(static_cast<double>(fn(item)));
  return out;
}

double Ratio(double num, double den) { return den == 0.0 ? 0.0 : num / den; }

void WriteSpans(const SpanRecorder& rec, const std::string& path) {
  if (path.empty()) return;
  if (!rec.WriteChromeTrace(path)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", path.c_str());
  }
}

double Sum(const std::vector<double>& v) {
  double total = 0.0;
  for (double x : v) total += x;
  return total;
}

zsky::QueryServiceOptions ServiceOptions(bool bounded,
                                         const std::string& spill_dir) {
  zsky::QueryServiceOptions options;
  options.executor.num_threads = PoolThreads();
  options.executor.spill_dir = spill_dir;
  // The service always runs on its own pool; direct layer calls in the
  // traced run use the same options.
  options.executor.reuse_worker_pool = true;
  if (bounded) {
    options.executor.shuffle_memory_budget_bytes = kShuffleBudgetBytes;
  }
  options.delta_merge_threshold = kMixMergeThreshold;
  return options;
}

zsky::PointSet ToPointSet(const std::vector<Coord>& coords) {
  zsky::PointSet points(kDim);
  points.mutable_raw() = coords;
  return points;
}

// --- Layers --------------------------------------------------------------

// Job 1 and job 2 called directly in the traced run, with the service's
// view, options and desc.
struct DirectRuns {
  std::vector<double> job1_ms;
  std::vector<double> job2_ms;
  std::vector<zsky::PhaseMetrics> metrics;
};

// Runs job 1 then job 2 on `plan`, each in its own span under a
// "pipeline" root, and checks the skyline against `reference`. An
// exception fails the operation and records no run.
void RunDirect(SpanRecorder& rec, Tally& tally, const zsky::PreparedPlan& plan,
               const zsky::ExecutorOptions& exec, const zsky::DatasetView& view,
               zsky::mr::WorkerPool* pool, const zsky::QueryDesc& desc,
               const std::vector<uint32_t>& reference, DirectRuns& out) {
  zsky::PhaseMetrics run;
  zsky::SkylineIndices skyline;
  double job1_ms = 0.0;
  double job2_ms = 0.0;
  try {
    const SpanRecorder::Scope root(rec, "pipeline");
    zsky::CandidateList candidates;
    job1_ms = rec.Time("job1", [&] {
      candidates = zsky::RunCandidateJob(plan, exec, view, pool, run, desc);
    });
    job2_ms = rec.Time("job2", [&] {
      skyline = zsky::RunMergeJob(plan, exec, view, std::move(candidates),
                                  pool, run, desc);
    });
  } catch (const std::exception& e) {
    tally.Exception(e);
    return;
  }
  tally.Answer(std::move(skyline), reference);
  out.job1_ms.push_back(job1_ms);
  out.job2_ms.push_back(job2_ms);
  out.metrics.push_back(std::move(run));
}

// io.transpose/readahead, job1.* and job2.*: medians over the direct
// runs. `skyline_rows` is the size of the answer they computed.
void AddJobLayers(Metrics& m, const DirectRuns& runs, size_t skyline_rows) {
  if (runs.metrics.empty()) throw std::runtime_error("no direct pipeline run");
  const auto median = [&](auto&& fn) {
    return Median(Collect(runs.metrics, fn));
  };
  const double rows_in = median([](const zsky::PhaseMetrics& pm) {
    size_t rows = 0;
    for (const auto& task : pm.job1.map_tasks) rows += task.records_in;
    return rows;
  });
  const double candidates = median([](const zsky::PhaseMetrics& pm) {
    return pm.candidates;
  });
  m.Add("io.transpose_mb", median([](const zsky::PhaseMetrics& pm) {
          return (pm.job1.transpose_bytes + pm.job2.transpose_bytes) / kMiB;
        }), "MiB");
  m.Add("io.readahead_mb", median([](const zsky::PhaseMetrics& pm) {
          return (pm.job1.readahead_bytes + pm.job2.readahead_bytes) / kMiB;
        }), "MiB");
  m.Add("io.readahead_wasted_mb", median([](const zsky::PhaseMetrics& pm) {
          return (pm.job1.readahead_wasted_bytes +
                  pm.job2.readahead_wasted_bytes) / kMiB;
        }), "MiB");
  m.Add("job1.ms", Median(runs.job1_ms), "ms");
  m.Add("job1.map_ms", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.map_wall_ms;
        }), "ms");
  m.Add("job1.shuffle_ms", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.shuffle_wall_ms;
        }), "ms");
  m.Add("job1.reduce_ms", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.reduce_wall_ms + pm.job1.collapse_wall_ms;
        }), "ms");
  m.Add("job1.map_skew", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.map_stats().skew;
        }), "ratio");
  m.Add("job1.reduce_skew", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.reduce_stats().skew;
        }), "ratio");
  m.Add("job1.rows_in", rows_in, "count");
  m.Add("job1.filter_ratio", median([&](const zsky::PhaseMetrics& pm) {
          return Ratio(pm.filtered_by_szb, rows_in);
        }), "ratio");
  m.Add("job1.box_drop_ratio", median([&](const zsky::PhaseMetrics& pm) {
          return Ratio(pm.dropped_by_box, rows_in);
        }), "ratio");
  m.Add("job1.regions_pruned", median([](const zsky::PhaseMetrics& pm) {
          return pm.regions_pruned_by_box;
        }), "count");
  m.Add("job1.tasks_stolen", median([](const zsky::PhaseMetrics& pm) {
          return pm.job1.tasks_stolen;
        }), "count");
  m.Add("job1.candidates", candidates, "count");
  m.Add("job2.ms", Median(runs.job2_ms), "ms");
  m.Add("job2.points_tested", median([](const zsky::PhaseMetrics& pm) {
          return pm.merge_stats.points_tested;
        }), "count");
  m.Add("job2.subtrees_discarded", median([](const zsky::PhaseMetrics& pm) {
          return pm.merge_stats.subtrees_discarded;
        }), "count");
  m.Add("job2.survivor_ratio",
        Ratio(static_cast<double>(skyline_rows), candidates), "ratio");
}

// What a run's mutations did and cost; all zero on the read workloads,
// which never mutate.
struct DeltaTally {
  double bootstrap_ms = 0.0;  // Median first mutation of a set-up,
  double setup_ms = 0.0;      // and the median set-up it is part of.
  size_t inserted_rows = 0;
  size_t fast_path_rows = 0;
  size_t delete_batches = 0;
  size_t repairs = 0;  // Delete batches that ran a band repair.
  size_t repair_partitions = 0;
  size_t merges = 0;
  double overlay_rows = 0.0;  // Median delta rows overlaid on a query.
  double insert_ms = 0.0;     // Timed Insert calls, in total;
  double delete_ms = 0.0;     // timed Delete calls;
  double merge_ms = 0.0;      // the calls of either kind that merged.
};

// The delta.* metrics and service.query_share_pct. Mutation time shows
// as shares of the timed operations' time (`query_ms` is the queries'
// total), which a read workload reports as 0% rather than as a latency
// it cannot measure; ops_per_s charges for the same time end to end.
void AddDeltaLayers(Metrics& m, const DeltaTally& d, double query_ms) {
  const double op_ms = d.insert_ms + d.delete_ms + query_ms;
  m.Add("delta.bootstrap_pct", 100.0 * Ratio(d.bootstrap_ms, d.setup_ms),
        "%");
  m.Add("delta.fast_path_ratio", Ratio(d.fast_path_rows, d.inserted_rows),
        "ratio");
  m.Add("delta.repair_ratio", Ratio(d.repairs, d.delete_batches), "ratio");
  m.Add("delta.repair_partitions", Ratio(d.repair_partitions, d.repairs),
        "count");
  m.Add("delta.merges", static_cast<double>(d.merges), "count");
  m.Add("delta.merge_share_pct", 100.0 * Ratio(d.merge_ms, op_ms), "%");
  m.Add("delta.overlay_rows", d.overlay_rows, "count");
  m.Add("delta.insert_share_pct", 100.0 * Ratio(d.insert_ms, op_ms), "%");
  m.Add("delta.delete_share_pct", 100.0 * Ratio(d.delete_ms, op_ms), "%");
  m.Add("service.query_share_pct", 100.0 * Ratio(query_ms, op_ms), "%");
}

void AddHostLayers(Metrics& m, const Fingerprint& fp) {
  m.Add("host.steal_pct", fp.steal_pct, "%");
  m.Add("host.cpu_ms_per_op", fp.cpu_ms_per_op, "ms");
}

}  // namespace

const std::vector<std::string>& MetricNames(bool trace) {
  static const std::vector<std::string> end_to_end = {
      "setup_s", "query_ms_p50", "ops_per_s", "peak_rss_mb"};
  static const std::vector<std::string> per_layer = {
      "service.install_ms",      "io.transpose_mb",
      "io.readahead_mb",         "io.readahead_wasted_mb",
      "plan.build_ms",           "plan.sample_skyline_rows",
      "job1.ms",                 "job1.map_ms",
      "job1.shuffle_ms",         "job1.reduce_ms",
      "job1.map_skew",           "job1.reduce_skew",
      "job1.rows_in",            "job1.filter_ratio",
      "job1.box_drop_ratio",     "job1.regions_pruned",
      "job1.tasks_stolen",       "job1.candidates",
      "job2.ms",                 "job2.points_tested",
      "job2.subtrees_discarded", "job2.survivor_ratio",
      "service.overhead_ms",     "service.query_share_pct",
      "delta.bootstrap_pct",     "delta.fast_path_ratio",
      "delta.repair_ratio",      "delta.repair_partitions",
      "delta.merges",            "delta.merge_share_pct",
      "delta.overlay_rows",      "delta.insert_share_pct",
      "delta.delete_share_pct",  "host.steal_pct",
      "host.cpu_ms_per_op",      "trace.overhead_pct",
      "trace.residual_pct"};
  return trace ? per_layer : end_to_end;
}

size_t ReadQueries(int seconds, bool trace) {
  // A query takes about 0.3 s on both read workloads (4-vCPU x86 VM):
  // three queries per second of run, or one traced iteration (three
  // pipeline runs) per second. On a shared VM the query time shifts
  // between a fast and a slow mode (job 2: ~190 or ~255 ms on heap-anti)
  // that each last several seconds; 20 s of queries spans several.
  const size_t queries = static_cast<size_t>(seconds) * (trace ? 1 : 3);
  return std::max(MinSamplesFor(50), queries);
}

RunReport RunRead(const ReadInputs& in, const RunOptions& opt) {
  const bool file = !in.zsc_path.empty();
  const zsky::QueryServiceOptions service_options =
      ServiceOptions(file, opt.spill_dir);
  const zsky::ExecutorOptions& exec = service_options.executor;
  zsky::QueryRequest request;
  request.desc.box_lo = in.box_lo;
  request.desc.box_hi = in.box_hi;
  const zsky::QueryDesc& desc = request.desc;
  const zsky::PointSet points = ToPointSet(in.points);

  SpanRecorder rec(opt.trace);
  Tally tally(opt.inject_wrong_answer_at);

  // The traced run's direct layer calls: the same backing, options and
  // desc the service uses, on a pool of the same size.
  std::unique_ptr<zsky::ColumnarDataset> mapped;
  std::unique_ptr<zsky::mr::WorkerPool> pool;
  zsky::DatasetView view(points);
  std::optional<zsky::PreparedPlan> plan;
  if (opt.trace) {
    if (file) {
      zsky::ColumnarDataset::Options map_options;
      map_options.bounded_residency = exec.shuffle_memory_budget_bytes > 0;
      map_options.readahead = exec.readahead;
      std::string error;
      mapped = zsky::ColumnarDataset::Open(in.zsc_path, &error, map_options);
      if (mapped == nullptr) throw std::runtime_error(error);
      view = mapped->view();
    }
    pool = std::make_unique<zsky::mr::WorkerPool>(PoolThreads());
  }

  WarmUp(opt.warmup_s);

  // Set-up: install the dataset into a fresh service and get the first
  // answer (plan build plus first query).
  std::unique_ptr<zsky::QueryService> service;
  std::vector<double> setup_s;
  for (size_t rep = 0; rep < opt.setup_reps; ++rep) {
    service.reset();
    service = std::make_unique<zsky::QueryService>(service_options);
    zsky::PointSet copy = file ? zsky::PointSet(kDim) : points;
    zsky::SkylineQueryResult first;
    {
      const SpanRecorder::Scope root(rec, "setup");
      const int64_t start = SpanRecorder::NowNs();
      if (file) {
        std::string error;
        bool installed = false;
        rec.Time("service.set_dataset_file", [&] {
          installed = service->SetDatasetFile(in.zsc_path, &error);
        });
        if (!installed) throw std::runtime_error("SetDatasetFile: " + error);
      } else {
        rec.Time("service.set_dataset",
                 [&] { service->SetDataset(std::move(copy)); });
      }
      rec.Time("service.query", [&] { first = service->Query(request); });
      setup_s.push_back(static_cast<double>(SpanRecorder::NowNs() - start) /
                        1e9);
    }
    tally.Answer(std::move(first.skyline), in.reference);
    if (opt.trace) {
      rec.Time("plan.prepare",
               [&] { plan.emplace(zsky::PreparePlan(view, exec)); });
    }
  }

  // Timed phase: one closed-loop client, one query at a time. A failed
  // query's latency counts as missing every limit.
  const auto timed_query = [&](const char* span, zsky::PhaseMetrics* pm) {
    auto q =
        TryTimed(rec, tally, span, [&] { return service->Query(request); });
    if (!q.has_value()) return kFailedLatency;
    if (pm != nullptr) *pm = q->value.metrics;
    return tally.Answer(std::move(q->value.skyline), in.reference)
               ? q->ms
               : kFailedLatency;
  };

  std::vector<double> query_ms;
  std::vector<double> untraced_ms;  // Traced run: twin queries, no span.
  std::vector<double> overhead_ms;
  DirectRuns direct;
  const HostSample host_before = SampleHost();
  for (size_t i = 0; i < opt.queries; ++i) {
    // The traced run alternates which of the twin queries goes first.
    const bool twin_first = i % 2 == 0;
    if (opt.trace && twin_first) {
      untraced_ms.push_back(timed_query(nullptr, nullptr));
    }
    zsky::PhaseMetrics pm;
    const double ms = timed_query("service.query", &pm);
    query_ms.push_back(ms);
    overhead_ms.push_back(ms - pm.preprocess_ms - pm.job1_ms - pm.job2_ms);
    if (!opt.trace) continue;
    if (!twin_first) untraced_ms.push_back(timed_query(nullptr, nullptr));
    RunDirect(rec, tally, *plan, exec, view, pool.get(), desc, in.reference,
              direct);
  }
  const HostSample host_after = SampleHost();

  RunReport report;
  report.attempted = tally.attempted();
  report.failed = tally.failed();
  report.fingerprint = MakeFingerprint(
      host_before, host_after,
      query_ms.size() + untraced_ms.size() + direct.metrics.size());
  const double query_total = Sum(query_ms);
  Metrics m;
  if (!opt.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.AddPercentile("query_ms_p50", query_ms, 50, "ms");
    m.Add("ops_per_s", static_cast<double>(query_ms.size()) /
                           (query_total / 1e3), "1/s");
    m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    report.metrics = m.Finish(false);
    return report;
  }

  m.Add("service.install_ms",
        Median(rec.DurationsMs(file ? "service.set_dataset_file"
                                    : "service.set_dataset")),
        "ms");
  m.Add("plan.build_ms", Median(rec.DurationsMs("plan.prepare")), "ms");
  m.Add("plan.sample_skyline_rows",
        static_cast<double>(plan->sample_skyline.size()), "count");
  AddJobLayers(m, direct, in.reference.size());
  const double service_overhead = P50(overhead_ms);
  m.Add("service.overhead_ms", service_overhead, "ms");
  AddDeltaLayers(m, DeltaTally{}, query_total);
  AddHostLayers(m, report.fingerprint);
  const double traced = P50(query_ms);
  const double untraced = P50(untraced_ms);
  m.Add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
  m.AddResidual(100.0 *
                (traced - P50(direct.job1_ms) - P50(direct.job2_ms) -
                 service_overhead) /
                traced);
  report.metrics = m.Finish(true);
  WriteSpans(rec, opt.trace_path);
  return report;
}

RunReport RunMix(const MixInputs& in, const RunOptions& opt) {
  const zsky::QueryServiceOptions service_options =
      ServiceOptions(false, opt.spill_dir);
  const zsky::ExecutorOptions& exec = service_options.executor;
  const zsky::PointSet base = ToPointSet(in.base);
  SpanRecorder rec(opt.trace);
  Tally tally(opt.inject_wrong_answer_at);

  // The traced run's direct layer calls run on the base, with the
  // service's options and the default desc, on a pool of the same size.
  const zsky::DatasetView view(base);
  std::unique_ptr<zsky::mr::WorkerPool> pool;
  std::optional<zsky::PreparedPlan> plan;
  if (opt.trace) pool = std::make_unique<zsky::mr::WorkerPool>(PoolThreads());

  WarmUp(opt.warmup_s);

  // Set-up: install the base into a fresh service, get the first answer,
  // and apply the first mutation, which bootstraps the delta overlay.
  std::unique_ptr<zsky::QueryService> service;
  std::unique_ptr<Mirror> mirror;
  std::vector<double> setup_s;
  std::vector<double> bootstrap_ms;
  for (size_t rep = 0; rep < opt.setup_reps; ++rep) {
    service.reset();
    service = std::make_unique<zsky::QueryService>(service_options);
    mirror = std::make_unique<Mirror>(in.base, kDim, kMixMergeThreshold);
    zsky::PointSet copy = base;
    const zsky::PointSet batch = ToPointSet(std::vector<Coord>(
        in.InsertBatch(0).begin(), in.InsertBatch(0).end()));
    zsky::SkylineQueryResult first;
    zsky::MutationResult inserted;
    {
      const SpanRecorder::Scope root(rec, "setup");
      const int64_t start = SpanRecorder::NowNs();
      rec.Time("service.set_dataset",
               [&] { service->SetDataset(std::move(copy)); });
      rec.Time("service.query", [&] { first = service->Query(); });
      bootstrap_ms.push_back(rec.Time(
          "service.insert", [&] { inserted = service->Insert(batch); }));
      setup_s.push_back(static_cast<double>(SpanRecorder::NowNs() - start) /
                        1e9);
    }
    tally.Answer(std::move(first.skyline), in.base_reference);
    tally.Mutation(inserted, mirror->Insert(in.InsertBatch(0)));
    if (opt.trace) {
      rec.Time("plan.prepare",
               [&] { plan.emplace(zsky::PreparePlan(view, exec)); });
    }
  }

  // Timed phase: replay the trace. Round 0's insert ran in set-up.
  std::vector<double> insert_ms;
  std::vector<double> delete_ms;
  std::vector<double> query_ms;
  std::vector<double> untraced_ms;
  std::vector<double> overhead_ms;
  std::vector<double> merge_ms;
  std::vector<double> overlay_rows;
  DeltaTally delta;
  size_t next_checkpoint = 0;

  // A mutation's latency counts as missing every limit when its result
  // disagrees with the mirror.
  using TimedMutation = std::optional<Timed<zsky::MutationResult>>;
  const auto record_mutation = [&](const TimedMutation& got,
                                   const Mirror::Outcome& want,
                                   std::vector<double>& samples) {
    if (!got.has_value()) {
      samples.push_back(kFailedLatency);
      return;
    }
    samples.push_back(tally.Mutation(got->value, want) ? got->ms
                                                       : kFailedLatency);
    if (got->value.merged) merge_ms.push_back(got->ms);
  };
  const auto timed_query = [&](const char* span, size_t round,
                               zsky::PhaseMetrics* pm) {
    auto q = TryTimed(rec, tally, span, [&] { return service->Query(); });
    if (!q.has_value()) return kFailedLatency;
    if (pm != nullptr) *pm = q->value.metrics;
    const bool checkpoint = next_checkpoint < in.checkpoint_rounds.size() &&
                            in.checkpoint_rounds[next_checkpoint] == round;
    if (!checkpoint) {
      tally.Unchecked();
      return q->ms;
    }
    return tally.Answer(std::move(q->value.skyline),
                        in.checkpoint_references[next_checkpoint])
               ? q->ms
               : kFailedLatency;
  };

  const HostSample host_before = SampleHost();
  for (size_t round = 0; round < in.rounds; ++round) {
    const zsky::PointSet batch = ToPointSet(std::vector<Coord>(
        in.InsertBatch(round).begin(), in.InsertBatch(round).end()));
    const size_t repairs_before = service->stats().repairs;
    TimedMutation insert;
    TimedMutation del;
    {
      const SpanRecorder::Scope root(rec, "mutate");
      if (round > 0) {
        insert = TryTimed(rec, tally, "service.insert",
                          [&] { return service->Insert(batch); });
      }
      del = TryTimed(rec, tally, "service.delete",
                     [&] { return service->Delete(in.DeleteBatch(round)); });
    }
    if (round > 0) {
      record_mutation(insert, mirror->Insert(in.InsertBatch(round)),
                      insert_ms);
      if (insert.has_value()) {
        delta.inserted_rows += insert->value.applied;
        delta.fast_path_rows += insert->value.fast_path;
      }
    }
    record_mutation(del, mirror->Delete(in.DeleteBatch(round)), delete_ms);
    if (del.has_value() && service->stats().repairs > repairs_before) {
      ++delta.repairs;
      delta.repair_partitions += del->value.repair_partitions;
    }

    // The traced run alternates a twin query without a span around it.
    const bool twin_first = round % 2 == 0;
    if (opt.trace && twin_first) {
      untraced_ms.push_back(timed_query(nullptr, round, nullptr));
    }
    zsky::PhaseMetrics pm;
    {
      const SpanRecorder::Scope root(rec, "query");
      query_ms.push_back(timed_query("service.query", round, &pm));
    }
    if (opt.trace && !twin_first) {
      untraced_ms.push_back(timed_query(nullptr, round, nullptr));
    }
    overhead_ms.push_back(query_ms.back() - pm.preprocess_ms - pm.job1_ms -
                          pm.job2_ms);
    overlay_rows.push_back(static_cast<double>(pm.delta_rows));
    if (next_checkpoint < in.checkpoint_rounds.size() &&
        in.checkpoint_rounds[next_checkpoint] == round) {
      ++next_checkpoint;
    }
  }
  const HostSample host_after = SampleHost();

  // The mix's queries are answered from the overlay, so the traced run
  // times the pipeline that set-up and delete repairs run by calling it
  // on the base, after the trace.
  DirectRuns direct;
  if (opt.trace) {
    for (size_t i = 0; i < kMixDirectRuns; ++i) {
      RunDirect(rec, tally, *plan, exec, view, pool.get(), zsky::QueryDesc{},
                in.base_reference, direct);
    }
  }

  const double query_total = Sum(query_ms);
  delta.insert_ms = Sum(insert_ms);
  delta.delete_ms = Sum(delete_ms);
  const size_t ops = insert_ms.size() + delete_ms.size() + query_ms.size();

  RunReport report;
  report.attempted = tally.attempted();
  report.failed = tally.failed();
  report.fingerprint =
      MakeFingerprint(host_before, host_after, ops + untraced_ms.size());
  Metrics m;
  if (!opt.trace) {
    m.Add("setup_s", Median(setup_s), "s");
    m.AddPercentile("query_ms_p50", query_ms, 50, "ms");
    m.Add("ops_per_s",
          static_cast<double>(ops) /
              ((delta.insert_ms + delta.delete_ms + query_total) / 1e3),
          "1/s");
    m.Add("peak_rss_mb", PeakRssMiB(), "MiB");
    report.metrics = m.Finish(false);
    return report;
  }

  m.Add("service.install_ms", Median(rec.DurationsMs("service.set_dataset")),
        "ms");
  m.Add("plan.build_ms", Median(rec.DurationsMs("plan.prepare")), "ms");
  m.Add("plan.sample_skyline_rows",
        static_cast<double>(plan->sample_skyline.size()), "count");
  AddJobLayers(m, direct, in.base_reference.size());
  m.Add("service.overhead_ms", P50(overhead_ms), "ms");
  delta.bootstrap_ms = Median(bootstrap_ms);
  delta.setup_ms = Median(setup_s) * 1e3;
  delta.delete_batches = delete_ms.size();
  delta.merges = merge_ms.size();
  delta.merge_ms = Sum(merge_ms);
  delta.overlay_rows = Median(overlay_rows);
  AddDeltaLayers(m, delta, query_total);
  AddHostLayers(m, report.fingerprint);
  const double traced = P50(query_ms);
  const double untraced = P50(untraced_ms);
  m.Add("trace.overhead_pct", 100.0 * (traced - untraced) / untraced, "%");
  // Share of each operation's root span that its layer spans leave
  // uncovered (client bookkeeping between the calls).
  const std::vector<double> self = rec.SelfMs();
  double root_total = 0.0;
  double root_self = 0.0;
  const auto& spans = rec.spans();
  for (size_t i = 0; i < spans.size(); ++i) {
    const std::string_view name = spans[i].name;
    if (spans[i].parent >= 0 || (name != "mutate" && name != "query")) {
      continue;
    }
    root_total += spans[i].ms();
    root_self += self[i];
  }
  m.AddResidual(100.0 * Ratio(root_self, root_total));
  report.metrics = m.Finish(true);
  WriteSpans(rec, opt.trace_path);
  return report;
}

}  // namespace perfbench
