#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "inputs.h"

namespace perfbench {

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct RunOptions {
  // Separate traced run: wraps each public call in a span, also drives
  // PreparePlan / RunCandidateJob / RunMergeJob directly, and reports the
  // per-layer metrics instead of the end-to-end ones.
  bool trace = false;
  // Fresh-service set-ups per run; setup_s is their median.
  size_t setup_reps = 5;
  // Timed Query() calls after set-up (read workloads; mutate-mix replays
  // its whole trace).
  size_t queries = 0;
  // Untimed warm-up before the first set-up, in seconds.
  double warmup_s = 1.0;
  // Where shuffle spills go; must exist.
  std::string spill_dir = ".";
  // Traced run: where the spans are written once the run ends (Chrome
  // trace_event JSON); empty = not written.
  std::string trace_path;
  // Self-test hook: the answer of this operation (0-based, in the order
  // operations are attempted) is corrupted before it is checked.
  long inject_wrong_answer_at = -1;
};

// Host fingerprint, printed with every run. Never used to discard a run.
struct Fingerprint {
  unsigned nproc = 0;
  unsigned pool_threads = 0;
  std::string isa;
  double steal_pct = 0.0;      // Hypervisor steal over the timed phase.
  double cpu_ms_per_op = 0.0;  // Process CPU time per timed operation.
};

struct RunReport {
  size_t attempted = 0;
  size_t failed = 0;  // Exceptions, ok == false results, wrong answers.
  std::vector<Metric> metrics;
  Fingerprint fingerprint;

  double fail_frac() const {
    return attempted == 0 ? 0.0 : static_cast<double>(failed) / attempted;
  }
};

// The metrics every run reports, on every workload: BENCHMARK.json's
// end_to_end list untraced, its per_layer list traced. A run that cannot
// report one of them throws instead of returning a partial report.
const std::vector<std::string>& MetricNames(bool trace);

// Timed query count of a read workload run of `seconds` (trace: the
// traced run's iterations). Fixed per second of run, so the sample count
// never moves with host speed.
size_t ReadQueries(int seconds, bool trace);

// heap-anti (points in memory) and zsc-box (`.zsc` file, constraint box).
RunReport RunRead(const ReadInputs& inputs, const RunOptions& options);
// mutate-mix.
RunReport RunMix(const MixInputs& inputs, const RunOptions& options);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
