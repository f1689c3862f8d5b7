// Self-test of the benchmark's own machinery, run by perfbench/run.py
// before every measurement:
//  - percentile selection refuses a percentile with fewer than 10
//    samples beyond it;
//  - span self time is right on synthetic nested spans;
//  - an injected wrong answer raises fail_frac, on every workload kind;
//  - short runs of every workload kind complete, which a run does only
//    when it reports every metric of its list.
//
//   zsky_perfbench_selftest WORK_DIR

#include <cstdio>
#include <exception>
#include <filesystem>
#include <string>
#include <vector>

#include "inputs.h"
#include "spans.h"
#include "stats.h"
#include "workloads.h"

namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "selftest FAILED: %s\n", what.c_str());
  }
}

std::vector<double> Ramp(size_t n) {
  std::vector<double> v;
  for (size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
  return v;  // Descending, so selection must sort.
}

void TestPercentiles() {
  using perfbench::Percentile;
  Expect(!Percentile(Ramp(19), 50).has_value(), "p50 of 19 samples refused");
  Expect(Percentile(Ramp(20), 50) == 10.0, "p50 of 20 samples is the 10th");
  Expect(!Percentile(Ramp(99), 90).has_value(), "p90 of 99 samples refused");
  Expect(Percentile(Ramp(100), 90) == 90.0, "p90 of 100 samples is the 90th");
  Expect(Percentile(Ramp(200), 90) == 180.0, "p90 of 200 samples");
  Expect(perfbench::MinSamplesFor(50) == 20, "p50 needs 20 samples");
  Expect(perfbench::MinSamplesFor(90) == 100, "p90 needs 100 samples");
  Expect(perfbench::Median({3.0, 1.0, 2.0}) == 2.0, "median of three");
}

void TestSelfTime() {
  constexpr int64_t kMs = 1000000;
  perfbench::SpanRecorder rec(true);
  // root [0,100) { a [10,40) { a1 [15,25) }, b [50,90) }, second root.
  const int root = rec.AddSpan("root", -1, 0, 100 * kMs);
  const int a = rec.AddSpan("a", root, 10 * kMs, 40 * kMs);
  const int a1 = rec.AddSpan("a1", a, 15 * kMs, 25 * kMs);
  const int b = rec.AddSpan("b", root, 50 * kMs, 90 * kMs);
  const int other = rec.AddSpan("root", -1, 200 * kMs, 207 * kMs);
  const std::vector<double> self = rec.SelfMs();
  Expect(self[root] == 30.0, "root self time = 100 - 30 - 40");
  Expect(self[a] == 20.0, "child self time = 30 - 10");
  Expect(self[a1] == 10.0, "leaf self time = duration");
  Expect(self[b] == 40.0, "second child self time");
  Expect(self[other] == 7.0, "childless root self time");
  Expect(rec.spans()[a1].root == root, "grandchild shares the root id");
  Expect(rec.DurationsMs("root") == std::vector<double>({100.0, 7.0}),
         "durations by name");

  // Live spans nest through Scope and Time.
  perfbench::SpanRecorder live(true);
  {
    const perfbench::SpanRecorder::Scope scope(live, "outer");
    live.Time("inner", [] {});
    live.Time(nullptr, [] {});  // Timed, not recorded.
  }
  Expect(live.spans().size() == 2 && live.spans()[1].parent == 0,
         "live spans nest");
  Expect(live.SelfMs()[0] >= 0.0, "live self time is not negative");
  perfbench::SpanRecorder off(false);
  off.Time("x", [] {});
  Expect(off.spans().empty(), "disabled recorder records nothing");
}

void TestReadWorkloads(const std::string& dir) {
  perfbench::RunOptions options;
  options.setup_reps = 1;
  options.queries = perfbench::MinSamplesFor(50);
  options.warmup_s = 0.0;
  options.spill_dir = dir;

  const perfbench::ReadInputs heap = perfbench::MakeHeapAnti(7, 2000);
  const perfbench::RunReport clean = perfbench::RunRead(heap, options);
  Expect(clean.attempted == 1 + options.queries && clean.failed == 0,
         "heap run: every answer matches the reference");

  options.inject_wrong_answer_at = 2;
  const perfbench::RunReport injected = perfbench::RunRead(heap, options);
  Expect(injected.failed == 1 &&
             injected.fail_frac() == 1.0 / static_cast<double>(clean.attempted),
         "heap run: an injected wrong answer raises fail_frac");
  options.inject_wrong_answer_at = -1;

  const perfbench::ReadInputs box =
      perfbench::MakeZscBox(7, 40000, dir + "/selftest.zsc");
  Expect(!box.reference.empty(), "zsc box holds a skyline");
  options.queries = perfbench::MinSamplesFor(50);
  options.trace = true;
  const perfbench::RunReport traced = perfbench::RunRead(box, options);
  Expect(traced.failed == 0, "traced zsc run: every answer matches");
  options.inject_wrong_answer_at = 5;
  Expect(perfbench::RunRead(box, options).fail_frac() > 0.0,
         "traced zsc run: an injected wrong answer raises fail_frac");
  std::filesystem::remove(box.zsc_path);
}

void TestMixWorkload(const std::string& dir) {
  perfbench::RunOptions options;
  options.setup_reps = 1;
  options.warmup_s = 0.0;
  options.spill_dir = dir;
  options.trace = true;
  const perfbench::MixInputs mix =
      perfbench::MakeMutateMix(7, 3000, perfbench::MinSamplesFor(50));
  const perfbench::RunReport clean = perfbench::RunMix(mix, options);
  Expect(clean.failed == 0,
         "mix run: mutation results and checkpoints match the mirror");
  // Operation 1 is set-up's first mutation, checked against the mirror.
  options.inject_wrong_answer_at = 1;
  options.trace = false;
  const perfbench::RunReport injected = perfbench::RunMix(mix, options);
  Expect(injected.failed == 1 && injected.fail_frac() > 0.0,
         "mix run: an injected wrong mutation result raises fail_frac");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 2) {
    std::fprintf(stderr, "usage: zsky_perfbench_selftest WORK_DIR\n");
    return 2;
  }
  const std::string dir = argv[1];
  try {
    std::filesystem::create_directories(dir);
    TestPercentiles();
    TestSelfTime();
    TestReadWorkloads(dir);
    TestMixWorkload(dir);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "selftest FAILED: %s\n", e.what());
    return 1;
  }
  if (failures > 0) return 1;
  std::fprintf(stderr, "perfbench selftest: ok\n");
  return 0;
}
