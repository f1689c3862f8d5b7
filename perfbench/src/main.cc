// The benchmark program behind perfbench/run.py.
//
//   zsky_perfbench prepare --workload W --seed N --seconds S --data DIR
//   zsky_perfbench run --workload W --seed N --seconds S --trace T --data DIR
//
// `prepare` generates the workload's inputs and reference answers into
// DIR (cached; a second call is a no-op). `run` measures them and prints,
// as the last line of stdout, one JSON object with the keys correct,
// attempted, failed and metrics; the host fingerprint goes to stderr. It
// exits non-zero without a result when the inputs are missing or a
// set-up fails.

#include <cmath>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <map>
#include <stdexcept>
#include <string>

#include "inputs.h"
#include "workloads.h"

namespace {

using perfbench::RunReport;

std::map<std::string, std::string> ParseFlags(int argc, char** argv) {
  std::map<std::string, std::string> flags;
  if (argc % 2 != 0) throw std::invalid_argument("every flag takes a value");
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    if (key.rfind("--", 0) != 0) throw std::invalid_argument("bad flag " + key);
    flags[key.substr(2)] = argv[i + 1];
  }
  for (const char* required : {"workload", "seed", "seconds", "data"}) {
    if (flags.count(required) == 0) {
      throw std::invalid_argument(std::string("missing --") + required);
    }
  }
  if (!perfbench::IsWorkload(flags["workload"])) {
    throw std::invalid_argument("unknown workload " + flags["workload"]);
  }
  return flags;
}

// A number with every digit. Non-finite values (a failed operation's
// latency) print as Infinity / NaN, which Python's json module reads.
std::string Number(double v) {
  if (std::isinf(v)) return v > 0 ? "Infinity" : "-Infinity";
  if (std::isnan(v)) return "NaN";
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void PrintReport(const RunReport& report) {
  const perfbench::Fingerprint& fp = report.fingerprint;
  std::fprintf(stderr,
               "perfbench: host {\"nproc\": %u, \"pool_threads\": %u, "
               "\"isa\": \"%s\", \"steal_pct\": %s, \"cpu_ms_per_op\": %s, "
               "\"fail_frac\": %s}\n",
               fp.nproc, fp.pool_threads, fp.isa.c_str(),
               Number(fp.steal_pct).c_str(), Number(fp.cpu_ms_per_op).c_str(),
               Number(report.fail_frac()).c_str());
  std::string metrics;
  for (const perfbench::Metric& m : report.metrics) {
    if (!metrics.empty()) metrics += ", ";
    metrics += "\"" + m.name + "\": {\"value\": " + Number(m.value) +
               ", \"unit\": \"" + m.unit + "\"}";
  }
  std::printf(
      "{\"correct\": %s, \"attempted\": %zu, \"failed\": %zu, \"metrics\": "
      "{%s}}\n",
      report.failed == 0 ? "true" : "false", report.attempted, report.failed,
      metrics.c_str());
  std::fflush(stdout);
}

int Run(std::map<std::string, std::string> flags) {
  const std::string workload = flags["workload"];
  const uint64_t seed = std::stoull(flags["seed"]);
  const int seconds = std::stoi(flags["seconds"]);
  const bool trace = flags["trace"] == "1";
  const std::string& dir = flags["data"];
  const std::string path = perfbench::InputsPath(workload, seed, seconds, dir);
  if (!std::filesystem::exists(path)) {
    throw std::runtime_error(path + " missing; run prepare first");
  }

  perfbench::RunOptions options;
  options.trace = trace;
  options.spill_dir = dir + "/spill";
  std::filesystem::create_directories(options.spill_dir);
  if (trace) {
    options.trace_path =
        dir + "/trace-" + workload + "-s" + std::to_string(seed) + ".json";
  }
  RunReport report;
  if (workload == perfbench::kMutateMix) {
    // A mutate-mix set-up costs about 1.3 s on a 4-vCPU x86 VM, band
    // bootstrap included.
    options.setup_reps = 3;
    report = perfbench::RunMix(perfbench::LoadMixInputs(path), options);
  } else {
    options.queries = perfbench::ReadQueries(seconds, trace);
    report = perfbench::RunRead(perfbench::LoadReadInputs(path), options);
  }
  PrintReport(report);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) {
      throw std::invalid_argument("usage: zsky_perfbench prepare|run ...");
    }
    const std::string command = argv[1];
    std::map<std::string, std::string> flags = ParseFlags(argc, argv);
    if (command == "prepare") {
      std::printf("%s\n",
                  perfbench::PrepareInputs(flags["workload"],
                                           std::stoull(flags["seed"]),
                                           std::stoi(flags["seconds"]),
                                           flags["data"])
                      .c_str());
      return 0;
    }
    if (command == "run") return Run(std::move(flags));
    throw std::invalid_argument("unknown command " + command);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "zsky_perfbench: %s\n", e.what());
    return 1;
  }
}
