#ifndef ZSKY_CORE_OPTIONS_H_
#define ZSKY_CORE_OPTIONS_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>

#include "index/zbtree.h"

namespace zsky {

// Data-partitioning strategies evaluated by the paper (Section 6.1).
enum class PartitioningScheme {
  kRandom,    // Random/hash partitioning [18].
  kGrid,      // Grid-based partitioning [9], [11].
  kAngle,     // Angle-based partitioning [8].
  kQuadTree,  // Quad-tree-based partitioning [20].
  kNaiveZ,    // Z-order partitioning, no grouping (Section 4.1).
  kZhg,       // Z-order + Heuristic Grouping (Algorithm 1).
  kZdg,       // Z-order + Dominance-based Grouping (Algorithm 2).
};

// Local (per-group) skyline algorithms.
enum class LocalAlgorithm {
  kSortBased,  // "SB": sort + block-nested-loop.
  kZSearch,    // "ZS": state-of-the-art ZB-tree search [5].
  kBbs,        // Branch-and-bound skyline over an R-tree (classic
               // progressive competitor; ours to show the pipeline is
               // local-algorithm-agnostic).
};

// Final candidate-merging algorithms (MR job 2).
enum class MergeAlgorithm {
  kSortBased,       // Re-run a centralized sort-based skyline over
                    // candidates.
  kZSearch,         // Re-run Z-search over candidates ("ZDG+ZS", §6).
  kZMerge,          // Tree-vs-tree Z-merge (Algorithm 4, "ZM").
  kPrefixProbe,     // Parallel sort-then-filter (ours, "PP"): one ZB-tree
                    // over all candidates; job 2's map wave tests every
                    // candidate against the tree slots before its own.
                    // Removes §5.3's single-reducer merge.
};

std::string_view PartitioningSchemeName(PartitioningScheme s);
std::string_view LocalAlgorithmName(LocalAlgorithm a);
std::string_view MergeAlgorithmName(MergeAlgorithm m);

// Configuration of the three-phase parallel skyline pipeline.
struct ExecutorOptions {
  PartitioningScheme partitioning = PartitioningScheme::kZdg;
  LocalAlgorithm local = LocalAlgorithm::kZSearch;
  MergeAlgorithm merge = MergeAlgorithm::kPrefixProbe;

  // M: number of groups / reduce-side workers.
  uint32_t num_groups = 8;
  // delta: partition expansion factor for ZHG/ZDG.
  uint32_t expansion = 4;
  // Preprocessing sample ratio (of input size); clamped to a small floor so
  // tiny inputs still learn a plan.
  double sample_ratio = 0.01;

  // Map tasks of MR job 1 (job 2 takes one per 256 probed candidates
  // under kPrefixProbe, this many otherwise).
  uint32_t num_map_tasks = 16;
  // Worker threads (0 = hardware concurrency).
  uint32_t num_threads = 0;
  bool enable_combiner = true;
  // Mapper-side filter against the sample-skyline ZB-tree (Algorithm 3
  // lines 2-3). Disable for ablation.
  bool enable_szb_filter = true;

  // Per-dimension coordinate resolution (must cover the input's values;
  // inputs produced via Quantizer share this).
  uint32_t bits = 16;

  // --- Hot-path controls. All default on; turning one off restores the
  // corresponding seed behavior (the ablation arms bench_hotpath,
  // bench_skew_stragglers, bench_sched and bench_outofcore measure). ---
  // One persistent worker pool per executor, shared by job 1, job 2 and
  // the final merge. Off = spawn-and-join threads per wave.
  bool reuse_worker_pool = true;
  // Morsel-driven work-stealing waves (docs/scheduling.md): per-slot
  // morsel queues with steal-from-random-victim on the worker pool. Off =
  // static chunked claiming from one shared counter (the PR-4 behavior) —
  // the ablation baseline bench_sched measures against.
  bool morsel_scheduling = true;
  // Async readahead on `.zsc` backings: scans announce the next block's
  // row range and the dataset's worker thread faults those pages in ahead
  // of the scan (io/columnar.h). Off = the executor disarms the view's
  // prefetch hook, so every page fault lands on the scan thread — the
  // cold-run ablation baseline.
  bool readahead = true;
  // Target rows per map morsel: job 1's map wave is widened to
  // ceil(n / map_morsel_rows) range-over-split tasks when that exceeds
  // num_map_tasks, so one core-sized split cannot straggle the wave.
  // Depends only on the data size — never the thread count — so work
  // counters stay schedule-invariant. 0 keeps num_map_tasks as-is.
  uint32_t map_morsel_rows = 16384;
  // Target rows per reduce-side collapse slice: grouped runs of job 1
  // reducers that exceed max(2 * this, 2 * mean run length) are cut into
  // key-range slices and pre-collapsed through the combiner as stealable
  // tasks (see mr::MapReduceJob::Options::reduce_morsel_records). 0
  // disables the collapse wave.
  uint32_t reduce_morsel_records = 8192;

  // --- Disk-backed shuffle (mr::MapReduceJob spill controls). ---
  // Spill every map task's output to disk between the waves.
  bool spill_to_disk = false;
  // When > 0 (and spill_to_disk is off): buffered map output is capped at
  // this many bytes per job; the largest task buffers are spilled until
  // the rest fits.
  size_t shuffle_memory_budget_bytes = 0;
  // Spill directory; empty = $TMPDIR, falling back to /tmp.
  std::string spill_dir;

  // --- Simulated-cluster model (see DESIGN.md "Substitutions"). ---
  // The host may have few cores, so the executor also reports a simulated
  // cluster time: per-task wall times scheduled onto `sim_workers` slots
  // plus a shuffle-bandwidth term. 0 = use num_groups slots.
  uint32_t sim_workers = 0;
  // Aggregate shuffle bandwidth in MiB/s (0 disables the network term).
  double sim_net_mbps = 1024.0;

  // Hadoop-style task retry (both jobs); attempts beyond the first only
  // matter together with mr::MapReduceJob failure injection, which the
  // executor enables for resilience tests via `failure_injector`.
  uint32_t max_task_attempts = 1;
  std::function<bool(int wave, size_t task, uint32_t attempt)>
      failure_injector;

  uint64_t seed = 42;
  ZBTree::Options tree;

  // Short label like "zdg+zs+zm" for benchmark tables.
  std::string Label() const;
};

}  // namespace zsky

#endif  // ZSKY_CORE_OPTIONS_H_
