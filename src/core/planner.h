#ifndef ZSKY_CORE_PLANNER_H_
#define ZSKY_CORE_PLANNER_H_

#include <cstddef>
#include <string>
#include <utility>
#include <vector>

#include "common/dataset_view.h"
#include "common/point_set.h"
#include "common/query_desc.h"
#include "core/options.h"

namespace zsky {

struct PreparedPlan;

// What the planner saw and why it chose what it chose.
struct PlanDecision {
  ExecutorOptions options;
  // Sample-estimated skyline fraction (|sky(sample)| / |sample|).
  double estimated_skyline_fraction = 0.0;
  size_t sample_size = 0;
  std::string rationale;  // Human-readable explanation.
};

// Picks a strategy combination from cheap sample statistics (the decision
// rules follow the paper's measured regimes, reproduced by bench_fig7 and
// bench_centralized):
//  - low dimensionality & tiny skylines: SB locals beat index-based ones;
//  - d >= 7 or skyline-heavy data: Z-search locals, prefix-probe merge;
//  - very high dimensionality (>= 32): skip the SZB filter (it filters
//    almost nothing and costs a query per point).
// `base` carries the caller's fixed settings (num_groups, bits, threads);
// the planner fills partitioning/local/merge/sample knobs. `points` is a
// DatasetView (heap PointSets convert implicitly) — only a ~2000-point
// sample is ever materialized, so planning over an mmap'd dataset touches
// a vanishing fraction of its pages.
PlanDecision PlanQuery(const DatasetView& points, const ExecutorOptions& base);

// Predicted per-query cost drivers of running the pipeline under a plan.
// All quantities are sample-extrapolated — nothing is executed.
struct PlanCostEstimate {
  // Points expected to survive the SZB filter + partition pruning and be
  // shuffled to job 1's reducers.
  size_t expected_shuffle_records = 0;
  // Candidates expected out of job 1 (the merge job's input size).
  size_t expected_candidates = 0;
  // Fraction of the dataset the SZB mapper filter is expected to drop.
  double szb_filter_rate = 0.0;
  // Fraction of the dataset routed to pruned partitions (ZDG only).
  double pruned_fraction = 0.0;
  // The largest group's share of the routed records (sample-measured);
  // the driver of reduce-wave stragglers.
  double max_group_fraction = 0.0;
};

// Prices an already-built plan for a dataset of `dataset_size` points
// using only the plan's learned statistics (sample skyline fraction,
// per-partition sample counts, pruned partitions). Lets a serving layer
// compare candidate plans — or decide a rebuild is worth it — without
// running a query.
PlanCostEstimate EstimatePlanCost(const PreparedPlan& plan,
                                  size_t dataset_size);

// Desc-aware pricing: starts from the full-space estimate and rescales the
// shuffle/candidate volumes by the query's post-constraint survivor
// estimate — the in-box fraction of the plan's sample (box selectivity)
// and the k-band thickness (a k-band is ~k skylines deep, and the counting
// filter passes ~k times as many points). A default desc returns the base
// estimate unchanged.
PlanCostEstimate EstimatePlanCost(const PreparedPlan& plan,
                                  size_t dataset_size, const QueryDesc& desc);

// Unit costs (microseconds per unit of work) the cost model prices
// candidate plans with, plus multiplicative feedback factors a serving
// layer learns from predicted-vs-actual stage times (see
// QueryServiceOptions::adaptive_planning). The defaults are order-of-
// magnitude figures for one modern core; the feedback scales absorb the
// host's true constants after the first measured query.
struct PlanCalibration {
  // Mapper side: SZB probe + group routing per input point.
  double map_us_per_record = 0.05;
  // Sort-based local skyline: pairwise dominance tests, ~n_g * sky_g.
  double sb_us_per_pair = 0.002;
  // Z-search local skyline: ~n_g * log2(n_g) tree work.
  double zs_us_per_record_log = 0.02;
  // Final merge work per candidate.
  double merge_us_per_candidate = 0.15;
  // Feedback: measured_ms / predicted_ms of the last query, smoothed.
  double job1_scale = 1.0;
  double job2_scale = 1.0;
};

// One candidate configuration ChoosePlan priced, for logs and benches.
struct PlanCandidateCost {
  std::string label;
  double predicted_total_ms = 0.0;
};

// The cost-based planner's output: the winning configuration plus the
// model's predictions for it (which the serving layer compares against
// the measured stage times to calibrate).
struct PlanChoice {
  ExecutorOptions options;
  double estimated_skyline_fraction = 0.0;
  size_t sample_size = 0;
  // Cost-model outputs of the winning candidate.
  PlanCostEstimate estimate;
  double predicted_job1_ms = 0.0;
  double predicted_job2_ms = 0.0;
  double predicted_total_ms = 0.0;
  std::string rationale;
  // Every candidate considered, in evaluation order.
  std::vector<PlanCandidateCost> candidates;
};

// Cost-based plan selection: enumerates partitioning scheme × local
// algorithm × reducer count candidates, builds a throwaway mini-plan for
// each over one shared ~2000-point sample (sample_ratio = 1, so the mini-
// plan's statistics cover the whole sample), prices it for the full
// dataset via EstimatePlanCost + `calibration`, and returns the cheapest.
// Unlike the rule-based PlanQuery above, ChoosePlan may also change
// num_groups (the reducer count) — pass the result's `options` to
// PreparePlan to build the real plan. The final-merge algorithm follows
// the local one (SB locals -> SB merge, ZS locals -> prefix probe).
// When `desc` is non-null the candidates are priced for that query variant
// (EstimatePlanCost's desc overload): a tight constraint box shrinks the
// predicted shuffle/merge volumes, which can flip the choice toward
// cheaper partitioners.
PlanChoice ChoosePlan(const DatasetView& points, const ExecutorOptions& base,
                      const PlanCalibration& calibration = {},
                      const QueryDesc* desc = nullptr);

}  // namespace zsky

#endif  // ZSKY_CORE_PLANNER_H_
