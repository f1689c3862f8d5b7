#ifndef ZSKY_PARTITION_ZORDER_GROUPING_H_
#define ZSKY_PARTITION_ZORDER_GROUPING_H_

#include <cstdint>
#include <memory>
#include <string_view>
#include <vector>

#include "common/point_set.h"
#include "partition/partitioner.h"
#include "zorder/rz_region.h"
#include "zorder/zaddress.h"
#include "zorder/zorder_codec.h"

namespace zsky {

// The three Z-order partition-grouping strategies of Section 4.
enum class GroupingStrategy {
  kNaiveZ,     // Section 4.1: M equal-count Z-ranges, one group each.
  kHeuristic,  // Section 4.2 / Algorithm 1 (ZHG): balance sample-skyline
               // counts and sizes across groups.
  kDominance,  // Section 4.3 / Algorithm 2 (ZDG): greedily co-locate
               // partitions with large mutual dominance volume; prune
               // partitions whose region is fully dominated.
};

std::string_view GroupingStrategyName(GroupingStrategy s);

// Z-order partitioner + partition grouping, learned from a sample
// (the paper's preprocessing phase output: pivots + PGmap).
//
// Partitions are contiguous Z-address ranges cut at sample quantiles so
// each receives ~|sample|/count points (data-skew reduction, Section 4.1).
// Groups are unions of partitions per the selected strategy. Points whose
// partition was pruned (ZDG only) route to kDroppedGroup: their partition's
// whole RZ-region is dominated by another non-empty partition, so they
// cannot be skyline points.
class ZOrderGroupedPartitioner : public Partitioner {
 public:
  struct Options {
    // M: target number of groups (reduce-side workers).
    uint32_t num_groups = 8;
    // delta: partition expansion factor; ZHG/ZDG start from
    // num_groups * expansion partitions.
    uint32_t expansion = 4;
    GroupingStrategy strategy = GroupingStrategy::kDominance;
  };

  // Learns the plan from `sample`. `codec` must outlive the partitioner.
  ZOrderGroupedPartitioner(const ZOrderCodec* codec, const PointSet& sample,
                           const Options& options);

  // Reconstructs a partitioner from previously learned plan state — the
  // paper's "the preprocessing step outputs the data partitioning rules"
  // (Section 5.1); WithSample builds its copies through it. `lowers` are
  // the partitions' inclusive lower-bound addresses (ascending, first ==
  // MinAddress); `group_of` maps partitions to groups (kDroppedGroup for
  // pruned ones); the sample skyline feeds the SZB mapper filter.
  static ZOrderGroupedPartitioner FromPlanParts(
      const ZOrderCodec* codec, const Options& options,
      std::vector<ZAddress> lowers, std::vector<int32_t> group_of,
      std::vector<uint32_t> sample_counts,
      std::vector<uint32_t> skyline_counts, PointSet sample_skyline);

  // A copy for a sample that lost rows (the write path's plan patch,
  // core/query_plan.h): the same cuts, regions and groups, with
  // `sample_counts` (sampled rows left per partition) and
  // `sample_skyline` describing the sample left. A pruned partition stays
  // pruned only while a partition that still holds a sampled row — an
  // alive row — dominates its region; any other is routed to group
  // i % num_groups(), the reroute the pipeline applies under a box.
  std::unique_ptr<ZOrderGroupedPartitioner> WithSample(
      std::vector<uint32_t> sample_counts, PointSet sample_skyline) const;

  uint32_t num_groups() const override { return num_groups_; }
  int32_t GroupOf(std::span<const Coord> p) const override;
  std::string_view name() const override {
    return GroupingStrategyName(options_.strategy);
  }

  int32_t GroupOfAddress(const ZAddress& z) const;

  // Partition index (the Z-range containing p's address) in
  // [0, num_partitions()); allocation-free like GroupOf. Query variants
  // use it to consult a per-query partition table (constraint-box region
  // pruning, k-skyband reroutes of ZDG-pruned partitions) before the
  // partition's static group assignment is applied.
  size_t PartitionOf(std::span<const Coord> p) const;

  const ZOrderCodec& codec() const { return *codec_; }

  // --- Introspection (tests, benches, executor). ---
  size_t num_partitions() const { return lowers_.size(); }
  // Inclusive lower Z-address bound of partition `i`.
  const ZAddress& partition_lower(size_t i) const { return lowers_[i]; }
  const RZRegion& partition_region(size_t i) const { return regions_[i]; }
  int32_t group_of_partition(size_t i) const { return group_of_[i]; }
  uint32_t partition_sample_count(size_t i) const { return sample_counts_[i]; }
  uint32_t partition_skyline_count(size_t i) const {
    return skyline_counts_[i];
  }
  size_t pruned_partition_count() const { return pruned_count_; }

  // The sample's skyline points (reused by the executor's SZB-tree filter).
  const PointSet& sample_skyline() const { return sample_skyline_; }

 private:
  // Bare-bones constructor for FromPlanParts.
  struct FromPartsTag {};
  ZOrderGroupedPartitioner(const ZOrderCodec* codec, const Options& options,
                           FromPartsTag)
      : codec_(codec),
        options_(options),
        sorted_sample_(codec->dim()),
        sample_skyline_(codec->dim()) {}

  struct Part {
    size_t begin;  // Range of z-sorted sample indices covered.
    size_t end;
    uint32_t skyline_count = 0;
    bool pruned = false;
    int32_t group = kDroppedGroup;
  };

  void BuildParts(const std::vector<size_t>& cuts,
                  const std::vector<uint8_t>& skyline_flags,
                  std::vector<Part>& parts) const;
  void RedistributeBySkyline(uint32_t cap,
                             const std::vector<uint8_t>& skyline_flags,
                             std::vector<Part>& parts) const;
  std::vector<RZRegion> ComputeRegions(const std::vector<Part>& parts) const;
  void GroupHeuristic(std::vector<Part>& parts) const;
  void GroupDominance(std::vector<Part>& parts,
                      const std::vector<RZRegion>& regions);
  void Finalize(const std::vector<Part>& parts,
                std::vector<RZRegion> regions);

  // Inclusive lower-bound address of a part (MinAddress for the first).
  ZAddress PartLowerAddress(const Part& part) const;

  const ZOrderCodec* codec_;
  Options options_;

  // Z-sorted sample (addresses parallel to points).
  PointSet sorted_sample_;
  std::vector<ZAddress> sorted_addresses_;

  PointSet sample_skyline_;

  // Final plan (parallel arrays over partitions, ascending by lower bound).
  std::vector<ZAddress> lowers_;
  std::vector<RZRegion> regions_;
  std::vector<int32_t> group_of_;
  std::vector<uint32_t> sample_counts_;
  std::vector<uint32_t> skyline_counts_;
  uint32_t num_groups_ = 0;
  size_t pruned_count_ = 0;
};

}  // namespace zsky

#endif  // ZSKY_PARTITION_ZORDER_GROUPING_H_
