#ifndef PERFBENCH_MIRROR_H_
#define PERFBENCH_MIRROR_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/point_set.h"

namespace perfbench {

using zsky::Coord;

// The client's model of a QueryService's logical dataset under Insert,
// Delete and automatic merges, as docs/updates.md specifies them:
//  - base rows keep their ids; an inserted row takes the next id after
//    every base and delta row, dead ones included;
//  - a delete of an out-of-range or dead id is rejected, the rest apply;
//  - once delta rows plus tombstoned base rows reach the merge threshold,
//    the mutation that crossed it merges, compacting ids: alive base rows
//    in ascending order, then alive delta rows in insertion order.
// It predicts every MutationResult field the benchmark checks exactly.
class Mirror {
 public:
  struct Outcome {
    size_t applied = 0;
    size_t rejected = 0;
    uint32_t first_id = 0;  // Inserts only.
    bool merged = false;
  };

  Mirror(std::vector<Coord> base, uint32_t dim, size_t merge_threshold);

  // `rows` holds whole row-major points.
  Outcome Insert(std::span<const Coord> rows);
  Outcome Delete(std::span<const uint32_t> ids);

  size_t logical_rows() const { return alive_.size(); }
  bool alive(uint32_t id) const { return id < alive_.size() && alive_[id]; }
  // Row-major coordinates and alive flags, indexed by logical id.
  const std::vector<Coord>& coords() const { return coords_; }
  const std::vector<uint8_t>& alive_mask() const { return alive_; }

 private:
  void MaybeMerge(Outcome* outcome);

  uint32_t dim_;
  size_t merge_threshold_;
  std::vector<Coord> coords_;
  std::vector<uint8_t> alive_;
  size_t base_rows_;
  size_t base_dead_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_MIRROR_H_
