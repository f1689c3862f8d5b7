#include "mirror.h"

#include <utility>

namespace perfbench {

Mirror::Mirror(std::vector<Coord> base, uint32_t dim, size_t merge_threshold)
    : dim_(dim),
      merge_threshold_(merge_threshold),
      coords_(std::move(base)),
      alive_(coords_.size() / dim, 1),
      base_rows_(alive_.size()) {}

Mirror::Outcome Mirror::Insert(std::span<const Coord> rows) {
  Outcome outcome;
  const size_t count = rows.size() / dim_;
  if (count == 0) return outcome;
  outcome.first_id = static_cast<uint32_t>(alive_.size());
  coords_.insert(coords_.end(), rows.begin(), rows.end());
  alive_.resize(alive_.size() + count, 1);
  outcome.applied = count;
  MaybeMerge(&outcome);
  return outcome;
}

Mirror::Outcome Mirror::Delete(std::span<const uint32_t> ids) {
  Outcome outcome;
  if (ids.empty()) return outcome;
  for (uint32_t id : ids) {
    if (!alive(id)) {
      ++outcome.rejected;
      continue;
    }
    alive_[id] = 0;
    if (id < base_rows_) ++base_dead_;
    ++outcome.applied;
  }
  MaybeMerge(&outcome);
  return outcome;
}

void Mirror::MaybeMerge(Outcome* outcome) {
  const size_t delta_rows = alive_.size() - base_rows_;
  if (merge_threshold_ == 0 || delta_rows + base_dead_ < merge_threshold_) {
    return;
  }
  // Ids are already base-then-delta in insertion order, so compaction is
  // a stable filter of the alive rows.
  std::vector<Coord> kept;
  kept.reserve(coords_.size());
  for (size_t id = 0; id < alive_.size(); ++id) {
    if (!alive_[id]) continue;
    kept.insert(kept.end(), coords_.begin() + id * dim_,
                coords_.begin() + (id + 1) * dim_);
  }
  coords_ = std::move(kept);
  base_rows_ = coords_.size() / dim_;
  alive_.assign(base_rows_, 1);
  base_dead_ = 0;
  outcome->merged = true;
}

}  // namespace perfbench
