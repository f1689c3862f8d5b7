#include "index/dynamic_skyline.h"

#include <algorithm>

#include "common/dominance.h"

namespace zsky {

DynamicSkyline::DynamicSkyline(const ZOrderCodec* codec,
                               const ZBTree::Options& options)
    : codec_(codec), options_(options), buffer_points_(codec->dim()) {
  ZSKY_CHECK(codec != nullptr);
}

bool DynamicSkyline::ExistsDominatorOf(std::span<const Coord> p) const {
  for (size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (buffer_alive_[i] && Dominates(buffer_points_[i], p)) return true;
  }
  for (const auto& tree : trees_) {
    if (tree->ExistsDominatorOf(p)) return true;
  }
  return false;
}

void DynamicSkyline::Append(std::span<const Coord> p, uint32_t id) {
  buffer_points_.Append(p);
  buffer_ids_.push_back(id);
  buffer_alive_.push_back(1);
  ++buffer_alive_count_;
  ++alive_total_;
  if (buffer_ids_.size() >= kBufferLimit) FlushBuffer();
}

void DynamicSkyline::AppendAll(const PointSet& points,
                               std::span<const uint32_t> ids) {
  ZSKY_CHECK(points.size() == ids.size());
  for (size_t i = 0; i < points.size(); ++i) Append(points[i], ids[i]);
}

size_t DynamicSkyline::RemoveDominatedBy(std::span<const Coord> p) {
  size_t removed = 0;
  for (size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (buffer_alive_[i] && Dominates(p, buffer_points_[i])) {
      buffer_alive_[i] = 0;
      --buffer_alive_count_;
      ++removed;
    }
  }
  for (size_t t = 0; t < trees_.size(); ++t) {
    removed += trees_[t]->RemoveDominatedBy(p);
    MaybeCompact(t);
  }
  // Drop trees emptied by compaction/removal.
  std::erase_if(trees_, [](const std::unique_ptr<ZBTree>& tree) {
    return tree->alive_count() == 0;
  });
  alive_total_ -= removed;
  return removed;
}

std::optional<RZRegion> DynamicSkyline::BoundingRegion() const {
  std::optional<RZRegion> region;
  auto extend_point = [&](std::span<const Coord> p) {
    if (!region) {
      region.emplace(std::vector<Coord>(p.begin(), p.end()),
                     std::vector<Coord>(p.begin(), p.end()));
    } else {
      region->ExtendToCover(p);
    }
  };
  for (size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (buffer_alive_[i]) extend_point(buffer_points_[i]);
  }
  for (const auto& tree : trees_) {
    if (tree->alive_count() == 0) continue;
    const auto lo = tree->min_corner(tree->root());
    const auto hi = tree->max_corner(tree->root());
    if (!region) {
      region.emplace(std::vector<Coord>(lo.begin(), lo.end()),
                     std::vector<Coord>(hi.begin(), hi.end()));
    } else {
      region->ExtendToCover(lo);
      region->ExtendToCover(hi);
    }
  }
  return region;
}

void DynamicSkyline::Export(PointSet& points, std::vector<uint32_t>& ids) const {
  for (size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (!buffer_alive_[i]) continue;
    points.AppendFrom(buffer_points_, i);
    ids.push_back(buffer_ids_[i]);
  }
  for (const auto& tree : trees_) tree->CollectAlive(points, ids);
}

void DynamicSkyline::FlushBuffer() {
  // Gather alive buffer entries plus every tree small enough that merging
  // keeps sizes geometric.
  PointSet merged(codec_->dim());
  std::vector<uint32_t> merged_ids;
  for (size_t i = 0; i < buffer_ids_.size(); ++i) {
    if (!buffer_alive_[i]) continue;
    merged.AppendFrom(buffer_points_, i);
    merged_ids.push_back(buffer_ids_[i]);
  }
  buffer_points_.Clear();
  buffer_ids_.clear();
  buffer_alive_.clear();
  buffer_alive_count_ = 0;

  while (!trees_.empty() &&
         trees_.back()->alive_count() <= 2 * merged_ids.size()) {
    trees_.back()->CollectAlive(merged, merged_ids);
    trees_.pop_back();
  }
  if (merged_ids.empty()) return;
  trees_.push_back(
      std::make_unique<ZBTree>(codec_, merged, std::move(merged_ids),
                               options_));
  // Keep the size-descending invariant (the new tree may have swallowed
  // enough entries to out-size its predecessor).
  std::sort(trees_.begin(), trees_.end(),
            [](const auto& a, const auto& b) {
              return a->alive_count() > b->alive_count();
            });
}

void DynamicSkyline::MaybeCompact(size_t tree_index) {
  ZBTree& tree = *trees_[tree_index];
  if (tree.alive_count() == 0 || tree.alive_count() * 2 > tree.size()) return;
  PointSet survivors(codec_->dim());
  std::vector<uint32_t> ids;
  tree.CollectAlive(survivors, ids);
  trees_[tree_index] =
      std::make_unique<ZBTree>(codec_, survivors, std::move(ids), options_);
}

}  // namespace zsky
