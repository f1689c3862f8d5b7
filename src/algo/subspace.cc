#include "algo/subspace.h"

#include "common/macros.h"

namespace zsky {

void ProjectDimsInto(const PointSet& points, std::span<const uint32_t> dims,
                     std::span<const uint8_t> flip, Coord max_coord,
                     PointSet& out) {
  ZSKY_CHECK(!dims.empty());
  ZSKY_CHECK(out.dim() == dims.size());
  ZSKY_CHECK(flip.empty() || flip.size() == dims.size());
  for (uint32_t d : dims) ZSKY_CHECK(d < points.dim());
  out.Clear();
  out.Reserve(points.size());
  // Append rows straight into the output's raw storage: no per-row
  // temporary, one resize total.
  std::vector<Coord>& raw = out.mutable_raw();
  raw.resize(points.size() * dims.size());
  for (size_t i = 0; i < points.size(); ++i) {
    ProjectRowInto(points[i], dims, flip, max_coord,
                   std::span<Coord>(raw.data() + i * dims.size(),
                                    dims.size()));
  }
}

}  // namespace zsky
