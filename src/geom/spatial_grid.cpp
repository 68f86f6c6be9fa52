#include "geom/spatial_grid.h"

#include <algorithm>
#include <cmath>
#include <tuple>

#include "common/assert.h"
#include "obs/span.h"

namespace thetanet::geom {

SpatialGrid::SpatialGrid(std::span<const Vec2> points, double cell_size)
    : points_(points), box_(BBox::of(points)), cell_(cell_size) {
  TN_ASSERT_MSG(cell_size > 0.0, "grid cell size must be positive");
  TN_OBS_SPAN("grid.build");
  TN_OBS_COUNT("grid.builds", 1);
  TN_OBS_COUNT("grid.points_indexed", points_.size());
  if (points_.empty()) {
    starts_.assign(2, 0);
    return;
  }
  // Cap the table at O(points) cells: a caller-supplied cell far smaller
  // than the bounding box (edge-length-driven sizing on a degenerate
  // layout) would otherwise allocate width/cell * height/cell entries.
  const std::int64_t max_cells =
      std::max<std::int64_t>(1024, 8 * static_cast<std::int64_t>(points_.size()));
  // Cells along one side, saturated at max_cells + 1: past the cap a count
  // only means "grow the cell", and saturating keeps the conversion to
  // int64 in range however small the cell is.
  const auto cells_along = [&](double extent, double cell) {
    const double k = std::floor(extent / cell);
    if (k >= static_cast<double>(max_cells)) return max_cells + 1;
    return std::max<std::int64_t>(1, static_cast<std::int64_t>(k) + 1);
  };
  const auto dims = [&](double cell) {
    return std::pair<std::int64_t, std::int64_t>{
        cells_along(box_.width(), cell), cells_along(box_.height(), cell)};
  };
  auto [nx, ny] = dims(cell_);
  while (nx > max_cells / ny) {  // nx * ny > max_cells, without overflow
    cell_ *= 2.0;
    std::tie(nx, ny) = dims(cell_);
  }
  nx_ = static_cast<std::int32_t>(nx);
  ny_ = static_cast<std::int32_t>(ny);

  const std::size_t ncells =
      static_cast<std::size_t>(nx_) * static_cast<std::size_t>(ny_);
  std::vector<std::uint32_t> counts(ncells, 0);
  std::vector<std::size_t> home(points_.size());
  for (std::size_t i = 0; i < points_.size(); ++i) {
    const CellCoord c = cell_of(points_[i]);
    home[i] = cell_index(c.cx, c.cy);
    ++counts[home[i]];
  }
  starts_.assign(ncells + 1, 0);
  for (std::size_t c = 0; c < ncells; ++c) starts_[c + 1] = starts_[c] + counts[c];
  ids_.resize(points_.size());
  std::vector<std::uint32_t> cursor(starts_.begin(), starts_.end() - 1);
  for (std::size_t i = 0; i < points_.size(); ++i)
    ids_[cursor[home[i]]++] = static_cast<NodeId>(i);
  // Keep ids within each cell sorted so query output is deterministic.
  for (std::size_t c = 0; c < ncells; ++c)
    std::sort(ids_.begin() + starts_[c], ids_.begin() + starts_[c + 1]);
  // Cell-ordered coordinate copies: scans stream these instead of gathering
  // points_[id] (see the member comment in the header).
  xs_.resize(points_.size());
  ys_.resize(points_.size());
  for (std::size_t k = 0; k < ids_.size(); ++k) {
    xs_[k] = points_[ids_[k]].x;
    ys_[k] = points_[ids_[k]].y;
  }
}

SpatialGrid::CellCoord SpatialGrid::cell_of(Vec2 p) const {
  auto clamp = [](std::int32_t v, std::int32_t hi) {
    return std::clamp<std::int32_t>(v, 0, hi - 1);
  };
  const auto cx = static_cast<std::int32_t>(std::floor((p.x - box_.lo.x) / cell_));
  const auto cy = static_cast<std::int32_t>(std::floor((p.y - box_.lo.y) / cell_));
  return {clamp(cx, nx_), clamp(cy, ny_)};
}

std::size_t SpatialGrid::cell_index(std::int32_t cx, std::int32_t cy) const {
  return static_cast<std::size_t>(cy) * static_cast<std::size_t>(nx_) +
         static_cast<std::size_t>(cx);
}

std::vector<SpatialGrid::NodeId> SpatialGrid::within(Vec2 center, double radius,
                                                     NodeId exclude) const {
  std::vector<NodeId> out;
  for_each_within(center, radius, [&](NodeId id) {
    if (id != exclude) out.push_back(id);
  });
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace thetanet::geom
