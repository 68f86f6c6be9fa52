// Property suite: the uniform grid must answer every range query exactly as
// a linear scan over the points does, whatever the point count and however
// the cell size compares with the query radius (cells far smaller, similar
// and larger than it).

#include <gtest/gtest.h>

#include <tuple>

#include "geom/rng.h"
#include "geom/spatial_grid.h"

namespace thetanet::geom {
namespace {

std::vector<SpatialGrid::NodeId> scan_within(const std::vector<Vec2>& pts,
                                             Vec2 center, double radius) {
  std::vector<SpatialGrid::NodeId> out;
  for (SpatialGrid::NodeId i = 0; i < pts.size(); ++i)
    if (dist_sq(pts[i], center) <= radius * radius) out.push_back(i);
  return out;
}

class IndexEquivalence
    : public ::testing::TestWithParam<std::tuple<std::size_t, double>> {};

TEST_P(IndexEquivalence, WithinQueriesAgree) {
  const auto [n, cell] = GetParam();
  Rng rng(1000 + n);
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  const SpatialGrid grid(pts, cell);
  for (int q = 0; q < 100; ++q) {
    const Vec2 c{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)};
    const double r = rng.uniform(0.02, 0.7);
    ASSERT_EQ(grid.within(c, r), scan_within(pts, c, r)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    SizesAndCells, IndexEquivalence,
    ::testing::Combine(::testing::Values(1UL, 2UL, 17UL, 100UL, 500UL),
                       ::testing::Values(0.05, 0.2, 1.5)));

}  // namespace
}  // namespace thetanet::geom
