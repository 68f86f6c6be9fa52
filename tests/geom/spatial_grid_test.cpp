#include "geom/spatial_grid.h"

#include <gtest/gtest.h>

#include <algorithm>

#include "geom/rng.h"
#include "obs/metrics.h"

namespace thetanet::geom {
namespace {

std::vector<Vec2> random_points(std::size_t n, Rng& rng, double side = 1.0) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, side), rng.uniform(0.0, side)});
  return pts;
}

std::vector<std::uint32_t> brute_within(const std::vector<Vec2>& pts,
                                        Vec2 center, double radius,
                                        std::uint32_t exclude) {
  std::vector<std::uint32_t> out;
  for (std::uint32_t i = 0; i < pts.size(); ++i)
    if (i != exclude && dist_sq(pts[i], center) <= radius * radius)
      out.push_back(i);
  return out;
}

TEST(SpatialGrid, EmptyPointSet) {
  const std::vector<Vec2> pts;
  const SpatialGrid grid(pts, 1.0);
  EXPECT_EQ(grid.size(), 0U);
  EXPECT_TRUE(grid.within({0, 0}, 10.0).empty());
}

TEST(SpatialGrid, SinglePoint) {
  const std::vector<Vec2> pts{{0.5, 0.5}};
  const SpatialGrid grid(pts, 0.1);
  EXPECT_EQ(grid.within({0.5, 0.5}, 0.01), std::vector<std::uint32_t>{0});
  EXPECT_TRUE(grid.within({0.5, 0.5}, 0.01, /*exclude=*/0).empty());
}

TEST(SpatialGrid, WithinMatchesBruteForce) {
  Rng rng(101);
  const std::vector<Vec2> pts = random_points(300, rng);
  const SpatialGrid grid(pts, 0.15);
  for (int q = 0; q < 200; ++q) {
    const Vec2 c{rng.uniform(-0.2, 1.2), rng.uniform(-0.2, 1.2)};
    const double r = rng.uniform(0.01, 0.5);
    const auto expect = brute_within(pts, c, r, SpatialGrid::kNone);
    const auto got = grid.within(c, r);
    ASSERT_EQ(got, expect) << "query " << q;
  }
}

TEST(SpatialGrid, WithinRespectsExclude) {
  Rng rng(102);
  const std::vector<Vec2> pts = random_points(100, rng);
  const SpatialGrid grid(pts, 0.2);
  const auto got = grid.within(pts[17], 0.3, 17);
  EXPECT_EQ(std::count(got.begin(), got.end(), 17U), 0);
  EXPECT_EQ(got, brute_within(pts, pts[17], 0.3, 17));
}

TEST(SpatialGrid, ForEachWithinVisitsSameSetAsWithin) {
  Rng rng(105);
  const std::vector<Vec2> pts = random_points(120, rng);
  const SpatialGrid grid(pts, 0.3);
  std::vector<std::uint32_t> visited;
  grid.for_each_within({0.5, 0.5}, 0.4,
                       [&](std::uint32_t id) { visited.push_back(id); });
  std::sort(visited.begin(), visited.end());
  EXPECT_EQ(visited, grid.within({0.5, 0.5}, 0.4));
}

TEST(SpatialGrid, CoincidentPointsAllReturned) {
  const std::vector<Vec2> pts{{0.5, 0.5}, {0.5, 0.5}, {0.5, 0.5}};
  const SpatialGrid grid(pts, 0.1);
  EXPECT_EQ(grid.within({0.5, 0.5}, 0.001).size(), 3U);
  EXPECT_EQ(grid.within({0.5, 0.5}, 0.001, 0),
            (std::vector<std::uint32_t>{1, 2}));
}

TEST(SpatialGrid, QueryRadiusLargerThanDomain) {
  Rng rng(106);
  const std::vector<Vec2> pts = random_points(64, rng);
  const SpatialGrid grid(pts, 0.05);
  EXPECT_EQ(grid.within({0.5, 0.5}, 10.0).size(), 64U);
}

TEST(SpatialGrid, ForEachWithinTwoMatchesUnionOfDisks) {
  Rng rng(111);
  const std::vector<Vec2> pts = random_points(200, rng);
  const SpatialGrid grid(pts, 0.08);
  for (int q = 0; q < 100; ++q) {
    const Vec2 c1{rng.uniform(-0.1, 1.1), rng.uniform(-0.1, 1.1)};
    // Mix overlapping (nearby centers) and disjoint (far centers) disks.
    const double dx = rng.uniform(-0.6, 0.6), dy = rng.uniform(-0.6, 0.6);
    const Vec2 c2{c1.x + dx, c1.y + dy};
    const double r = rng.uniform(0.02, 0.4);
    std::vector<std::uint32_t> got;
    grid.for_each_within_two(
        c1, c2, r, [&](std::uint32_t id, double d1, double d2) {
          EXPECT_TRUE(d1 <= r * r || d2 <= r * r);
          got.push_back(id);
        });
    std::sort(got.begin(), got.end());
    // Exactly once per id: the single scan never repeats a point.
    ASSERT_TRUE(std::adjacent_find(got.begin(), got.end()) == got.end());
    std::vector<std::uint32_t> expect = brute_within(pts, c1, r, SpatialGrid::kNone);
    for (std::uint32_t id : brute_within(pts, c2, r, SpatialGrid::kNone))
      expect.push_back(id);
    std::sort(expect.begin(), expect.end());
    expect.erase(std::unique(expect.begin(), expect.end()), expect.end());
    ASSERT_EQ(got, expect) << "query " << q;
  }
}

TEST(SpatialGrid, ForEachWithinTwoCoincidentCentersEqualsSingleDisk) {
  Rng rng(112);
  const std::vector<Vec2> pts = random_points(80, rng);
  const SpatialGrid grid(pts, 0.15);
  std::vector<std::uint32_t> got;
  grid.for_each_within_two(
      {0.4, 0.6}, {0.4, 0.6}, 0.25,
      [&](std::uint32_t id, double, double) { got.push_back(id); });
  std::sort(got.begin(), got.end());
  EXPECT_EQ(got, grid.within({0.4, 0.6}, 0.25));
}

TEST(SpatialGrid, ForEachWithinUntilStopsEarlyOnTemplatePath) {
  Rng rng(108);
  const std::vector<Vec2> pts = random_points(200, rng);
  const SpatialGrid grid(pts, 0.1);
  int visits = 0;
  const bool completed =
      grid.for_each_within_until({0.5, 0.5}, 0.5, [&](std::uint32_t) {
        ++visits;
        return visits < 3;
      });
  EXPECT_FALSE(completed);
  EXPECT_EQ(visits, 3);
  // A visitor that never stops must see the whole disk.
  std::vector<std::uint32_t> all;
  EXPECT_TRUE(grid.for_each_within_until({0.5, 0.5}, 0.5, [&](std::uint32_t id) {
    all.push_back(id);
    return true;
  }));
  std::sort(all.begin(), all.end());
  EXPECT_EQ(all, grid.within({0.5, 0.5}, 0.5));
}

TEST(SpatialGrid, CellCountCappedOnDegenerateInput) {
  // Near-coincident cluster plus one far outlier: a cell sized for the
  // cluster spacing would need ~1e16 cells across the bounding box. The
  // constructor must grow the cell instead of allocating that table, and
  // queries must stay exact. A 1e-16 cell puts width / cell (1e20) past the
  // int64 range as well.
  std::vector<Vec2> pts;
  Rng rng(109);
  for (int i = 0; i < 100; ++i)
    pts.push_back({rng.uniform(0.0, 1e-4), rng.uniform(0.0, 1e-4)});
  pts.push_back({1e4, 1e4});
  for (const double cell : {1e-6, 1e-16}) {
    const SpatialGrid grid(pts, cell);
    EXPECT_GT(grid.cell_size(), cell);  // cap engaged
    EXPECT_EQ(grid.within({0.0, 0.0}, 1.0).size(), 100U);
    EXPECT_EQ(grid.within({1e4, 1e4}, 1.0), std::vector<std::uint32_t>{100});
    for (int q = 0; q < 40; ++q) {
      const Vec2 c{rng.uniform(0.0, 1e-4), rng.uniform(0.0, 1e-4)};
      const double r = rng.uniform(1e-6, 2e-4);
      ASSERT_EQ(grid.within(c, r), brute_within(pts, c, r, SpatialGrid::kNone));
    }
  }
}

TEST(SpatialGrid, ScanTelemetryCountsQueriesAndPoints) {
  Rng rng(110);
  const std::vector<Vec2> pts = random_points(80, rng);
  const SpatialGrid grid(pts, 0.2);
  auto& reg = obs::MetricsRegistry::global();

  // Recording off: counters must not move.
  obs::set_recording(false);
  reg.reset();
  grid.within({0.5, 0.5}, 0.3);
  EXPECT_EQ(reg.counter_value("grid.queries"), 0U);

  obs::set_recording(true);
  reg.reset();
  const auto hits = grid.within({0.5, 0.5}, 0.3);
  grid.for_each_within({0.2, 0.2}, 0.1, [](std::uint32_t) {});
  EXPECT_EQ(reg.counter_value("grid.queries"), 2U);
  EXPECT_GE(reg.counter_value("grid.points_examined"),
            reg.counter_value("grid.reported"));  // examined >= accepted
  EXPECT_GE(reg.counter_value("grid.reported"), hits.size());
  EXPECT_GE(reg.counter_value("grid.cells_scanned"), 1U);
}

}  // namespace
}  // namespace thetanet::geom
