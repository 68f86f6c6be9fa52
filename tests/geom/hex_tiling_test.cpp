#include "geom/hex_tiling.h"

#include <gtest/gtest.h>

#include <set>

#include "geom/rng.h"

namespace thetanet::geom {
namespace {

TEST(HexTiling, SideAndDerivedQuantities) {
  const HexTiling t(2.0);
  EXPECT_DOUBLE_EQ(t.side(), 2.0);
  EXPECT_DOUBLE_EQ(t.diameter(), 4.0);
  EXPECT_NEAR(t.inradius(), 2.0 * 0.8660254037844386, 1e-12);
  EXPECT_DOUBLE_EQ(t.max_intra_cell_distance(), 4.0);
}

TEST(HexTiling, PaperCellSizeForGuardZone) {
  // Section 3.4: hexagons of side 3 + 2*Delta, diameter 2*(3 + 2*Delta).
  const double delta = 0.75;
  const HexTiling t(3.0 + 2.0 * delta);
  EXPECT_DOUBLE_EQ(t.side(), 4.5);
  EXPECT_DOUBLE_EQ(t.diameter(), 9.0);
}

TEST(HexTiling, CenterRoundTrips) {
  const HexTiling t(1.3);
  for (std::int32_t q = -5; q <= 5; ++q)
    for (std::int32_t r = -5; r <= 5; ++r) {
      const HexCell c{q, r};
      EXPECT_EQ(t.cell_of(t.center(c)), c) << q << "," << r;
    }
}

TEST(HexTiling, EveryPointWithinDiameterOfItsCenter) {
  const HexTiling t(2.5);
  Rng rng(41);
  for (int i = 0; i < 20000; ++i) {
    const Vec2 p{rng.uniform(-30.0, 30.0), rng.uniform(-30.0, 30.0)};
    const HexCell c = t.cell_of(p);
    // A point lies within the circumradius (= side) of its cell centre.
    ASSERT_LE(dist(p, t.center(c)), t.side() + 1e-9);
  }
}

TEST(HexTiling, NearestCenterIsOwnCell) {
  // cell_of must agree with "closest centre" (the Voronoi property of a
  // hexagonal lattice).
  const HexTiling t(1.0);
  Rng rng(42);
  for (int i = 0; i < 5000; ++i) {
    const Vec2 p{rng.uniform(-10.0, 10.0), rng.uniform(-10.0, 10.0)};
    const HexCell own = t.cell_of(p);
    const double d_own = dist(p, t.center(own));
    HexTiling::for_each_neighbor(own, [&](HexCell nb) {
      ASSERT_LE(d_own, dist(p, t.center(nb)) + 1e-9);
    });
  }
}

TEST(HexTiling, NeighborCentersAtLatticeDistance) {
  const HexTiling t(2.0);
  const HexCell c{3, -2};
  // Adjacent hexagon centres are 2 * inradius apart.
  const double expect = 2.0 * t.inradius();
  int count = 0;
  HexTiling::for_each_neighbor(c, [&](HexCell nb) {
    ++count;
    EXPECT_NEAR(dist(t.center(c), t.center(nb)), expect, 1e-9);
  });
  EXPECT_EQ(count, 6);
}

TEST(HexTiling, NeighborsAreDistinctAndExcludeSelf) {
  const HexCell c{0, 0};
  std::set<std::pair<std::int32_t, std::int32_t>> seen;
  HexTiling::for_each_neighbor(c, [&](HexCell nb) {
    EXPECT_FALSE(nb == c);
    seen.insert({nb.q, nb.r});
  });
  EXPECT_EQ(seen.size(), 6U);
}

TEST(HexTiling, HashIsConsistent) {
  const HexCellHash h;
  EXPECT_EQ(h({1, 2}), h({1, 2}));
  EXPECT_NE(h({1, 2}), h({2, 1}));  // extremely likely for splitmix64
}

TEST(HexTiling, PointsInSameCellAreWithinDiameter) {
  const HexTiling t(1.7);
  Rng rng(43);
  std::vector<std::pair<HexCell, Vec2>> samples;
  for (int i = 0; i < 3000; ++i) {
    const Vec2 p{rng.uniform(-15.0, 15.0), rng.uniform(-15.0, 15.0)};
    samples.push_back({t.cell_of(p), p});
  }
  for (std::size_t i = 0; i < samples.size(); i += 37) {
    for (std::size_t j = i + 1; j < samples.size(); ++j) {
      if (samples[i].first == samples[j].first) {
        ASSERT_LE(dist(samples[i].second, samples[j].second),
                  t.max_intra_cell_distance() + 1e-9);
      }
    }
  }
}

}  // namespace
}  // namespace thetanet::geom
