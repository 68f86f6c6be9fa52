#include "geom/delaunay.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "geom/predicates.h"
#include "geom/rng.h"

namespace thetanet::geom {
namespace {

using EdgeList = std::vector<std::pair<std::uint32_t, std::uint32_t>>;

std::vector<Vec2> random_points(std::size_t n, Rng& rng) {
  std::vector<Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i)
    pts.push_back({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  return pts;
}

TEST(Delaunay, TrivialInputs) {
  EXPECT_TRUE(delaunay_edges(std::vector<Vec2>{}).empty());
  EXPECT_TRUE(delaunay_edges(std::vector<Vec2>{{0, 0}}).empty());
  EXPECT_EQ(delaunay_edges(std::vector<Vec2>{{0, 0}, {1, 1}}),
            (EdgeList{{0, 1}}));
}

TEST(Delaunay, TriangleIsItsOwnTriangulation) {
  const std::vector<Vec2> pts{{0, 0}, {1, 0}, {0.5, 1.0}};
  EXPECT_EQ(delaunay_edges(pts), (EdgeList{{0, 1}, {0, 2}, {1, 2}}));
}

TEST(Delaunay, SquareUsesShorterDiagonalRegion) {
  // A near-square quadrilateral: the triangulation has 5 edges (4 sides +
  // one diagonal).
  const std::vector<Vec2> pts{{0, 0}, {1, 0}, {1, 1.01}, {0, 1}};
  const EdgeList edges = delaunay_edges(pts);
  EXPECT_EQ(edges.size(), 5U);
}

TEST(Delaunay, EdgeCountIsLinear) {
  Rng rng(301);
  const std::vector<Vec2> pts = random_points(300, rng);
  const EdgeList edges = delaunay_edges(pts);
  // Euler: a triangulation of n points has at most 3n - 6 edges.
  EXPECT_LE(edges.size(), 3 * pts.size() - 6);
  EXPECT_GE(edges.size(), pts.size() - 1);  // at least a connected graph
}

TEST(Delaunay, ContainsTheNearestNeighborGraph) {
  // Classic property: each point's nearest neighbour is a Delaunay neighbour.
  Rng rng(302);
  const std::vector<Vec2> pts = random_points(120, rng);
  const EdgeList edges = delaunay_edges(pts);
  std::set<std::pair<std::uint32_t, std::uint32_t>> set(edges.begin(),
                                                        edges.end());
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    std::uint32_t nn = 0;
    double best = -1.0;
    for (std::uint32_t j = 0; j < pts.size(); ++j) {
      if (j == i) continue;
      const double d = dist_sq(pts[i], pts[j]);
      if (best < 0.0 || d < best) {
        best = d;
        nn = j;
      }
    }
    const auto key = std::minmax(i, nn);
    EXPECT_TRUE(set.count({key.first, key.second}))
        << "nearest-neighbour edge (" << i << "," << nn << ") missing";
  }
}

TEST(Delaunay, LocalDelaunayProperty) {
  // For every Delaunay edge there exists an empty circumcircle through its
  // endpoints. We verify the weaker (but sufficient at random instances)
  // check: the triangulation contains no edge whose diametral circle
  // contains a point that is also a shared Delaunay neighbour forming a
  // blocked pair. Instead of reconstructing triangles we spot-check the
  // standard witness: for each edge, *some* circle through (u, v) — we use
  // the smallest, the diametral circle — either is empty or the edge is
  // still locally Delaunay through a bigger circle; in that case flipping
  // would be required only if both shared neighbours lie inside each other's
  // circumcircles. A cheap, exact variant: the Gabriel subset (empty
  // diametral circle) must always be present in the Delaunay edge set.
  Rng rng(303);
  const std::vector<Vec2> pts = random_points(100, rng);
  const EdgeList edges = delaunay_edges(pts);
  std::set<std::pair<std::uint32_t, std::uint32_t>> set(edges.begin(),
                                                        edges.end());
  for (std::uint32_t u = 0; u < pts.size(); ++u) {
    for (std::uint32_t v = u + 1; v < pts.size(); ++v) {
      bool gabriel = true;
      for (std::uint32_t w = 0; w < pts.size() && gabriel; ++w) {
        if (w == u || w == v) continue;
        if (in_gabriel_disk(pts[u], pts[v], pts[w])) gabriel = false;
      }
      if (gabriel) {
        EXPECT_TRUE(set.count({u, v}))
            << "Gabriel edge (" << u << "," << v << ") missing from Delaunay";
      }
    }
  }
}

TEST(Delaunay, DeterministicOutput) {
  Rng rng(304);
  const std::vector<Vec2> pts = random_points(80, rng);
  EXPECT_EQ(delaunay_edges(pts), delaunay_edges(pts));
}

TEST(Delaunay, GridOfPoints) {
  // Jittered grid (exact grids have cocircular quadruples; the jitter keeps
  // the instance in general position, which is the library's assumption).
  Rng rng(305);
  std::vector<Vec2> pts;
  for (int y = 0; y < 6; ++y)
    for (int x = 0; x < 6; ++x)
      pts.push_back({x + rng.uniform(-0.01, 0.01), y + rng.uniform(-0.01, 0.01)});
  const EdgeList edges = delaunay_edges(pts);
  EXPECT_LE(edges.size(), 3 * pts.size() - 6);
  // All unit grid neighbours must be connected.
  std::set<std::pair<std::uint32_t, std::uint32_t>> set(edges.begin(),
                                                        edges.end());
  for (std::uint32_t i = 0; i < pts.size(); ++i) {
    if (i % 6 != 5) {
      EXPECT_TRUE(set.count({i, i + 1}));
    }
    if (i + 6 < pts.size()) {
      EXPECT_TRUE(set.count({i, i + 6}));
    }
  }
}

}  // namespace
}  // namespace thetanet::geom
