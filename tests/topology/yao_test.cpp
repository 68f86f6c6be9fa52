#include "topology/yao.h"

#include <gtest/gtest.h>

#include <numbers>

#include "geom/angles.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::topo {
namespace {

constexpr double kPi = std::numbers::pi;

Deployment random_deployment(std::size_t n, double range, geom::Rng& rng) {
  Deployment d;
  d.positions = uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

TEST(SectorTable, MatchesBruteForce) {
  geom::Rng rng(31);
  const double theta = kPi / 6.0;
  const Deployment d = random_deployment(120, 0.4, rng);
  const SectorTable table = compute_sector_table(d, theta);
  const int k = table.sectors();
  for (graph::NodeId u = 0; u < d.size(); ++u) {
    for (int s = 0; s < k; ++s) {
      // Brute force: nearest in-range node of u in sector s.
      graph::NodeId best = graph::kInvalidNode;
      for (graph::NodeId v = 0; v < d.size(); ++v) {
        if (v == u || !d.in_range(u, v)) continue;
        if (geom::sector_index(d.positions[u], d.positions[v], theta) != s)
          continue;
        if (nearer(d, u, v, best)) best = v;
      }
      ASSERT_EQ(table.nearest(u, s), best) << "node " << u << " sector " << s;
    }
  }
}

TEST(SectorTable, SelectsAgreesWithNearest) {
  geom::Rng rng(32);
  const double theta = kPi / 9.0;
  const Deployment d = random_deployment(80, 0.5, rng);
  const SectorTable table = compute_sector_table(d, theta);
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (int s = 0; s < table.sectors(); ++s) {
      const graph::NodeId v = table.nearest(u, s);
      if (v != graph::kInvalidNode) {
        EXPECT_TRUE(table.selects(u, v, d, theta));
      }
    }
}

TEST(SectorTable, ThetaAbovePiOver3Rejected) {
  geom::Rng rng(33);
  const Deployment d = random_deployment(10, 0.5, rng);
  EXPECT_DEATH(compute_sector_table(d, kPi / 2.0), "theta");
}

TEST(Nearer, LexicographicTieBreak) {
  Deployment d;
  d.positions = {{0, 0}, {1, 0}, {-1, 0}};  // nodes 1 and 2 equidistant from 0
  d.max_range = 2.0;
  EXPECT_TRUE(nearer(d, 0, 1, 2));
  EXPECT_FALSE(nearer(d, 0, 2, 1));
  EXPECT_TRUE(nearer(d, 0, 1, graph::kInvalidNode));
  EXPECT_FALSE(nearer(d, 0, graph::kInvalidNode, 1));
}

TEST(YaoGraph, OutDegreeBoundedBySectors) {
  geom::Rng rng(34);
  const double theta = kPi / 6.0;
  const Deployment d = random_deployment(200, 0.3, rng);
  const SectorTable table = compute_sector_table(d, theta);
  // Directed out-degree (selections) is at most the sector count.
  for (graph::NodeId u = 0; u < d.size(); ++u) {
    int out = 0;
    for (int s = 0; s < table.sectors(); ++s)
      out += table.nearest(u, s) != graph::kInvalidNode ? 1 : 0;
    ASSERT_LE(out, table.sectors());
  }
}

TEST(YaoGraph, IsConnectedWhenGStarIs) {
  geom::Rng rng(35);
  for (int trial = 0; trial < 5; ++trial) {
    const Deployment d = random_deployment(150, 0.25, rng);
    const graph::Graph gstar = build_transmission_graph(d);
    if (!graph::is_connected(gstar)) continue;
    const graph::Graph n1 = yao_graph(d, kPi / 6.0);
    EXPECT_TRUE(graph::is_connected(n1)) << "trial " << trial;
  }
}

TEST(YaoGraph, IsSubgraphOfGStar) {
  geom::Rng rng(36);
  const Deployment d = random_deployment(100, 0.35, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  const graph::Graph n1 = yao_graph(d, kPi / 6.0);
  for (const graph::Edge& e : n1.edges()) {
    EXPECT_TRUE(gstar.has_edge(e.u, e.v));
    EXPECT_LE(e.length, d.max_range);
  }
}

TEST(YaoGraph, SpannerStretchSmallOnRandomInstances) {
  // N_1 is a spanner: its distance-stretch against G* stays below the
  // classical 1/(1 - 2 sin(theta/2)) bound.
  geom::Rng rng(37);
  const double theta = kPi / 6.0;
  const double bound = 1.0 / (1.0 - 2.0 * std::sin(theta / 2.0));
  const Deployment d = random_deployment(150, 0.35, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  const graph::Graph n1 = yao_graph(d, theta);
  const graph::StretchStats s =
      graph::edge_stretch(n1, gstar, graph::Weight::kLength);
  EXPECT_FALSE(s.disconnected);
  EXPECT_LE(s.max, bound);
}

TEST(YaoGraph, HubRingInDegreeIsLinear) {
  // The adversarial construction: every rim node selects the hub, so the
  // hub's Yao degree is n - 1 (the weakness phase 2 of ThetaALG fixes).
  geom::Rng rng(38);
  const std::size_t n = 64;
  Deployment d;
  d.positions = hub_ring(n, 1.0, rng);
  d.max_range = 1.2;  // rim-to-hub in range; rim-to-antipode out of range
  d.kappa = 2.0;
  const graph::Graph n1 = yao_graph(d, kPi / 6.0);
  EXPECT_EQ(n1.degree(0), n - 1);
}

TEST(YaoGraph, PrecomputedTableGivesSameGraph) {
  geom::Rng rng(39);
  const Deployment d = random_deployment(90, 0.3, rng);
  const double theta = kPi / 9.0;
  const SectorTable table = compute_sector_table(d, theta);
  const graph::Graph a = yao_graph(d, theta);
  const graph::Graph b = yao_graph(d, table);
  ASSERT_EQ(a.num_edges(), b.num_edges());
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    EXPECT_EQ(a.edge(e).u, b.edge(e).u);
    EXPECT_EQ(a.edge(e).v, b.edge(e).v);
  }
}

}  // namespace
}  // namespace thetanet::topo
