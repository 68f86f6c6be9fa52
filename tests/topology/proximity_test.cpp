#include "topology/proximity.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "geom/angles.h"
#include "geom/predicates.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "topology/distributions.h"
#include "topology/metrics.h"
#include "topology/transmission_graph.h"

namespace thetanet::topo {
namespace {

Deployment random_deployment(std::size_t n, double range, geom::Rng& rng) {
  Deployment d;
  d.positions = uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

std::set<std::pair<graph::NodeId, graph::NodeId>> edge_set(
    const graph::Graph& g) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> s;
  for (const graph::Edge& e : g.edges()) s.insert(std::minmax(e.u, e.v));
  return s;
}

TEST(Proximity, GabrielMatchesBruteForce) {
  geom::Rng rng(41);
  const Deployment d = random_deployment(80, 0.5, rng);
  const graph::Graph gg = gabriel_graph(d);
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (graph::NodeId v = u + 1; v < d.size(); ++v) {
      if (d.distance(u, v) > d.max_range) {
        ASSERT_FALSE(gg.has_edge(u, v));
        continue;
      }
      bool empty = true;
      for (graph::NodeId w = 0; w < d.size() && empty; ++w) {
        if (w == u || w == v) continue;
        if (geom::in_gabriel_disk(d.positions[u], d.positions[v],
                                  d.positions[w]))
          empty = false;
      }
      ASSERT_EQ(gg.has_edge(u, v), empty) << u << "," << v;
    }
}

TEST(Proximity, RngIsSubgraphOfGabriel) {
  geom::Rng rng(42);
  const Deployment d = random_deployment(150, 0.4, rng);
  const auto gabriel = edge_set(gabriel_graph(d));
  const auto rngg = edge_set(relative_neighborhood_graph(d));
  for (const auto& e : rngg) EXPECT_TRUE(gabriel.count(e));
  EXPECT_LT(rngg.size(), gabriel.size());
}

TEST(Proximity, MstIsSubgraphOfRng) {
  geom::Rng rng(43);
  const Deployment d = random_deployment(120, 0.5, rng);
  const auto rngg = edge_set(relative_neighborhood_graph(d));
  const auto mst = edge_set(euclidean_mst(d));
  for (const auto& e : mst) EXPECT_TRUE(rngg.count(e));
}

TEST(Proximity, GabrielIsSubgraphOfRestrictedDelaunay) {
  geom::Rng rng(44);
  const Deployment d = random_deployment(100, 0.5, rng);
  const auto rdg = edge_set(restricted_delaunay_graph(d));
  const auto gabriel = edge_set(gabriel_graph(d));
  for (const auto& e : gabriel) EXPECT_TRUE(rdg.count(e));
}

TEST(Proximity, GabrielHasOptimalEnergyPaths) {
  // For kappa >= 2, the Gabriel graph contains a minimum-energy path between
  // every pair — its energy-stretch against G* is exactly 1.
  geom::Rng rng(45);
  const Deployment d = random_deployment(100, 0.45, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const graph::Graph gg = gabriel_graph(d);
  const graph::StretchStats s =
      graph::pairwise_stretch(gg, gstar, graph::Weight::kCost);
  EXPECT_FALSE(s.disconnected);
  EXPECT_NEAR(s.max, 1.0, 1e-9);
}

TEST(Proximity, RestrictedDelaunayOmitsLongEdges) {
  geom::Rng rng(46);
  const Deployment d = random_deployment(150, 0.2, rng);
  const graph::Graph rdg = restricted_delaunay_graph(d);
  for (const graph::Edge& e : rdg.edges()) EXPECT_LE(e.length, d.max_range);
}

TEST(Proximity, KnnGraphDegreeAndSymmetry) {
  geom::Rng rng(47);
  const Deployment d = random_deployment(150, 0.5, rng);
  const std::size_t k = 4;
  const graph::Graph g = knn_graph(d, k);
  // Symmetric closure: degree can exceed k (nodes chosen by many others)
  // but each node contributes at most k outgoing choices.
  EXPECT_LE(g.num_edges(), k * d.size());
  for (const graph::Edge& e : g.edges()) EXPECT_LE(e.length, d.max_range);
}

/// O(n^2) reference for knn_graph: each node's k nearest others in
/// (dist_sq, id) order, cut at the first one out of range; symmetric union.
std::set<std::pair<graph::NodeId, graph::NodeId>> brute_knn_edges(
    const Deployment& d, std::size_t k) {
  std::set<std::pair<graph::NodeId, graph::NodeId>> out;
  for (graph::NodeId u = 0; u < d.size(); ++u) {
    std::vector<std::pair<double, graph::NodeId>> order;
    for (graph::NodeId v = 0; v < d.size(); ++v)
      if (v != u)
        order.emplace_back(geom::dist_sq(d.positions[u], d.positions[v]), v);
    std::sort(order.begin(), order.end());
    for (std::size_t i = 0; i < std::min(k, order.size()); ++i) {
      if (!d.in_range(u, order[i].second)) break;
      out.insert(std::minmax(u, order[i].second));
    }
  }
  return out;
}

TEST(Proximity, KnnGraphMatchesBruteForce) {
  std::vector<Deployment> ds;
  geom::Rng rng(53);
  ds.push_back(random_deployment(120, 0.2, rng));
  // Coincident points: stacks of equal positions, so dist_sq ties at 0
  // and the id decides among them.
  Deployment stacked = random_deployment(20, 0.3, rng);
  stacked.positions.insert(stacked.positions.end(), 5, {0.2, 0.2});
  stacked.positions.insert(stacked.positions.end(), 3, {0.25, 0.2});
  ds.push_back(stacked);
  // Equal-distance ties on an exact lattice (spacing 1/4 is exact in
  // binary), with neighbours at exactly max_range = 1/2 and, in the second
  // copy, exactly at max_range = 1/4.
  Deployment lattice;
  for (int i = 0; i < 6; ++i)
    for (int j = 0; j < 6; ++j)
      lattice.positions.push_back({0.25 * i, 0.25 * j});
  lattice.max_range = 0.5;
  lattice.kappa = 2.0;
  ds.push_back(lattice);
  lattice.max_range = 0.25;
  ds.push_back(lattice);

  for (const Deployment& d : ds) {
    const std::size_t max_degree =
        build_transmission_graph(d).max_degree();
    // k below, at and above the degree of the busiest node, and above n.
    for (const std::size_t k :
         {std::size_t{0}, std::size_t{1}, std::size_t{2}, std::size_t{3},
          max_degree - 1, max_degree, max_degree + 1, d.size() + 5}) {
      SCOPED_TRACE("n=" + std::to_string(d.size()) +
                   " k=" + std::to_string(k));
      EXPECT_EQ(edge_set(knn_graph(d, k)), brute_knn_edges(d, k));
    }
  }
}

TEST(Proximity, KnnGraphCanBeDisconnected) {
  // Two distant tight clusters: 2-NN edges never cross the gap even though
  // G* (with a big range) would connect them — the intro's observation that
  // k-nearest neighbours do not guarantee connectivity.
  Deployment d;
  d.positions = {{0, 0},    {0.1, 0}, {0, 0.1},
                 {5, 5},    {5.1, 5}, {5, 5.1}};
  d.max_range = 10.0;
  d.kappa = 2.0;
  const graph::Graph g = knn_graph(d, 2);
  EXPECT_FALSE(graph::is_connected(g));
  EXPECT_TRUE(graph::is_connected(build_transmission_graph(d)));
}

TEST(Proximity, GabrielDegreeCanBeLinear) {
  // A star: center with rim nodes placed so every diametral disk is empty.
  // Gabriel keeps all spokes -> Omega(n) degree (the paper's objection).
  Deployment d;
  d.positions.push_back({0, 0});
  const std::size_t rim = 24;
  for (std::size_t i = 0; i < rim; ++i) {
    const double a = geom::kTwoPi * static_cast<double>(i) /
                     static_cast<double>(rim);
    d.positions.push_back({std::cos(a), std::sin(a)});
  }
  d.max_range = 1.1;
  d.kappa = 2.0;
  const graph::Graph g = gabriel_graph(d);
  EXPECT_EQ(g.degree(0), rim);
}

TEST(Proximity, MstIsTreeWhenConnected) {
  geom::Rng rng(48);
  const Deployment d = random_deployment(100, 0.4, rng);
  const graph::Graph gstar = build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const graph::Graph mst = euclidean_mst(d);
  EXPECT_EQ(mst.num_edges(), d.size() - 1);
  EXPECT_TRUE(graph::is_connected(mst));
}

TEST(Metrics, DegreeStats) {
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(0, 2, 1.0, 1.0);
  b.add_edge(0, 3, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  const DegreeStats s = degree_stats(g);
  EXPECT_EQ(s.max, 3U);
  EXPECT_DOUBLE_EQ(s.mean, 1.5);
  ASSERT_EQ(s.histogram.size(), 4U);
  EXPECT_EQ(s.histogram[1], 3U);
  EXPECT_EQ(s.histogram[3], 1U);
}

TEST(Metrics, EdgeLengthStats) {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 3.0, 9.0);
  const graph::Graph g = std::move(b).build();
  const EdgeLengthStats s = edge_length_stats(g);
  EXPECT_DOUBLE_EQ(s.min, 1.0);
  EXPECT_DOUBLE_EQ(s.max, 3.0);
  EXPECT_DOUBLE_EQ(s.mean, 2.0);
  EXPECT_DOUBLE_EQ(s.total, 4.0);
}

}  // namespace
}  // namespace thetanet::topo
