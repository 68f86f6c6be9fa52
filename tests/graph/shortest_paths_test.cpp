#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geom/rng.h"

namespace thetanet::graph {
namespace {

/// A small weighted graph with known shortest paths:
///
///   0 --1-- 1 --1-- 2
///    \             /
///     ----5-------
Graph triangle() {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 1.0, 1.0);
  b.add_edge(0, 2, 5.0, 25.0);
  return std::move(b).build();
}

TEST(Dijkstra, PicksTheCheaperTwoHopPath) {
  const Graph g = triangle();
  const ShortestPathTree t = dijkstra(g, 0, Weight::kLength);
  EXPECT_DOUBLE_EQ(t.dist[0], 0.0);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);
  EXPECT_DOUBLE_EQ(t.dist[2], 2.0);
  EXPECT_EQ(t.path_to(2), (std::vector<NodeId>{0, 1, 2}));
}

TEST(Dijkstra, WeightKindChangesTheAnswer) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 2.0, 4.0);
  b.add_edge(1, 2, 2.0, 4.0);
  b.add_edge(0, 2, 3.0, 9.0);
  const Graph g = std::move(b).build();
  // By length: direct edge 3 < 4.
  EXPECT_DOUBLE_EQ(dijkstra(g, 0, Weight::kLength).dist[2], 3.0);
  // By cost (kappa = 2): relaying 8 < 9 — the energy-relaying effect the
  // paper's cost model creates.
  EXPECT_DOUBLE_EQ(dijkstra(g, 0, Weight::kCost).dist[2], 8.0);
  // By hops: direct edge wins.
  EXPECT_DOUBLE_EQ(dijkstra(g, 0, Weight::kHops).dist[2], 1.0);
}

TEST(Dijkstra, UnreachableNodesAreInfinity) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  const Graph g = std::move(b).build();
  const ShortestPathTree t = dijkstra(g, 0, Weight::kLength);
  EXPECT_EQ(t.dist[2], kUnreachable);
  EXPECT_EQ(t.dist[3], kUnreachable);
  EXPECT_TRUE(t.path_to(3).empty());
}

TEST(Dijkstra, PathToSourceIsTrivial) {
  const Graph g = triangle();
  const ShortestPathTree t = dijkstra(g, 1, Weight::kLength);
  EXPECT_EQ(t.path_to(1), (std::vector<NodeId>{1}));
  EXPECT_EQ(t.parent[1], kInvalidNode);
}

TEST(Dijkstra, ViaEdgeReconstructsUsableEdges) {
  const Graph g = triangle();
  const ShortestPathTree t = dijkstra(g, 0, Weight::kLength);
  const EdgeId via = t.via_edge[2];
  ASSERT_NE(via, kInvalidEdge);
  EXPECT_EQ(g.edge(via).u, 1U);
  EXPECT_EQ(g.edge(via).v, 2U);
}

TEST(Dijkstra, MatchesBellmanFordOnRandomGraphs) {
  geom::Rng rng(71);
  for (int trial = 0; trial < 10; ++trial) {
    const std::size_t n = 30;
    GraphBuilder b(n);
    for (NodeId u = 0; u < n; ++u)
      for (NodeId v = u + 1; v < n; ++v)
        if (rng.bernoulli(0.15)) {
          const double len = rng.uniform(0.1, 2.0);
          b.add_edge(u, v, len, len * len);
        }
    const Graph g = std::move(b).build();
    const ShortestPathTree t = dijkstra(g, 0, Weight::kLength);
    // Bellman-Ford reference.
    std::vector<double> dist(n, kUnreachable);
    dist[0] = 0.0;
    for (std::size_t round = 0; round < n; ++round)
      for (const Edge& e : g.edges()) {
        if (dist[e.u] + e.length < dist[e.v]) dist[e.v] = dist[e.u] + e.length;
        if (dist[e.v] + e.length < dist[e.u]) dist[e.u] = dist[e.v] + e.length;
      }
    for (NodeId v = 0; v < n; ++v) {
      if (dist[v] == kUnreachable) {
        ASSERT_EQ(t.dist[v], kUnreachable) << "node " << v;
      } else {
        ASSERT_NEAR(t.dist[v], dist[v], 1e-9) << "node " << v;
      }
    }
  }
}

TEST(Dijkstra, StopAfterSettledTruncatesSearch) {
  // Path graph 0-1-2-3-4: settling 2 nodes leaves the far end unreached.
  GraphBuilder b(5);
  for (NodeId i = 0; i + 1 < 5; ++i) b.add_edge(i, i + 1, 1.0, 1.0);
  const Graph g = std::move(b).build();
  const ShortestPathTree t = dijkstra(g, 0, Weight::kLength, 2);
  EXPECT_DOUBLE_EQ(t.dist[1], 1.0);
  // Node 2 was relaxed but nodes beyond were not.
  EXPECT_EQ(t.dist[4], kUnreachable);
}

TEST(BfsHops, CountsEdges) {
  const Graph g = triangle();
  const std::vector<double> hops = bfs_hops(g, 0);
  EXPECT_DOUBLE_EQ(hops[0], 0.0);
  EXPECT_DOUBLE_EQ(hops[1], 1.0);
  EXPECT_DOUBLE_EQ(hops[2], 1.0);  // direct edge exists regardless of weight
}

TEST(BfsHops, DisconnectedComponent) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  const Graph g = std::move(b).build();
  const std::vector<double> hops = bfs_hops(g, 0);
  EXPECT_EQ(hops[2], kUnreachable);
}

TEST(PairDistance, Convenience) {
  const Graph g = triangle();
  EXPECT_DOUBLE_EQ(pair_distance(g, 0, 2, Weight::kLength), 2.0);
  EXPECT_DOUBLE_EQ(pair_distance(g, 0, 2, Weight::kCost), 2.0);
}

}  // namespace
}  // namespace thetanet::graph
