#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "geom/rng.h"
#include "graph/connectivity.h"
#include "graph/mst.h"
#include "graph/shortest_paths.h"

namespace thetanet::graph {
namespace {

TEST(Connectivity, EmptyAndSingleton) {
  EXPECT_TRUE(is_connected(Graph{}));
  EXPECT_TRUE(is_connected(Graph{1}));
  EXPECT_EQ(num_components(Graph{}), 0U);
  EXPECT_EQ(num_components(Graph{1}), 1U);
}

TEST(Connectivity, TwoComponents) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(2, 3, 1.0, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_FALSE(is_connected(g));
  EXPECT_EQ(num_components(g), 2U);
  const auto labels = component_labels(g);
  EXPECT_EQ(labels[0], labels[1]);
  EXPECT_EQ(labels[2], labels[3]);
  EXPECT_NE(labels[0], labels[2]);
}

TEST(Connectivity, LabelsAreDense) {
  GraphBuilder b(5);
  b.add_edge(1, 3, 1.0, 1.0);
  const Graph g = std::move(b).build();
  const auto labels = component_labels(g);
  const std::uint32_t max_label = *std::max_element(labels.begin(), labels.end());
  EXPECT_EQ(max_label + 1, num_components(g));
}

TEST(Mst, PathGraphKeepsEverything) {
  GraphBuilder b(4);
  for (NodeId i = 0; i + 1 < 4; ++i) b.add_edge(i, i + 1, 1.0, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(mst_edges(g, Weight::kLength).size(), 3U);
}

TEST(Mst, DropsTheHeaviestCycleEdge) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 2.0, 4.0);
  const EdgeId heavy = b.add_edge(0, 2, 3.0, 9.0);
  const Graph g = std::move(b).build();
  const auto edges = mst_edges(g, Weight::kLength);
  EXPECT_EQ(edges.size(), 2U);
  EXPECT_EQ(std::count(edges.begin(), edges.end(), heavy), 0);
}

TEST(Mst, WeightKindMatters) {
  // length order: e02 (2.9) < e01 (2.0 + 1.1 via cost trick)... build edges
  // where length order and cost order differ.
  GraphBuilder b(3);
  const EdgeId e01 = b.add_edge(0, 1, 2.0, 1.0);  // long but cheap
  const EdgeId e12 = b.add_edge(1, 2, 2.0, 1.0);
  const EdgeId e02 = b.add_edge(0, 2, 1.0, 9.0);  // short but expensive
  const Graph g = std::move(b).build();
  const auto by_len = mst_edges(g, Weight::kLength);
  EXPECT_TRUE(std::count(by_len.begin(), by_len.end(), e02) == 1);
  const auto by_cost = mst_edges(g, Weight::kCost);
  EXPECT_TRUE(std::count(by_cost.begin(), by_cost.end(), e02) == 0);
  EXPECT_TRUE(std::count(by_cost.begin(), by_cost.end(), e01) == 1);
  EXPECT_TRUE(std::count(by_cost.begin(), by_cost.end(), e12) == 1);
}

TEST(Mst, SpanningForestOnDisconnectedGraph) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 1.0, 1.0);
  b.add_edge(3, 4, 1.0, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(mst_edges(g, Weight::kLength).size(), 3U);  // n - #components
}

TEST(Mst, SubgraphPreservesConnectivityAndWeight) {
  geom::Rng rng(55);
  GraphBuilder b(40);
  for (NodeId u = 0; u < 40; ++u)
    for (NodeId v = u + 1; v < 40; ++v)
      if (rng.bernoulli(0.2)) {
        const double len = rng.uniform(0.1, 1.0);
        b.add_edge(u, v, len, len * len);
      }
  const Graph g = std::move(b).build();
    // (random graph at p=0.2 and n=40 is connected with overwhelming prob.)
  ASSERT_TRUE(is_connected(g));
  const Graph t = mst_subgraph(g, Weight::kLength);
  EXPECT_TRUE(is_connected(t));
  EXPECT_EQ(t.num_edges(), 39U);
  // Cut property spot-check: total MST length minimal vs 50 random spanning
  // trees obtained by Kruskal on shuffled weights would be involved; instead
  // verify the standard cycle property: every non-tree edge is at least as
  // long as every tree edge on the path between its endpoints.
  for (const Edge& e : g.edges()) {
    if (t.find_edge(e.u, e.v) != kInvalidEdge) continue;
    // Path in tree between u and v.
    const auto tree_path = [&]() {
      const auto tr = dijkstra(t, e.u, Weight::kHops);
      return tr.path_to(e.v);
    }();
    ASSERT_GE(tree_path.size(), 2U);
    for (std::size_t i = 0; i + 1 < tree_path.size(); ++i) {
      const EdgeId te = t.find_edge(tree_path[i], tree_path[i + 1]);
      ASSERT_NE(te, kInvalidEdge);
      EXPECT_LE(t.edge(te).length, e.length + 1e-12);
    }
  }
}

}  // namespace
}  // namespace thetanet::graph
