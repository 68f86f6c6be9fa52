#include "graph/graph.h"

#include <gtest/gtest.h>

#include <utility>

namespace thetanet::graph {
namespace {

TEST(Graph, EmptyGraph) {
  const Graph g;
  EXPECT_EQ(g.num_nodes(), 0U);
  EXPECT_EQ(g.num_edges(), 0U);
  EXPECT_EQ(g.max_degree(), 0U);
}

TEST(Graph, AddEdgeBasics) {
  GraphBuilder b(4);
  const EdgeId e = b.add_edge(0, 2, 1.5, 2.25);
  EXPECT_EQ(e, 0U);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.num_edges(), 1U);
  EXPECT_EQ(g.degree(0), 1U);
  EXPECT_EQ(g.degree(2), 1U);
  EXPECT_EQ(g.degree(1), 0U);
  EXPECT_TRUE(g.has_edge(0, 2));
  EXPECT_TRUE(g.has_edge(2, 0));
  EXPECT_FALSE(g.has_edge(0, 1));
  EXPECT_DOUBLE_EQ(g.edge(e).length, 1.5);
  EXPECT_DOUBLE_EQ(g.edge(e).cost, 2.25);
}

TEST(Graph, EdgeOther) {
  GraphBuilder b(3);
  const EdgeId e = b.add_edge(1, 2, 1.0, 1.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.edge(e).other(1), 2U);
  EXPECT_EQ(g.edge(e).other(2), 1U);
}

TEST(Graph, FindEdge) {
  GraphBuilder b(5);
  b.add_edge(0, 1, 1.0, 1.0);
  const EdgeId e = b.add_edge(1, 3, 2.0, 4.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.find_edge(1, 3), e);
  EXPECT_EQ(g.find_edge(3, 1), e);
  EXPECT_EQ(g.find_edge(0, 3), kInvalidEdge);
}

TEST(Graph, NeighborsSeeBothEndpoints) {
  GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(0, 2, 2.0, 4.0);
  const Graph g = std::move(b).build();
  const auto nbrs = g.neighbors(0);
  ASSERT_EQ(nbrs.size(), 2U);
  EXPECT_EQ(nbrs[0].to, 1U);
  EXPECT_EQ(nbrs[1].to, 2U);
  EXPECT_EQ(g.neighbors(1).size(), 1U);
  EXPECT_EQ(g.neighbors(1)[0].to, 0U);
}

TEST(Graph, MaxDegreeAndTotals) {
  GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(0, 2, 2.0, 4.0);
  b.add_edge(0, 3, 3.0, 9.0);
  const Graph g = std::move(b).build();
  EXPECT_EQ(g.max_degree(), 3U);
  EXPECT_DOUBLE_EQ(g.total_length(), 6.0);
  EXPECT_DOUBLE_EQ(g.total_cost(), 14.0);
}

TEST(Graph, EdgeWeightSelector) {
  const Edge e{0, 1, 3.0, 9.0};
  EXPECT_DOUBLE_EQ(edge_weight(e, Weight::kLength), 3.0);
  EXPECT_DOUBLE_EQ(edge_weight(e, Weight::kCost), 9.0);
  EXPECT_DOUBLE_EQ(edge_weight(e, Weight::kHops), 1.0);
}

}  // namespace
}  // namespace thetanet::graph
