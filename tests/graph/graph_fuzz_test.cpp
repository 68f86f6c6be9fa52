// Randomized differential test of the Graph container against a trivial
// adjacency-matrix reference.

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "geom/rng.h"
#include "graph/graph.h"

namespace thetanet::graph {
namespace {

class GraphFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(GraphFuzz, MatchesAdjacencyMatrixReference) {
  geom::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_index(30);
  GraphBuilder b(n);
  std::vector<std::vector<double>> ref(n, std::vector<double>(n, -1.0));
  std::size_t edges = 0;

  for (int op = 0; op < 200; ++op) {
    const auto u = static_cast<NodeId>(rng.uniform_index(n));
    auto v = static_cast<NodeId>(rng.uniform_index(n - 1));
    if (v >= u) ++v;
    if (ref[u][v] >= 0.0) continue;  // no parallel edges
    const double len = rng.uniform(0.1, 2.0);
    b.add_edge(u, v, len, len * len);
    ref[u][v] = ref[v][u] = len;
    ++edges;
  }
  const Graph g = std::move(b).build();

  EXPECT_EQ(g.num_edges(), edges);
  double total_len = 0.0;
  std::size_t max_deg = 0;
  for (NodeId u = 0; u < n; ++u) {
    std::size_t deg = 0;
    for (NodeId v = 0; v < n; ++v) {
      const bool expect = ref[u][v] >= 0.0;
      ASSERT_EQ(g.has_edge(u, v), expect) << u << "," << v;
      if (expect) {
        ++deg;
        const EdgeId e = g.find_edge(u, v);
        ASSERT_NE(e, kInvalidEdge);
        ASSERT_DOUBLE_EQ(g.edge(e).length, ref[u][v]);
        ASSERT_EQ(g.edge(e).other(u), v);
        if (u < v) total_len += ref[u][v];
      } else {
        ASSERT_EQ(g.find_edge(u, v), kInvalidEdge);
      }
    }
    ASSERT_EQ(g.degree(u), deg);
    max_deg = std::max(max_deg, deg);
    // Adjacency list agrees with the matrix row.
    std::size_t seen = 0;
    for (const Half& h : g.neighbors(u)) {
      ASSERT_GE(ref[u][h.to], 0.0);
      ++seen;
    }
    ASSERT_EQ(seen, deg);
  }
  EXPECT_EQ(g.max_degree(), max_deg);
  EXPECT_NEAR(g.total_length(), total_len, 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, GraphFuzz,
                         ::testing::Range<std::uint64_t>(100, 115));

}  // namespace
}  // namespace thetanet::graph
