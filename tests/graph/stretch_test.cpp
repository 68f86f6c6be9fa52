#include "graph/stretch.h"

#include <gtest/gtest.h>

#include <utility>

#include "geom/rng.h"
#include "graph/shortest_paths.h"

namespace thetanet::graph {
namespace {

Graph random_geometric(std::size_t n, double radius, double kappa,
                       geom::Rng& rng, std::vector<double>* xs = nullptr) {
  std::vector<double> px(n), py(n);
  for (std::size_t i = 0; i < n; ++i) {
    px[i] = rng.uniform(0.0, 1.0);
    py[i] = rng.uniform(0.0, 1.0);
  }
  if (xs != nullptr) *xs = px;
  GraphBuilder b(n);
  for (NodeId u = 0; u < n; ++u)
    for (NodeId v = u + 1; v < n; ++v) {
      const double dx = px[u] - px[v], dy = py[u] - py[v];
      const double len = std::sqrt(dx * dx + dy * dy);
      if (len <= radius) b.add_edge(u, v, len, std::pow(len, kappa));
    }
  return std::move(b).build();
}

TEST(Stretch, GraphAgainstItselfIsOne) {
  geom::Rng rng(81);
  const Graph g = random_geometric(60, 0.4, 2.0, rng);
  const StretchStats s = edge_stretch(g, g, Weight::kLength);
  EXPECT_LE(s.max, 1.0 + 1e-12);
  EXPECT_FALSE(s.disconnected);
  const StretchStats p = pairwise_stretch(g, g, Weight::kLength);
  EXPECT_NEAR(p.max, 1.0, 1e-12);
  EXPECT_NEAR(p.mean, 1.0, 1e-12);
}

TEST(Stretch, RemovingAnEdgeCreatesStretch) {
  // Triangle with one long edge; removing a short edge forces a detour.
  GraphBuilder bb(3);
  bb.add_edge(0, 1, 1.0, 1.0);
  bb.add_edge(1, 2, 1.0, 1.0);
  bb.add_edge(0, 2, 1.5, 2.25);
  const Graph base = std::move(bb).build();
  GraphBuilder hb(3);
  hb.add_edge(0, 1, 1.0, 1.0);
  hb.add_edge(1, 2, 1.0, 1.0);
  const Graph h = std::move(hb).build();
  const StretchStats s = edge_stretch(h, base, Weight::kLength);
  // Pair (0,2): detour 2.0 vs direct 1.5.
  EXPECT_NEAR(s.max, 2.0 / 1.5, 1e-12);
  EXPECT_EQ(s.argmax_u, 0U);
  EXPECT_EQ(s.argmax_v, 2U);
}

TEST(Stretch, DisconnectedSubgraphIsFlagged) {
  GraphBuilder bb(3);
  bb.add_edge(0, 1, 1.0, 1.0);
  bb.add_edge(1, 2, 1.0, 1.0);
  const Graph base = std::move(bb).build();
  GraphBuilder hb(3);
  hb.add_edge(0, 1, 1.0, 1.0);
  const Graph h = std::move(hb).build();
  EXPECT_TRUE(edge_stretch(h, base, Weight::kLength).disconnected);
  EXPECT_TRUE(pairwise_stretch(h, base, Weight::kLength).disconnected);
}

TEST(Stretch, EdgeStretchBoundsPairwiseStretch) {
  // The decomposition lemma: max pairwise stretch <= max edge stretch.
  geom::Rng rng(82);
  for (int trial = 0; trial < 5; ++trial) {
    const Graph base = random_geometric(50, 0.5, 2.0, rng);
    // H = base with every other edge deleted (by parity of id).
    GraphBuilder hb(base.num_nodes());
    for (EdgeId e = 0; e < base.num_edges(); ++e)
      if (e % 2 == 0) {
        const Edge& edge = base.edge(e);
        hb.add_edge(edge.u, edge.v, edge.length, edge.cost);
      }
    const Graph h = std::move(hb).build();
    const StretchStats se = edge_stretch(h, base, Weight::kLength);
    const StretchStats sp = pairwise_stretch(h, base, Weight::kLength);
    if (se.disconnected || sp.disconnected) continue;
    EXPECT_LE(sp.max, se.max + 1e-9) << "trial " << trial;
  }
}

TEST(Stretch, CostWeightUsesEnergy) {
  // Two-hop relay is cheaper in energy than the direct edge (kappa = 2):
  // the energy edge-stretch of the pruned graph can be < 1 for that edge.
  GraphBuilder bb(3);
  bb.add_edge(0, 1, 1.0, 1.0);
  bb.add_edge(1, 2, 1.0, 1.0);
  bb.add_edge(0, 2, 2.0, 4.0);
  const Graph base = std::move(bb).build();
  GraphBuilder hb(3);
  hb.add_edge(0, 1, 1.0, 1.0);
  hb.add_edge(1, 2, 1.0, 1.0);
  const Graph h = std::move(hb).build();
  const StretchStats s = edge_stretch(h, base, Weight::kCost);
  // For base edge (0,2): relay cost 2 vs direct 4 -> ratio 0.5; edges (0,1)
  // and (1,2) are present in h -> ratio 1. Max is 1.
  EXPECT_NEAR(s.max, 1.0, 1e-12);
  const StretchStats sl = edge_stretch(h, base, Weight::kLength);
  EXPECT_NEAR(sl.max, 1.0, 1e-12);  // 2.0 / 2.0 for pair (0,2)
}

TEST(Stretch, StatsAggregatesArePlausible) {
  geom::Rng rng(83);
  const Graph base = random_geometric(80, 0.35, 2.0, rng);
  GraphBuilder hb(base.num_nodes());
  for (EdgeId e = 0; e < base.num_edges(); ++e)
    if (e % 3 != 0) {
      const Edge& edge = base.edge(e);
      hb.add_edge(edge.u, edge.v, edge.length, edge.cost);
    }
  const Graph h = std::move(hb).build();
  const StretchStats s = edge_stretch(h, base, Weight::kLength);
  if (s.disconnected) GTEST_SKIP() << "random instance disconnected";
  EXPECT_GT(s.pairs, 0U);
  EXPECT_GE(s.max, s.p99);
  EXPECT_GE(s.p99, 0.0);
  EXPECT_GT(s.mean, 0.0);
  EXPECT_LE(s.mean, s.max);
}

}  // namespace
}  // namespace thetanet::graph
