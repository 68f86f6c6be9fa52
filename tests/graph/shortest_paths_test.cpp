#include "graph/shortest_paths.h"

#include <gtest/gtest.h>

#include <bit>
#include <queue>
#include <span>
#include <utility>
#include <vector>

#include "geom/rng.h"
#include "topology/builder.h"
#include "topology/distributions.h"

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

// --- hop trees against the heap order --------------------------------------

/// The binary-heap Dijkstra, kept as the reference for every weight: pops
/// (dist, id) pairs and relaxes with a strict <, so with unit weights each
/// node hangs off its smallest-id neighbour one level up.
ShortestPathTree heap_dijkstra(const Graph& g, std::span<const NodeId> sources,
                               Weight weight, std::size_t stop_after_settled) {
  const std::size_t n = g.num_nodes();
  ShortestPathTree t;
  t.dist.assign(n, kUnreachable);
  t.parent.assign(n, kInvalidNode);
  t.via_edge.assign(n, kInvalidEdge);
  using Entry = std::pair<double, NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const NodeId s : sources) {
    t.dist[s] = 0.0;
    heap.emplace(0.0, s);
  }
  std::size_t settled = 0;
  std::vector<bool> done(n, false);
  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = true;
    ++settled;
    if (stop_after_settled > 0 && settled >= stop_after_settled) break;
    for (const Half& h : g.neighbors(u)) {
      const double nd = d + edge_weight(g, h.edge, weight);
      if (nd < t.dist[h.to]) {
        t.dist[h.to] = nd;
        t.parent[h.to] = u;
        t.via_edge[h.to] = h.edge;
        heap.emplace(nd, h.to);
      }
    }
  }
  return t;
}

testing::AssertionResult same_tree(const ShortestPathTree& a,
                                   const ShortestPathTree& b) {
  for (NodeId v = 0; v < a.dist.size(); ++v)
    if (std::bit_cast<std::uint64_t>(a.dist[v]) !=
            std::bit_cast<std::uint64_t>(b.dist[v]) ||
        a.parent[v] != b.parent[v] || a.via_edge[v] != b.via_edge[v])
      return testing::AssertionFailure()
             << "node " << v << ": dist " << a.dist[v] << " vs " << b.dist[v]
             << ", parent " << a.parent[v] << " vs " << b.parent[v]
             << ", via " << a.via_edge[v] << " vs " << b.via_edge[v];
  return testing::AssertionSuccess();
}

// Every zoo builder on a connected and a disconnected field: single sources,
// multi-source sets (unsorted, with duplicates) and truncated searches give
// the heap's dist, parent and via_edge under every weight.
TEST(Dijkstra, MatchesTheHeapOrderOnZooFamilies) {
  std::size_t hop_cases = 0, cut_off = 0, unreached = 0;
  for (const double range : {0.3, 0.12}) {
    geom::Rng rng(range > 0.2 ? 5 : 6);
    topo::Deployment d;
    d.positions = topo::uniform_square(90, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    const std::size_t n = d.size();
    for (const topo::TopologyBuilder& builder : topo::builder_registry()) {
      const Graph g = builder.build(d);
      std::vector<std::vector<NodeId>> source_sets;
      for (NodeId s = 0; s < n; s += 11) source_sets.push_back({s});
      source_sets.push_back({40, 3, 17});
      source_sets.push_back({5, 5, 12, 5});
      source_sets.push_back({89, 0, 0, 44, 89});
      for (const Weight weight :
           {Weight::kHops, Weight::kCost, Weight::kLength}) {
        for (const std::vector<NodeId>& sources : source_sets) {
          for (const std::size_t stop :
               {std::size_t{0}, std::size_t{1}, std::size_t{2},
                std::size_t{7}, n / 3, n, n + 5}) {
            const ShortestPathTree want =
                heap_dijkstra(g, sources, weight, stop);
            const ShortestPathTree got =
                sources.size() == 1 ? dijkstra(g, sources[0], weight, stop)
                                    : dijkstra(g, sources, weight, stop);
            ASSERT_TRUE(same_tree(got, want))
                << builder.name << " range " << range << " weight "
                << static_cast<int>(weight) << " sources "
                << sources.size() << " stop " << stop;
            if (weight != Weight::kHops) continue;
            ++hop_cases;
            if (stop > 0 && stop < n / 2) ++cut_off;
            if (stop == 0)
              for (const double x : want.dist)
                if (x == kUnreachable) {
                  ++unreached;
                  break;
                }
          }
        }
      }
    }
  }
  EXPECT_GT(hop_cases, 1000U);
  EXPECT_GT(cut_off, hop_cases / 3);
  EXPECT_GT(unreached, hop_cases / 20);
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
