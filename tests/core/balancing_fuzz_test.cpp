// Randomized stress of the balancing router: arbitrary topologies, random
// active sets, random MAC failure vectors and random injections must never
// violate the core invariants — packet conservation, buffer caps, energy
// accounting consistency.

#include <gtest/gtest.h>

#include <utility>

#include "core/balancing_router.h"
#include "geom/rng.h"

namespace thetanet::core {
namespace {

graph::Graph random_graph(std::size_t n, double p, geom::Rng& rng) {
  graph::GraphBuilder b(n);
  for (graph::NodeId u = 0; u < n; ++u)
    for (graph::NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) {
        const double len = rng.uniform(0.1, 1.0);
        b.add_edge(u, v, len, len * len);
      }
  return std::move(b).build();
}

class BalancingFuzz : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(BalancingFuzz, InvariantsSurviveRandomAbuse) {
  geom::Rng rng(GetParam());
  const std::size_t n = 2 + rng.uniform_index(20);
  const graph::Graph g = random_graph(n, rng.uniform(0.1, 0.6), rng);
  const BalancingParams params{rng.uniform(0.0, 4.0), rng.uniform(0.0, 2.0),
                               1 + rng.uniform_index(16)};
  BalancingRouter router(n, params);
  route::RunMetrics m;
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;

  std::uint64_t next_id = 1;
  for (route::Time t = 0; t < 400; ++t) {
    // Random active subset.
    std::vector<graph::EdgeId> active;
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
      if (rng.bernoulli(0.4)) active.push_back(e);
    const auto txs = router.plan(g, active, costs);
    // Random MAC failures.
    std::vector<bool> failed(txs.size());
    for (std::size_t i = 0; i < txs.size(); ++i) failed[i] = rng.bernoulli(0.3);
    router.execute(txs, failed, costs, t, m);
    // Random injections.
    const std::size_t injections = rng.uniform_index(4);
    for (std::size_t i = 0; i < injections && n >= 2; ++i) {
      const auto src = static_cast<graph::NodeId>(rng.uniform_index(n));
      auto dst = static_cast<graph::NodeId>(rng.uniform_index(n - 1));
      if (dst >= src) ++dst;
      router.inject(route::Packet{next_id++, src, dst, t, 0.0, 0}, m);
    }
    router.end_step(m);

    // Invariants, every step:
    ASSERT_LE(router.buffers().peak_height(), params.max_height);
    ASSERT_EQ(m.injected_offered,
              m.injected_accepted + m.dropped_at_injection);
    ASSERT_EQ(m.injected_accepted, m.deliveries + router.packets_in_flight() +
                                       m.dropped_in_transit);
    ASSERT_GE(m.total_energy, m.delivered_cost - 1e-9);
    ASSERT_GE(m.attempted_tx, m.failed_tx);
  }
  // Plans never exceed one transmission per offered edge.
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
  const auto txs = router.plan(g, all, costs);
  std::vector<int> per_edge(g.num_edges(), 0);
  for (const PlannedTx& tx : txs) {
    ASSERT_LT(tx.edge, g.num_edges());
    ASSERT_EQ(++per_edge[tx.edge], 1);
    ASSERT_GT(tx.benefit, params.threshold);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, BalancingFuzz,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace thetanet::core
