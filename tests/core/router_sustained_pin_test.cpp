// A pin of the sustained §3.2 loop that perfbench's router_sustained
// workload runs: jittered 32 x 32 grid, ΘALG at theta = pi/9, every edge
// usable through plan_all_edges_into, a hotspot convergecast to the field
// centre at rate 3 (T = 0.5, gamma = 0, H = 64, window 16 384). perfbench's
// checksum hashes only the planned transmissions, which depend on buffer
// heights alone; this test also pins what depends on WHICH packet moves —
// delivered cost, hop and latency sums, energy — so a change to how the
// bank stores or moves packets must reproduce every one of them exactly.

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include "core/balancing_router.h"
#include "core/theta_topology.h"
#include "geom/rng.h"
#include "graph/connectivity.h"
#include "routing/injection.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::core {
namespace {

constexpr std::size_t kNodes = 1024;
constexpr route::Time kRounds = 3000;

topo::Deployment jittered_grid() {
  const double n = static_cast<double>(kNodes);
  geom::Rng field(3);
  topo::Deployment d;
  d.max_range = 1.6 * std::sqrt(std::log(n) / n);
  d.kappa = 2.0;
  do {
    d.positions = topo::grid_jitter(kNodes, 1.0, 0.4 / 32.0, field);
  } while (!graph::is_connected(topo::build_transmission_graph(d)));
  return d;
}

/// The node nearest the field centre (smallest id on ties).
graph::NodeId centre_node(const topo::Deployment& d) {
  const geom::Vec2 c{0.5, 0.5};
  graph::NodeId best = 0;
  for (graph::NodeId v = 1; v < d.size(); ++v)
    if (geom::dist_sq(d.positions[v], c) < geom::dist_sq(d.positions[best], c))
      best = v;
  return best;
}

TEST(RouterSustainedPin, HotspotConvergecastMetrics) {
  const topo::Deployment d = jittered_grid();
  const ThetaTopology tt(d, std::numbers::pi / 9.0);
  const graph::Graph& g = tt.graph();
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;

  route::InjectionSpec spec;
  spec.process = route::InjectionSpec::Process::kHotspot;
  spec.rate = 3.0;
  spec.num_sources = 0;
  spec.num_destinations = 1;
  spec.window = 16384;
  spec.seed = 1;
  const graph::NodeId centre = centre_node(d);
  while (route::InjectionEngine(g, spec).hot_target() != centre) ++spec.seed;
  route::InjectionEngine engine(g, spec);

  BalancingRouter router(kNodes, {0.5, 0.0, 64});
  route::RunMetrics m;
  std::vector<PlannedTx> txs;
  std::vector<route::Packet> arrivals;
  const std::vector<bool> no_failures;
  std::uint64_t planned = 0;
  for (route::Time t = 0; t < kRounds; ++t) {
    router.plan_all_edges_into(g, costs, txs);
    planned += txs.size();
    router.execute(txs, no_failures, costs, t, m);
    engine.step(t, m, arrivals);
    for (const route::Packet& p : arrivals) router.inject(p, m);
    router.end_step(m);
  }
  m.leftover_packets = router.packets_in_flight();

  EXPECT_EQ(planned, 9016328U);
  EXPECT_EQ(m.injected_accepted, 8877U);
  EXPECT_EQ(m.deliveries, 3516U);
  EXPECT_EQ(m.skipped_tx, 1375529U);
  EXPECT_EQ(m.dropped_in_transit, 0U);
  EXPECT_EQ(m.peak_buffer, 24U);
  EXPECT_EQ(m.leftover_packets, 5361U);
  EXPECT_EQ(m.total_hops_delivered, 2830229U);
  EXPECT_EQ(m.sum_latency, 2853943U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.delivered_cost),
            4666722740592245094U);
  EXPECT_EQ(std::bit_cast<std::uint64_t>(m.total_energy),
            4673097794723425238U);
}

}  // namespace
}  // namespace thetanet::core
