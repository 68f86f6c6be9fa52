#include "routing/baselines.h"

#include <gtest/gtest.h>

#include <numbers>
#include <utility>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::route {
namespace {

struct Fixture {
  topo::Deployment d;
  graph::Graph topo;

  explicit Fixture(std::uint64_t seed, std::size_t n = 60, double range = 0.4) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    topo = topo::build_transmission_graph(d);
  }
};

AdversaryTrace dense_trace(const graph::Graph& topo, geom::Rng& rng,
                           Time horizon = 3000, double rate = 1.0) {
  TraceParams p;
  p.horizon = horizon;
  p.injections_per_step = rate;
  p.max_schedule_slack = 32;
  p.num_sources = 4;
  p.num_destinations = 2;
  return make_certified_trace(topo, p, rng);
}

TEST(GreedyGeographic, DeliversOnDenseGraphWithAllEdgesActive) {
  // On a dense transmission graph greedy forwarding has no local minima for
  // most pairs; with all edges always active it should deliver the bulk.
  const Fixture f(21, 80, 0.5);
  ASSERT_TRUE(graph::is_connected(f.topo));
  geom::Rng rng(22);
  AdversaryTrace trace = dense_trace(f.topo, rng, 2000, 0.5);
  // Override: all edges active each step (dedicated MAC).
  for (Time t = 0; t < trace.steps.size(); ++t) {
    StepSpec& step = trace.steps.edit(t);
    step.active.resize(f.topo.num_edges());
    for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) step.active[e] = e;
  }
  const BaselineResult res =
      run_greedy_geographic(trace, f.d, f.topo, 64, 2000);
  EXPECT_GT(res.metrics.deliveries, trace.opt.deliveries / 2);
  // Conservation: offered = delivered + dropped + leftover + local minima.
  EXPECT_EQ(res.metrics.injected_accepted,
            res.metrics.deliveries + res.metrics.dropped_in_transit +
                res.metrics.leftover_packets + res.local_minimum_drops);
}

TEST(GreedyGeographic, LocalMinimumDropsOnConcaveTopology) {
  // A "C"-shaped obstacle: the greedy next hop towards the destination dead-
  // ends. Nodes: source left, dest right, but the only path detours via the
  // top; the straight-line neighbour is a cul-de-sac closer to dest.
  topo::Deployment d;
  d.positions = {
      {0.0, 0.0},   // 0 source
      {0.4, 0.0},   // 1 cul-de-sac (closest to dest among 0's neighbours)
      {0.0, 0.45},  // 2 detour up
      {0.5, 0.45},  // 3 detour across
      {1.0, 0.1},   // 4 destination
  };
  d.max_range = 0.62;
  d.kappa = 2.0;
  graph::GraphBuilder b(5);
  b.add_edge(0, 1, 0.4, 0.16);    // dead end
  b.add_edge(0, 2, 0.45, 0.2025);
  b.add_edge(2, 3, 0.5, 0.25);
  b.add_edge(3, 4, 0.61, 0.37);
  const graph::Graph g = std::move(b).build();
  AdversaryTrace trace;
  trace.topology = &g;
  trace.steps.resize(200);
  for (Time t = 0; t < trace.steps.size(); ++t)
    trace.steps.edit(t).active = {0, 1, 2, 3};
  // Inject 10 packets 0 -> 4 with dummy-but-valid schedules via the detour.
  for (Time t = 0; t < 10; ++t) {
    Injection inj;
    inj.packet = Packet{t + 1, 0, 4, t, 0.0, 0};
    inj.schedule.t0 = t;
    inj.schedule.hops = {{1, static_cast<Time>(20 * t + 1)},
                         {2, static_cast<Time>(20 * t + 2)},
                         {3, static_cast<Time>(20 * t + 3)}};
    trace.steps.edit(t).injections.push_back(inj);
  }
  trace.opt = replay_schedules(trace);
  ASSERT_EQ(trace.opt.deliveries, 10U);

  const BaselineResult res = run_greedy_geographic(trace, d, g, 16, 0);
  // Greedy sends everything to node 1 (closest to dest) where it dies.
  EXPECT_EQ(res.metrics.deliveries, 0U);
  EXPECT_EQ(res.local_minimum_drops, 10U);
}

TEST(SourceRouting, DeliversEverythingOnItsOwnSchedulePattern) {
  // With the adversary's active sets following the certified schedules,
  // source routing along the same metric eventually delivers the packets
  // (it follows the same min-cost paths the trace generator booked).
  const Fixture f(23);
  ASSERT_TRUE(graph::is_connected(f.topo));
  geom::Rng rng(24);
  const AdversaryTrace trace = dense_trace(f.topo, rng, 4000, 0.5);
  const BaselineResult res =
      run_source_routing(trace, f.topo, graph::Weight::kCost, 4096, 8000);
  EXPECT_GT(res.throughput_ratio(), 0.9);
  EXPECT_EQ(res.metrics.injected_accepted,
            res.metrics.deliveries + res.metrics.dropped_in_transit +
                res.metrics.leftover_packets);
  // Source routing on min-cost paths has per-delivery cost ~ OPT's.
  EXPECT_LT(res.cost_ratio(), 1.5);
}

TEST(SourceRouting, QueueCapCausesTransitDrops) {
  const Fixture f(25);
  geom::Rng rng(26);
  const AdversaryTrace trace = dense_trace(f.topo, rng, 3000, 3.0);
  const BaselineResult tight =
      run_source_routing(trace, f.topo, graph::Weight::kCost, 1, 1000);
  const BaselineResult roomy =
      run_source_routing(trace, f.topo, graph::Weight::kCost, 4096, 1000);
  EXPECT_GT(tight.metrics.dropped_at_injection + tight.metrics.dropped_in_transit,
            roomy.metrics.dropped_at_injection + roomy.metrics.dropped_in_transit);
  EXPECT_LE(tight.metrics.peak_buffer, 1U);
}

TEST(SourceRouting, HopMetricTakesFewerHops) {
  const Fixture f(27, 80, 0.5);
  geom::Rng rng(28);
  AdversaryTrace trace = dense_trace(f.topo, rng, 2000, 0.5);
  for (Time t = 0; t < trace.steps.size(); ++t) {
    StepSpec& step = trace.steps.edit(t);
    step.active.resize(f.topo.num_edges());
    for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) step.active[e] = e;
  }
  const BaselineResult by_hops =
      run_source_routing(trace, f.topo, graph::Weight::kHops, 4096, 4000);
  const BaselineResult by_cost =
      run_source_routing(trace, f.topo, graph::Weight::kCost, 4096, 4000);
  ASSERT_GT(by_hops.metrics.deliveries, 100U);
  ASSERT_GT(by_cost.metrics.deliveries, 100U);
  EXPECT_LT(by_hops.metrics.avg_hops(), by_cost.metrics.avg_hops() + 1e-9);
  EXPECT_LE(by_cost.metrics.avg_delivered_cost(),
            by_hops.metrics.avg_delivered_cost() + 1e-9);
}

}  // namespace
}  // namespace thetanet::route
