// Integration tests: the full stack (topology control + MAC + balancing
// routing) against certified adversaries, checking the *shape* of the
// competitive guarantees at test-sized instances. The bench harness sweeps
// the same scenarios at larger scale.

#include "sim/scenarios.h"

#include <gtest/gtest.h>

#include <numbers>
#include <utility>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::sim {
namespace {

constexpr double kPi = std::numbers::pi;

struct Net {
  topo::Deployment d;
  graph::Graph topo;

  Net(std::uint64_t seed, std::size_t n, double range) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    topo = topo::build_transmission_graph(d);
  }
};

route::AdversaryTrace concentrated_trace(const graph::Graph& topo,
                                         geom::Rng& rng, route::Time horizon,
                                         double rate = 2.0) {
  route::TraceParams p;
  p.horizon = horizon;
  p.drain = 0;
  p.injections_per_step = rate;
  p.max_schedule_slack = 64;
  p.num_sources = 6;
  p.num_destinations = 2;
  return route::make_certified_trace(topo, p, rng);
}

TEST(MacGivenScenario, DeliversMostPacketsWithTheoremParams) {
  geom::Rng rng(111);
  const Net net(1, 48, 0.5);
  ASSERT_TRUE(graph::is_connected(net.topo));
  const auto trace = concentrated_trace(net.topo, rng, 60000, 3.0);
  ASSERT_GT(trace.opt.deliveries, 10000U);
  const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);
  const auto res = run_mac_given(trace, params, 20000);
  // Converging towards 1 - eps; at this horizon past 60% and rising (the
  // bench sweeps the full convergence curve).
  EXPECT_GT(res.throughput_ratio(), 0.6);
  // Average cost within the theorem's 1 + 2/eps factor.
  EXPECT_LT(res.cost_ratio(), 1.0 + 2.0 / 0.25);
  // With T >= B + 2(delta-1), in-transit packets are never dropped.
  EXPECT_EQ(res.metrics.dropped_in_transit, 0U);
  // Conservation.
  EXPECT_EQ(res.metrics.injected_accepted,
            res.metrics.deliveries + res.metrics.leftover_packets +
                res.metrics.dropped_in_transit);
}

TEST(MacGivenScenario, ThroughputImprovesWithHorizon) {
  // The additive slack r is constant, so the delivered fraction must grow
  // towards 1 - eps as the horizon grows.
  geom::Rng rng_a(112), rng_b(112);
  const Net net(2, 48, 0.5);
  const auto short_trace = concentrated_trace(net.topo, rng_a, 4000, 3.0);
  const auto long_trace = concentrated_trace(net.topo, rng_b, 32000, 3.0);
  const auto p_short = core::theorem31_params(short_trace.opt, 0.25, 4.0);
  const auto p_long = core::theorem31_params(long_trace.opt, 0.25, 4.0);
  const double r_short =
      run_mac_given(short_trace, p_short, 2000).throughput_ratio();
  const double r_long =
      run_mac_given(long_trace, p_long, 8000).throughput_ratio();
  EXPECT_GT(r_long, r_short);
}

TEST(MacGivenScenario, CostAwareBeatsCostBlindOnEnergy) {
  // gamma = 0 ablation on a crafted instance: source 0 and destination 3
  // connected by a cheap three-hop path (cost 1 per hop) and an expensive
  // direct edge (cost 100). All edges are always active. The theorem's
  // gamma makes the direct edge's benefit unreachable; the cost-blind
  // variant happily burns 100 units on it.
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 1.0, 1.0);
  b.add_edge(2, 3, 1.0, 1.0);
  b.add_edge(0, 3, 10.0, 100.0);
  const graph::Graph topo = std::move(b).build();

  route::AdversaryTrace trace;
  trace.topology = &topo;
  const route::Time horizon = 3000;
  trace.steps.resize(horizon);
  // Pipeline one packet per step along the cheap path (conflict-free).
  for (route::Time t = 0; t + 4 < horizon; ++t) {
    route::Injection inj;
    inj.packet = route::Packet{t + 1, 0, 3, t, 0.0, 0};
    inj.schedule.t0 = t;
    inj.schedule.hops = {{0, t + 1}, {1, t + 2}, {2, t + 3}};
    trace.steps.edit(t).injections.push_back(inj);
  }
  for (route::Time t = 0; t < horizon; ++t)
    trace.steps.edit(t).active = {0, 1, 2, 3};
  trace.opt = route::replay_schedules(trace);
  ASSERT_GT(trace.opt.deliveries, 1000U);

  core::BalancingParams params{/*T=*/3.0, /*gamma=*/0.0, /*H=*/256};
  const auto no_gamma = run_mac_given(trace, params, 1000);
  params.gamma = 1.0;  // gamma * 100 puts the direct edge out of reach
  const auto with_gamma = run_mac_given(trace, params, 1000);
  ASSERT_GT(with_gamma.metrics.deliveries, 100U);
  ASSERT_GT(no_gamma.metrics.deliveries, 100U);
  EXPECT_LT(with_gamma.metrics.avg_cost_per_delivery(),
            no_gamma.metrics.avg_cost_per_delivery());
  // The cost-aware run never uses the expensive edge: per-delivery cost is
  // (asymptotically) the 3-unit path cost.
  EXPECT_LT(with_gamma.metrics.avg_delivered_cost(), 3.5);
  EXPECT_GT(no_gamma.metrics.avg_delivered_cost(), 3.5);
}

TEST(RandomizedMacScenario, RespectsTheoremFloor) {
  geom::Rng rng(114);
  topo::Deployment d;
  d.positions = topo::uniform_square(64, 1.0, rng);
  d.max_range = 0.35;
  d.kappa = 2.0;
  const core::ThetaTopology tt(d, kPi / 6.0);
  ASSERT_TRUE(graph::is_connected(tt.graph()));
  const interf::InterferenceModel model{0.5};
  const core::RandomizedMac mac(tt.graph(), d, model);

  route::TraceParams tp;
  tp.horizon = 8000;
  tp.injections_per_step = 0.05;  // light load: OPT far below capacity
  tp.max_schedule_slack = 200;
  tp.num_sources = 6;
  tp.num_destinations = 2;
  const auto trace = route::make_certified_trace(tt.graph(), tp, rng);
  ASSERT_GT(trace.opt.deliveries, 100U);
  const auto params = core::theorem33_params(trace.opt, 0.25);
  const auto res = run_randomized_mac(trace, tt.graph(), mac, params, rng,
                                      /*extra_drain=*/30000);
  // Theorem 3.3 floor: (1 - eps) / (8I) of OPT.
  const double floor = (1.0 - 0.25) /
                       (8.0 * static_cast<double>(mac.interference_bound()));
  EXPECT_GT(res.throughput_ratio(), floor);
  // Collision rate among actual transmissions stays below 1/2 (Lemma 3.2).
  if (res.metrics.attempted_tx > 100) {
    EXPECT_LE(static_cast<double>(res.metrics.failed_tx) /
                  static_cast<double>(res.metrics.attempted_tx),
              0.5);
  }
}

TEST(HoneycombScenario, ConstantFactorThroughput) {
  geom::Rng rng(115);
  topo::Deployment d;
  d.positions = topo::uniform_square(100, 5.0, rng);
  d.max_range = 1.0;  // fixed strength
  d.kappa = 2.0;
  const graph::Graph unit = topo::build_transmission_graph(d);
  if (!graph::is_connected(unit)) GTEST_SKIP() << "instance disconnected";
  const core::HoneycombMac mac(d, unit, core::HoneycombParams{0.5, 1.0 / 6.0});

  route::TraceParams tp;
  tp.horizon = 12000;
  tp.injections_per_step = 0.15;
  tp.max_schedule_slack = 300;
  tp.num_sources = 2;
  tp.num_destinations = 1;
  const auto trace = route::make_certified_trace(unit, tp, rng);
  ASSERT_GT(trace.opt.deliveries, 100U);
  const auto params = core::theorem33_params(trace.opt, 0.25);
  HoneycombRunStats hs;
  const auto res =
      run_honeycomb(trace, unit, mac, params, rng, /*extra_drain=*/40000, &hs);
  EXPECT_GT(res.throughput_ratio(), 0.05);  // far above 1/(8I)-style floors
  // Lemma 3.7: collision fraction at most 1/2.
  if (hs.transmissions_total > 100) {
    EXPECT_LE(static_cast<double>(hs.collisions_total) /
                  static_cast<double>(hs.transmissions_total),
              0.5);
  }
  EXPECT_GT(hs.contestants_total, 0U);
}

TEST(FullStack, ThetaPlusMacCompetesAgainstGStarOpt) {
  // Corollary 3.4's setting: OPT certified on G*, online runs on N with the
  // randomized MAC — the end-to-end stack a deployment would actually use.
  geom::Rng rng(116);
  topo::Deployment d;
  d.positions = topo::uniform_square(64, 1.0, rng);
  d.max_range = 0.35;
  d.kappa = 2.0;
  const graph::Graph gstar = topo::build_transmission_graph(d);
  ASSERT_TRUE(graph::is_connected(gstar));
  const core::ThetaTopology tt(d, kPi / 6.0);
  const core::RandomizedMac mac(tt.graph(), d, interf::InterferenceModel{0.5});

  route::TraceParams tp;
  tp.horizon = 10000;
  tp.injections_per_step = 0.15;
  tp.max_schedule_slack = 100;
  tp.num_sources = 2;
  tp.num_destinations = 1;
  const auto trace = route::make_certified_trace(gstar, tp, rng);
  ASSERT_GT(trace.opt.deliveries, 50U);
  const auto params = core::theorem33_params(trace.opt, 0.5);
  const auto res = run_randomized_mac(trace, tt.graph(), mac, params, rng,
                                      /*extra_drain=*/30000);
  EXPECT_GT(res.metrics.deliveries, 0U);
  EXPECT_GT(res.throughput_ratio(), 0.02);  // O(1/I) scale on this instance
}

}  // namespace
}  // namespace thetanet::sim
