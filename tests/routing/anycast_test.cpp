#include "routing/anycast.h"

#include <gtest/gtest.h>

#include <numbers>
#include <utility>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "graph/edge_costs.h"
#include "sim/scenarios.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::route {
namespace {

struct Net {
  topo::Deployment d;
  graph::Graph topo;

  explicit Net(std::uint64_t seed, std::size_t n = 60, double range = 0.45) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    topo = topo::build_transmission_graph(d);
  }
};

TEST(AnycastGroups, MembershipAndNormalization) {
  const AnycastGroups g({{3, 1, 3, 2}, {7}});
  EXPECT_EQ(g.size(), 2U);
  EXPECT_EQ(g.members(0).size(), 3U);  // deduplicated
  EXPECT_TRUE(g.contains(0, 1));
  EXPECT_TRUE(g.contains(0, 3));
  EXPECT_FALSE(g.contains(0, 7));
  EXPECT_TRUE(g.contains(1, 7));
}

TEST(AnycastTrace, SchedulesEndAtGroupMembers) {
  const Net net(31);
  ASSERT_TRUE(graph::is_connected(net.topo));
  const AnycastGroups groups({{0, 1, 2}, {10, 11}});
  TraceParams p;
  p.horizon = 500;
  p.injections_per_step = 1.0;
  geom::Rng rng(32);
  const AdversaryTrace trace = make_anycast_trace(net.topo, groups, p, rng);
  ASSERT_GT(trace.opt.deliveries, 100U);
  // replay_anycast_schedules asserts internally; re-run as an audit.
  const OptStats replayed = replay_anycast_schedules(trace, groups);
  EXPECT_EQ(replayed.deliveries, trace.opt.deliveries);
  // Every packet's dst is a valid group id and its source no member.
  for (const StepSpec& step : trace.steps)
    for (const Injection& inj : step.injections) {
      ASSERT_LT(inj.packet.dst, groups.size());
      ASSERT_FALSE(groups.contains(inj.packet.dst, inj.packet.src));
    }
}

TEST(AnycastTrace, HonoursNoiseEdgesAndCostJitter) {
  // Anycast traces share the unicast generator's post-passes: noise edges
  // on every step, a jittered cost for every active edge, and a replay
  // that charges those jittered costs.
  const Net net(33);
  const AnycastGroups groups({{0, 1, 2}, {10, 11}});
  TraceParams p;
  p.horizon = 300;
  p.drain = 100;
  p.injections_per_step = 1.0;
  p.extra_active_fraction = 0.05;
  p.cost_jitter_pct = 20;
  geom::Rng rng(34);
  const AdversaryTrace trace = make_anycast_trace(net.topo, groups, p, rng);
  ASSERT_GT(trace.opt.deliveries, 50U);
  for (const StepSpec& step : trace.steps) {
    ASSERT_FALSE(step.active.empty());
    ASSERT_EQ(step.cost_overrides.size(), step.active.size());
  }
  const std::vector<double> base_costs = graph::edge_costs(net.topo);
  const auto cost_at = [&](graph::EdgeId e, Time t) {
    double c = base_costs[e];
    for (const auto& [oe, oc] : trace.step_at(t).cost_overrides)
      if (oe == e) c = oc;
    return c;
  };
  double jittered = 0.0, base = 0.0;
  for (const StepSpec& step : trace.steps)
    for (const Injection& inj : step.injections)
      for (const auto& [e, t] : inj.schedule.hops) {
        jittered += cost_at(e, t);
        base += base_costs[e];
      }
  EXPECT_NEAR(trace.opt.total_cost, jittered, 1e-9 * jittered);
  EXPECT_NE(trace.opt.total_cost, base);
}

TEST(AnycastTrace, PicksTheCheapestMember) {
  // Line topology 0-1-2-3-4; group {0, 4}; source 1 must be scheduled
  // towards 0 (1 hop), not 4 (3 hops).
  graph::GraphBuilder b(5);
  for (graph::NodeId i = 0; i + 1 < 5; ++i) b.add_edge(i, i + 1, 1.0, 1.0);
  const graph::Graph topo = std::move(b).build();
  const AnycastGroups groups({{0, 4}});
  TraceParams p;
  p.horizon = 50;
  p.injections_per_step = 1.0;
  p.source_pool = {1};
  geom::Rng rng(33);
  const AdversaryTrace trace = make_anycast_trace(topo, groups, p, rng);
  ASSERT_GT(trace.opt.deliveries, 10U);
  EXPECT_DOUBLE_EQ(trace.opt.avg_path_length, 1.0);
}

TEST(AnycastRouting, BalancingDeliversToAnyMember) {
  const Net net(34);
  ASSERT_TRUE(graph::is_connected(net.topo));
  // Three replicas spread over the field.
  const AnycastGroups groups({{5, 25, 45}});
  TraceParams p;
  p.horizon = 20000;
  p.injections_per_step = 1.0;
  p.max_schedule_slack = 16;
  p.num_sources = 4;
  geom::Rng rng(35);
  const AdversaryTrace trace = make_anycast_trace(net.topo, groups, p, rng);
  ASSERT_GT(trace.opt.deliveries, 5000U);

  const auto params = core::theorem31_params(trace.opt, 0.25);
  const auto res = sim::run_mac_given(
      trace, params, 10000,
      [&groups](graph::NodeId v, DestId d) { return groups.contains(d, v); });
  EXPECT_GT(res.throughput_ratio(), 0.5);
  EXPECT_EQ(res.metrics.dropped_in_transit, 0U);
  // Conservation still holds under anycast.
  EXPECT_EQ(res.metrics.injected_accepted,
            res.metrics.deliveries + res.metrics.leftover_packets +
                res.metrics.dropped_in_transit);
}

TEST(AnycastRouting, MoreReplicasNeverHurt) {
  // Same workload; a singleton group vs a 4-member group containing it.
  // Anycast to the superset delivers at least as much (gradients reach the
  // closest replica).
  const Net net(36);
  ASSERT_TRUE(graph::is_connected(net.topo));
  TraceParams p;
  p.horizon = 15000;
  p.injections_per_step = 1.0;
  p.max_schedule_slack = 16;
  p.num_sources = 4;

  geom::Rng rng_small(37);
  const AnycastGroups small(std::vector<std::vector<graph::NodeId>>{{20}});
  const auto trace_small =
      make_anycast_trace(net.topo, small, p, rng_small);
  geom::Rng rng_big(37);
  const AnycastGroups big(
      std::vector<std::vector<graph::NodeId>>{{20, 5, 40, 55}});
  const auto trace_big = make_anycast_trace(net.topo, big, p, rng_big);

  // OPT itself improves with replicas (shorter schedules).
  EXPECT_LE(trace_big.opt.avg_path_length, trace_small.opt.avg_path_length);

  const auto params_small = core::theorem31_params(trace_small.opt, 0.25);
  const auto params_big = core::theorem31_params(trace_big.opt, 0.25);
  const auto res_small = sim::run_mac_given(
      trace_small, params_small, 8000,
      [&small](graph::NodeId v, DestId d) { return small.contains(d, v); });
  const auto res_big = sim::run_mac_given(
      trace_big, params_big, 8000,
      [&big](graph::NodeId v, DestId d) { return big.contains(d, v); });
  EXPECT_GT(res_big.metrics.deliveries, 0U);
  EXPECT_GT(res_small.metrics.deliveries, 0U);
  // Average hop count per delivery shrinks with replicas.
  EXPECT_LE(res_big.metrics.avg_hops(), res_small.metrics.avg_hops() + 0.5);
}

}  // namespace
}  // namespace thetanet::route
