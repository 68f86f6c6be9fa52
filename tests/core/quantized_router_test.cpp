#include "core/balancing_router.h"

#include <gtest/gtest.h>

#include <utility>

#include "graph/connectivity.h"
#include "routing/adversary.h"
#include "routing/anycast.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::core {
namespace {

graph::Graph path3() {
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(1, 2, 1.0, 1.0);
  return std::move(b).build();
}

std::vector<double> costs_of(const graph::Graph& g) {
  std::vector<double> c(g.num_edges());
  for (graph::EdgeId e = 0; e < c.size(); ++e) c[e] = g.edge(e).cost;
  return c;
}

route::Packet mk(std::uint64_t id, graph::NodeId s, graph::NodeId t) {
  return route::Packet{id, s, t, 0, 0.0, 0};
}

TEST(QuantizedRouter, QuantumOneAdvertisesEveryChange) {
  const graph::Graph g = path3();
  BalancingRouter r(3, {0.5, 0.0, 16}, 1);
  route::RunMetrics m;
  r.inject(mk(1, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_messages(), 1U);  // height 0 -> 1 advertised
  r.inject(mk(2, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_messages(), 2U);  // height 1 -> 2 advertised
  r.end_step(m);
  EXPECT_EQ(r.control_messages(), 2U);  // no change, no message
}

TEST(QuantizedRouter, LargerQuantumSuppressesMessages) {
  const graph::Graph g = path3();
  BalancingRouter r(3, {10.0, 0.0, 64}, 4);
  route::RunMetrics m;
  for (std::uint64_t i = 0; i < 3; ++i) {
    r.inject(mk(i + 1, 0, 2), m);
    r.end_step(m);
  }
  EXPECT_EQ(r.control_messages(), 0U);  // drift 3 < quantum 4
  r.inject(mk(9, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_messages(), 1U);  // drift 4 -> advertise
}

TEST(QuantizedRouter, ControlBytesFollowTheWireModel) {
  const graph::Graph g = path3();
  BalancingRouter r(3, {0.5, 0.0, 16}, 1);
  route::RunMetrics m;
  EXPECT_EQ(r.control_bytes(), 0U);
  r.inject(mk(1, 0, 2), m);
  r.end_step(m);
  // One advertisement (header, dest, height).
  EXPECT_EQ(r.control_bytes(), BalancingRouter::kAdvertiseBytes);
  r.inject(mk(2, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_bytes(), 2 * BalancingRouter::kAdvertiseBytes);
  r.end_step(m);  // no drift, no bytes
  EXPECT_EQ(r.control_bytes(), 2 * BalancingRouter::kAdvertiseBytes);
}

TEST(QuantizedRouter, RetirementCostsRetireBytes) {
  // Single edge so the one packet cannot oscillate: 0 -> 1 is a delivery.
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  const auto costs = costs_of(g);
  BalancingRouter r(2, {0.5, 0.0, 16}, 1);
  route::RunMetrics m;
  r.inject(mk(1, 0, 1), m);
  r.end_step(m);  // advertise Q_{0,1} = 1
  const std::uint64_t after_adv = r.control_bytes();
  EXPECT_EQ(after_adv, BalancingRouter::kAdvertiseBytes);
  std::vector<PlannedTx> txs;
  const std::vector<graph::EdgeId> all{0};
  r.plan_into(g, all, costs, txs);
  ASSERT_EQ(txs.size(), 1U);
  r.execute(txs, {}, costs, 0, m);
  r.end_step(m);  // drained buffer: the advertisement is retired
  EXPECT_EQ(m.deliveries, 1U);
  EXPECT_EQ(r.control_messages(), 2U);  // one advertise + one retire
  EXPECT_EQ(r.control_bytes(), BalancingRouter::kAdvertiseBytes +
                                   BalancingRouter::kRetireBytes);
}

TEST(QuantizedRouter, PlanUsesStaleRemoteHeights) {
  const graph::Graph g = path3();
  // Quantum 8: node 1's height never gets advertised at these volumes.
  BalancingRouter r(3, {0.5, 0.0, 64}, 8);
  route::RunMetrics m;
  const auto costs = costs_of(g);
  // Preload node 1 with 3 packets for dest 2 (below quantum -> invisible).
  for (std::uint64_t i = 0; i < 3; ++i) r.inject(mk(i + 1, 1, 2), m);
  r.end_step(m);
  // Node 0 holds 2 packets for dest 2. True heights: h(0)=2, h(1)=3 — the
  // live rule would send 1 -> 0 with benefit 3 - 2 = 1. Under staleness both
  // remote views are 0, so the router sees benefit 2 for 0 -> 1 and benefit
  // 3 for 1 -> 0 and picks the latter — with the *stale* benefit 3, not the
  // live 1.
  r.inject(mk(10, 0, 2), m);
  r.inject(mk(11, 0, 2), m);
  const auto txs = r.plan(g, std::vector<graph::EdgeId>{0}, costs);
  ASSERT_EQ(txs.size(), 1U);
  EXPECT_EQ(txs[0].from, 1U);
  EXPECT_EQ(txs[0].to, 0U);
  EXPECT_DOUBLE_EQ(txs[0].benefit, 3.0);
}

TEST(QuantizedRouter, DrainedBufferAdvertisementIsWithdrawn) {
  const graph::Graph g = path3();
  BalancingRouter r(3, {0.0, 0.0, 16}, 1);
  route::RunMetrics m;
  const auto costs = costs_of(g);
  r.inject(mk(1, 0, 2), m);
  r.end_step(m);  // advertise height 1
  const auto msgs_after_fill = r.control_messages();
  // Move the packet out: node 0's buffer drains to zero.
  const auto txs = r.plan(g, std::vector<graph::EdgeId>{0}, costs);
  ASSERT_EQ(txs.size(), 1U);
  r.execute(txs, {}, costs, 1, m);
  r.end_step(m);
  // The withdrawal (height back to 0) costs one more control message, and
  // node 1's new height-1 buffer costs another.
  EXPECT_GE(r.control_messages(), msgs_after_fill + 2);
}

TEST(QuantizedRouter, QuantumOneMatchesLiveRouterEveryRound) {
  // Heights are integers, so quantum 1 advertises every change and the
  // advertised table equals the live bank at every plan: the q = 1 router
  // must plan what the live (q = 0) router plans, round for round. The
  // q = 2 router runs the same harness and must diverge somewhere, or the
  // comparison would not be looking at the advertised heights at all.
  for (const std::uint64_t seed : {1u, 2u, 3u}) {
    SCOPED_TRACE(seed);
    geom::Rng rng(100 + seed);
    topo::Deployment d;
    d.kappa = 2.0;
    d.max_range = 0.3;
    graph::Graph topo;
    do {
      d.positions = topo::uniform_square(150, 1.0, rng);
      topo = topo::build_transmission_graph(d);
    } while (!graph::is_connected(topo));
    route::TraceParams tp;
    tp.horizon = 4000;
    tp.injections_per_step = 1.0;
    tp.max_schedule_slack = 16;
    tp.num_sources = 6;
    tp.num_destinations = 2;
    const auto trace = route::make_certified_trace(topo, tp, rng);
    const auto params = theorem31_params(trace.opt, 0.25);
    const auto costs = costs_of(topo);

    BalancingRouter live(topo.num_nodes(), params);
    BalancingRouter q1(topo.num_nodes(), params, 1);
    BalancingRouter q2(topo.num_nodes(), params, 2);
    route::RunMetrics m_live, m_q1, m_q2;
    std::size_t planned = 0;
    bool q2_diverged = false;
    for (route::Time t = 0; t < 6000; ++t) {
      const auto& step = trace.steps[t % trace.horizon()];
      const auto txs_live = live.plan(topo, step.active, costs);
      const auto txs_q1 = q1.plan(topo, step.active, costs);
      const auto txs_q2 = q2.plan(topo, step.active, costs);
      ASSERT_EQ(txs_q1, txs_live) << "round " << t;
      planned += txs_live.size();
      q2_diverged = q2_diverged || txs_q2 != txs_live;
      const auto finish = [&](BalancingRouter& r,
                              const std::vector<PlannedTx>& txs,
                              route::RunMetrics& m) {
        r.execute(txs, {}, costs, t, m);
        if (t < trace.horizon())
          for (const auto& inj : step.injections) r.inject(inj.packet, m);
        r.end_step(m);
      };
      finish(live, txs_live, m_live);
      finish(q1, txs_q1, m_q1);
      finish(q2, txs_q2, m_q2);
    }
    EXPECT_EQ(m_q1, m_live);
    EXPECT_GT(m_live.deliveries, 0U);
    EXPECT_GT(planned, 0U);
    EXPECT_EQ(live.control_messages(), 0U);
    EXPECT_GT(q1.control_messages(), q2.control_messages());
    EXPECT_TRUE(q2_diverged);
  }
}

TEST(QuantizedRouter, AnycastAbsorbsAtAnyGroupMember) {
  // Group 2 = {1, 2}: a packet for group 2 injected at node 0 is absorbed
  // by node 1 after one hop and never reaches node 2.
  const graph::Graph g = path3();
  const auto costs = costs_of(g);
  const route::AnycastGroups groups({{0}, {1}, {1, 2}});
  BalancingRouter r(3, {0.5, 0.0, 16}, 2);
  r.set_destination_predicate(
      [&](graph::NodeId v, route::DestId d) { return groups.contains(d, v); });
  route::RunMetrics m;
  r.inject(mk(1, 0, 2), m);
  r.inject(mk(2, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_messages(), 1U);  // height 2 reached the quantum
  const std::vector<graph::EdgeId> all{0, 1};
  for (route::Time t = 1; t <= 2; ++t) {
    const auto txs = r.plan(g, all, costs);
    ASSERT_EQ(txs.size(), 1U);
    EXPECT_EQ(txs[0].to, 1U);
    r.execute(txs, {}, costs, t, m);
    r.end_step(m);
  }
  EXPECT_EQ(m.deliveries, 2U);
  EXPECT_EQ(m.total_hops_delivered, 2U);
  EXPECT_EQ(r.packets_in_flight(), 0U);
  EXPECT_EQ(r.buffers().height(1, 2), 0U);
}

TEST(QuantizedRouter, EndToEndRunStaysConservative) {
  geom::Rng rng(81);
  topo::Deployment d;
  d.positions = topo::uniform_square(40, 1.0, rng);
  d.max_range = 0.5;
  d.kappa = 2.0;
  const graph::Graph topo = topo::build_transmission_graph(d);
  route::TraceParams tp;
  tp.horizon = 4000;
  tp.injections_per_step = 1.0;
  tp.max_schedule_slack = 16;
  tp.num_sources = 4;
  tp.num_destinations = 1;
  const auto trace = route::make_certified_trace(topo, tp, rng);
  const auto params = theorem31_params(trace.opt, 0.25);

  BalancingRouter r(topo.num_nodes(), params, 2);
  route::RunMetrics m;
  const auto costs = costs_of(topo);
  for (route::Time t = 0; t < 8000; ++t) {
    const auto& step = trace.steps[t % trace.horizon()];
    const auto txs = r.plan(topo, step.active, costs);
    r.execute(txs, {}, costs, t, m);
    if (t < trace.horizon())
      for (const auto& inj : step.injections) r.inject(inj.packet, m);
    r.end_step(m);
  }
  // Conservation with the inner router's accounting.
  EXPECT_EQ(m.injected_accepted,
            m.deliveries + r.packets_in_flight() + m.dropped_in_transit);
  EXPECT_GT(m.deliveries, 0U);
  EXPECT_GT(r.control_messages(), 0U);
}

}  // namespace
}  // namespace thetanet::core
