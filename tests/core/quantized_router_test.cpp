#include "core/quantized_router.h"

#include <gtest/gtest.h>

#include <utility>

#include "routing/adversary.h"
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
  QuantizedHeightRouter r(3, {0.5, 0.0, 16}, 1);
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
  QuantizedHeightRouter r(3, {10.0, 0.0, 64}, 4);
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
  QuantizedHeightRouter r(3, {0.5, 0.0, 16}, 1);
  route::RunMetrics m;
  EXPECT_EQ(r.control_bytes(), 0U);
  r.inject(mk(1, 0, 2), m);
  r.end_step(m);
  // One advertisement (header, dest, height).
  EXPECT_EQ(r.control_bytes(), QuantizedHeightRouter::kAdvertiseBytes);
  r.inject(mk(2, 0, 2), m);
  r.end_step(m);
  EXPECT_EQ(r.control_bytes(), 2 * QuantizedHeightRouter::kAdvertiseBytes);
  r.end_step(m);  // no drift, no bytes
  EXPECT_EQ(r.control_bytes(), 2 * QuantizedHeightRouter::kAdvertiseBytes);
}

TEST(QuantizedRouter, RetirementCostsRetireBytes) {
  // Single edge so the one packet cannot oscillate: 0 -> 1 is a delivery.
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  const auto costs = costs_of(g);
  QuantizedHeightRouter r(2, {0.5, 0.0, 16}, 1);
  route::RunMetrics m;
  r.inject(mk(1, 0, 1), m);
  r.end_step(m);  // advertise Q_{0,1} = 1
  const std::uint64_t after_adv = r.control_bytes();
  EXPECT_EQ(after_adv, QuantizedHeightRouter::kAdvertiseBytes);
  std::vector<PlannedTx> txs;
  const std::vector<graph::EdgeId> all{0};
  r.plan_into(g, all, costs, txs);
  ASSERT_EQ(txs.size(), 1U);
  r.execute(txs, {}, costs, 0, m);
  r.end_step(m);  // drained buffer: the advertisement is retired
  EXPECT_EQ(m.deliveries, 1U);
  EXPECT_EQ(r.control_messages(), 2U);  // one advertise + one retire
  EXPECT_EQ(r.control_bytes(), QuantizedHeightRouter::kAdvertiseBytes +
                                   QuantizedHeightRouter::kRetireBytes);
}

TEST(QuantizedRouter, PlanUsesStaleRemoteHeights) {
  const graph::Graph g = path3();
  // Quantum 8: node 1's height never gets advertised at these volumes.
  QuantizedHeightRouter r(3, {0.5, 0.0, 64}, 8);
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
  QuantizedHeightRouter r(3, {0.0, 0.0, 16}, 1);
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

  QuantizedHeightRouter r(topo.num_nodes(), params, 2);
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
