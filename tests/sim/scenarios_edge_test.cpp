// Edge-case coverage for the scenario drivers: cost-override accounting,
// drain-cycling semantics, a scripted MAC driving sim::Stack, the ratio
// helpers, and tiny-n / degenerate inputs for every conformance scenario
// builder.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "sim/scenarios.h"
#include "sim/stack.h"
#include "verify/conformance.h"
#include "verify/scenario.h"

namespace thetanet::sim {
namespace {

using route::AdversaryTrace;
using route::Injection;
using route::Packet;
using route::StepSpec;
using route::Time;

/// Two-node, one-edge world with a single packet.
struct Tiny {
  graph::Graph g = [] {
    graph::GraphBuilder b(2);
    b.add_edge(0, 1, 1.0, 2.0);  // base cost 2
    return std::move(b).build();
  }();
  AdversaryTrace trace;

  explicit Tiny(Time horizon = 4) {
    trace.topology = &g;
    trace.steps.resize(horizon);
    for (Time t = 0; t < horizon; ++t) trace.steps.edit(t).active = {0};
    Injection inj;
    inj.packet = Packet{1, 0, 1, 0, 0.0, 0};
    inj.schedule.t0 = 0;
    inj.schedule.hops = {{0, 1}};
    trace.steps.edit(0).injections.push_back(inj);
    trace.opt = route::replay_schedules(trace);
  }
};

TEST(ScenarioEdge, CostOverrideIsChargedAndRestored) {
  Tiny w;
  // Override the edge cost to 10 in step 1 (when the packet moves: injected
  // at step 0 end, transmitted at step 1).
  w.trace.steps.edit(1).cost_overrides.push_back({0, 10.0});
  w.trace.opt = route::replay_schedules(w.trace);  // re-audit with override
  const core::BalancingParams params{0.5, 0.0, 8};
  const auto res = run_mac_given(w.trace, params, 0);
  ASSERT_EQ(res.metrics.deliveries, 1U);
  EXPECT_DOUBLE_EQ(res.metrics.delivered_cost, 10.0);  // the override applied
  // OPT replay also uses the override (same step).
  EXPECT_DOUBLE_EQ(res.opt.total_cost, 10.0);
}

TEST(ScenarioEdge, BaseCostUsedWithoutOverride) {
  Tiny w;
  const core::BalancingParams params{0.5, 0.0, 8};
  const auto res = run_mac_given(w.trace, params, 0);
  ASSERT_EQ(res.metrics.deliveries, 1U);
  EXPECT_DOUBLE_EQ(res.metrics.delivered_cost, 2.0);
}

TEST(ScenarioEdge, DrainCyclesTheActivationPattern) {
  // Edge active ONLY in step 1 of a 2-step trace; the packet is injected at
  // the end of step 1, so it can move only during drain steps whose cycled
  // pattern re-activates the edge (odd steps). Delivery therefore requires
  // the drain to cycle activations.
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  AdversaryTrace trace;
  trace.topology = &g;
  trace.steps.resize(2);
  trace.steps.edit(1).active = {0};
  Injection inj;
  inj.packet = Packet{1, 0, 1, 1, 0.0, 0};
  inj.schedule.t0 = 1;
  // No certified schedule needed for this mechanical test; set opt by hand.
  inj.schedule.hops = {};  // replay not invoked
  trace.steps.edit(1).injections.push_back(inj);
  trace.opt.deliveries = 1;

  const core::BalancingParams params{0.5, 0.0, 8};
  const auto blocked = run_mac_given(trace, params, /*extra_drain=*/0);
  EXPECT_EQ(blocked.metrics.deliveries, 0U);
  const auto drained = run_mac_given(trace, params, /*extra_drain=*/4);
  EXPECT_EQ(drained.metrics.deliveries, 1U);
}

/// A scripted self-activating MAC: the edge is usable only on even steps,
/// and every second transmission collides.
struct ScriptedMac {
  mutable Time step = 0;
  mutable int resolve_calls = 0;
  std::vector<graph::EdgeId> activate(geom::Rng&) const {
    return step++ % 2 == 0 ? std::vector<graph::EdgeId>{0}
                           : std::vector<graph::EdgeId>{};
  }
  std::vector<bool> resolve(std::span<const core::PlannedTx> txs) const {
    std::vector<bool> failed(txs.size(), false);
    if (!txs.empty() && (++resolve_calls % 2) == 1) failed[0] = true;
    return failed;
  }
};

TEST(ScenarioEdge, ScriptedMacDrivesTheStack) {
  Tiny w(8);
  const ScriptedMac mac;
  geom::Rng rng(1);
  Stack stack(w.g, core::BalancingRouter(2, {0.5, 0.0, 8}));
  for (Time t = 0; t < w.trace.horizon() + 8; ++t) {
    stack.randomized(mac, rng);
    stack.finish(w.trace);
  }
  EXPECT_EQ(stack.metrics().deliveries, 1U);
  EXPECT_GE(stack.metrics().failed_tx, 1U);  // the first attempt collided
  EXPECT_GT(stack.metrics().wasted_energy, 0.0);
}

TEST(ScenarioEdge, EmptyTraceIsANoOp) {
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  AdversaryTrace trace;
  trace.topology = &g;  // zero steps
  const core::BalancingParams params{0.5, 0.0, 8};
  const auto res = run_mac_given(trace, params, /*extra_drain=*/100);
  EXPECT_EQ(res.metrics.deliveries, 0U);
  EXPECT_EQ(res.metrics.attempted_tx, 0U);
}

TEST(ScenarioEdge, RatioHelpersHandleZeroOpt) {
  ScenarioResult res;
  res.opt = route::OptStats{};  // zero deliveries / cost / buffer
  EXPECT_DOUBLE_EQ(res.throughput_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(res.cost_ratio(), 0.0);
  EXPECT_DOUBLE_EQ(res.buffer_ratio(), 0.0);
}

TEST(ScenarioEdge, MetricsAverageHelpers) {
  route::RunMetrics m;
  EXPECT_DOUBLE_EQ(m.avg_cost_per_delivery(), 0.0);
  EXPECT_DOUBLE_EQ(m.avg_latency(), 0.0);
  EXPECT_DOUBLE_EQ(m.avg_hops(), 0.0);
  m.deliveries = 2;
  m.total_energy = 6.0;
  m.wasted_energy = 2.0;
  m.delivered_cost = 5.0;
  m.sum_latency = 10;
  m.total_hops_delivered = 7;
  EXPECT_DOUBLE_EQ(m.avg_cost_per_delivery(), 4.0);
  EXPECT_DOUBLE_EQ(m.avg_delivered_cost(), 2.5);
  EXPECT_DOUBLE_EQ(m.avg_latency(), 5.0);
  EXPECT_DOUBLE_EQ(m.avg_hops(), 3.5);
}

// --- Tiny-n and degenerate inputs for every scenario builder ----------------
// Every distribution family must be a total function of its spec: n in
// {0, 1, 2} builds exactly n finite points (no assert, no hang), and the
// degenerate all-coincident family survives the full conformance run.

TEST(ScenarioBuilderEdge, TinyNBuildsExactlyNPoints) {
  for (const verify::Distribution dist : verify::kAllDistributions) {
    for (const std::size_t n : {0u, 1u, 2u}) {
      verify::ScenarioSpec spec;
      spec.dist = dist;
      spec.n = n;
      spec.seed = 42 + n;
      const topo::Deployment d = verify::build_scenario_deployment(spec);
      ASSERT_EQ(d.size(), n) << verify::scenario_name(spec);
      EXPECT_GT(d.max_range, 0.0) << verify::scenario_name(spec);
      for (const geom::Vec2 p : d.positions) {
        EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y))
            << verify::scenario_name(spec);
      }
    }
  }
}

TEST(ScenarioBuilderEdge, TinyNPassesConformance) {
  for (const verify::Distribution dist : verify::kAllDistributions) {
    for (const std::size_t n : {0u, 1u, 2u}) {
      verify::ScenarioSpec spec;
      spec.dist = dist;
      spec.n = n;
      spec.seed = 7 + n;
      const topo::Deployment d = verify::build_scenario_deployment(spec);
      const verify::ConformanceReport r =
          verify::run_conformance(d, verify::ConformanceOptions{});
      EXPECT_TRUE(r.pass())
          << verify::scenario_name(spec) << "\n" << r.to_string();
    }
  }
}

TEST(ScenarioBuilderEdge, MobilityStepsKeepTinyNWellFormed) {
  for (const std::size_t n : {0u, 1u, 2u}) {
    verify::ScenarioSpec spec;
    spec.dist = verify::Distribution::kUniform;
    spec.n = n;
    spec.seed = 11;
    spec.mobility_steps = 5;
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    ASSERT_EQ(d.size(), n);
    for (const geom::Vec2 p : d.positions)
      EXPECT_TRUE(std::isfinite(p.x) && std::isfinite(p.y));
  }
}

TEST(ScenarioBuilderEdge, CoincidentFamilySurvivesAllSizes) {
  for (const std::size_t n : {0u, 1u, 2u, 5u, 16u}) {
    verify::ScenarioSpec spec;
    spec.dist = verify::Distribution::kCoincident;
    spec.n = n;
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    ASSERT_EQ(d.size(), n);
    const verify::ConformanceReport r =
        verify::run_conformance(d, verify::ConformanceOptions{});
    EXPECT_TRUE(r.pass()) << "n=" << n << "\n" << r.to_string();
  }
}

}  // namespace
}  // namespace thetanet::sim
