// Unit tests for the paper-guarantee checkers (src/verify/invariants.h):
// each checker passes on a genuine ThetaALG construction and reports a
// structured violation on a corrupted one.

#include <gtest/gtest.h>

#include <sstream>
#include <utility>

#include "core/theta_topology.h"
#include "geom/vec2.h"
#include "interference/model.h"
#include "topology/transmission_graph.h"
#include "verify/conformance.h"
#include "verify/invariants.h"
#include "verify/report.h"
#include "verify/scenario.h"

namespace thetanet {
namespace {

constexpr double kTheta = 0.3490658503988659;  // pi/9

verify::ScenarioSpec uniform_spec(std::size_t n, std::uint64_t seed) {
  verify::ScenarioSpec spec;
  spec.dist = verify::Distribution::kUniform;
  spec.n = n;
  spec.seed = seed;
  return spec;
}

/// A builder holding g's edges except `victim` (kInvalidEdge keeps all).
graph::GraphBuilder edges_of(const graph::Graph& g,
                             graph::EdgeId victim = graph::kInvalidEdge) {
  graph::GraphBuilder out(g.num_nodes());
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e)
    if (e != victim) {
      const graph::Edge& ed = g.edge(e);
      out.add_edge(ed.u, ed.v, ed.length, ed.cost);
    }
  return out;
}

TEST(ThetaInvariantChecker, PassesOnGenuineConstruction) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(32, 5));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  const verify::CheckReport r =
      verify::check_theta_invariants(tt.graph(), d, kTheta, gstar, &tt);
  EXPECT_TRUE(r.pass()) << r.to_string();
  EXPECT_GT(r.checks, 0u);
}

TEST(ThetaInvariantChecker, FlagsDeletedAdmittedEdge) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(32, 5));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  ASSERT_GT(tt.graph().num_edges(), 0u);
  const graph::Graph mutated = edges_of(tt.graph(), 0).build();
  const verify::CheckReport r =
      verify::check_theta_invariants(mutated, d, kTheta, gstar, &tt);
  EXPECT_FALSE(r.pass());
  bool saw_materialized = false;
  for (const verify::Violation& v : r.violations)
    if (v.rule == "phase2/admitted-edge-materialized") saw_materialized = true;
  EXPECT_TRUE(saw_materialized) << r.to_string();
}

TEST(ThetaInvariantChecker, FlagsForeignEdge) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(32, 6));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  // The node farthest from node 0 is out of its range, so G* lacks the
  // edge between them.
  graph::NodeId far = 0;
  for (graph::NodeId v = 1; v < d.size(); ++v)
    if (geom::dist(d.positions[0], d.positions[v]) >
        geom::dist(d.positions[0], d.positions[far]))
      far = v;
  ASSERT_GT(geom::dist(d.positions[0], d.positions[far]), d.max_range);
  ASSERT_FALSE(gstar.has_edge(0, far));
  // The fabricated edge violates range, G*-membership, and the
  // stored-weight consistency rules at once.
  graph::GraphBuilder b = edges_of(tt.graph());
  b.add_edge(0, far, 99.0, 99.0);
  const graph::Graph mutated = std::move(b).build();
  const verify::CheckReport r =
      verify::check_theta_invariants(mutated, d, kTheta, gstar, &tt);
  EXPECT_FALSE(r.pass());
  for (const char* rule :
       {"structure/edge-in-range", "structure/subgraph-of-gstar",
        "structure/edge-length", "structure/edge-cost"}) {
    bool fired = false;
    for (const verify::Violation& v : r.violations) fired |= v.rule == rule;
    EXPECT_TRUE(fired) << rule << " did not fire:\n" << r.to_string();
  }
}

TEST(EnergyStretchChecker, PassesOnGenuineConstruction) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(32, 7));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  const verify::CheckReport r =
      verify::check_energy_stretch(tt.graph(), d, gstar);
  EXPECT_TRUE(r.pass()) << r.to_string();
}

TEST(EnergyStretchChecker, FlagsImpossibleBound) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(32, 7));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  ASSERT_GT(gstar.num_edges(), 0u);
  // True stretch is always >= 1, so a bound of 0.5 must report a violation.
  const verify::CheckReport r =
      verify::check_energy_stretch(tt.graph(), d, gstar, 0.5);
  EXPECT_FALSE(r.pass());
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().rule, "theorem2.2/energy-stretch");
}

TEST(ReplacementReuseChecker, PassesWithinLemmaBound) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(40, 11));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, kTheta);
  const interf::InterferenceModel model{1.0};
  const verify::CheckReport r =
      verify::check_replacement_reuse(tt, gstar, model);
  EXPECT_TRUE(r.pass()) << r.to_string();
}

TEST(ReplacementReuseChecker, FlagsZeroReuseBound) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(24, 11));
  const graph::Graph gstar = topo::build_transmission_graph(d);
  ASSERT_GT(gstar.num_edges(), 0u);
  const core::ThetaTopology tt(d, kTheta);
  const interf::InterferenceModel model{1.0};
  // Any nonempty replacement path uses >= 1 edge, so max_reuse = 0 fails.
  const verify::CheckReport r =
      verify::check_replacement_reuse(tt, gstar, model, 0);
  EXPECT_FALSE(r.pass());
  bool saw_bound = false;
  for (const verify::Violation& v : r.violations)
    if (v.rule == "lemma2.9/reuse-bound") saw_bound = true;
  EXPECT_TRUE(saw_bound) << r.to_string();
}

TEST(InterferenceGrowthChecker, PassesOnLogarithmicSamples) {
  const verify::InterferenceSample samples[] = {
      {64, 10}, {128, 11}, {256, 13}};
  const verify::CheckReport r =
      verify::check_interference_growth(samples, 8.0);
  EXPECT_TRUE(r.pass()) << r.to_string();
}

TEST(InterferenceGrowthChecker, FlagsLinearGrowth) {
  const verify::InterferenceSample samples[] = {
      {64, 10}, {128, 40}, {256, 160}};
  const verify::CheckReport r =
      verify::check_interference_growth(samples, 8.0);
  EXPECT_FALSE(r.pass());
  bool saw_log = false, saw_growth = false;
  for (const verify::Violation& v : r.violations) {
    if (v.rule == "lemma2.10/log-bound") saw_log = true;
    if (v.rule == "lemma2.10/growth") saw_growth = true;
  }
  EXPECT_TRUE(saw_log && saw_growth) << r.to_string();
}

TEST(RouterBoundsChecker, FlagsBrokenConservation) {
  route::AdversaryTrace trace;
  core::BalancingParams params;
  sim::ScenarioResult result;
  result.metrics.injected_offered = 5;
  result.metrics.injected_accepted = 3;
  result.metrics.dropped_at_injection = 1;  // 3 + 1 != 5
  result.metrics.leftover_packets = 3;
  const verify::CheckReport r =
      verify::check_router_bounds(trace, params, result);
  EXPECT_FALSE(r.pass());
  ASSERT_FALSE(r.violations.empty());
  EXPECT_EQ(r.violations.front().rule, "conservation/injection");
}

TEST(Conformance, FullRunPassesOnUniformInstance) {
  const topo::Deployment d =
      verify::build_scenario_deployment(uniform_spec(24, 3));
  const verify::ConformanceReport r =
      verify::run_conformance(d, verify::ConformanceOptions{});
  EXPECT_TRUE(r.pass()) << r.to_string();
  EXPECT_EQ(r.checks.size(), 4u);  // theta, stretch, replacement, router
}

TEST(Conformance, TrivialAndDegenerateInputs) {
  for (const std::size_t n : {0u, 1u}) {
    verify::ScenarioSpec spec = uniform_spec(n, 1);
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    const verify::ConformanceReport r =
        verify::run_conformance(d, verify::ConformanceOptions{});
    EXPECT_TRUE(r.pass()) << r.to_string();
  }
  // All-coincident points: construction must survive, the replacement
  // checker must skip itself, everything else must pass.
  verify::ScenarioSpec spec;
  spec.dist = verify::Distribution::kCoincident;
  spec.n = 8;
  const topo::Deployment d = verify::build_scenario_deployment(spec);
  const verify::ConformanceReport r =
      verify::run_conformance(d, verify::ConformanceOptions{});
  EXPECT_TRUE(r.pass()) << r.to_string();
}

TEST(Conformance, ReportIsDeterministic) {
  const verify::ScenarioSpec spec = uniform_spec(20, 9);
  const topo::Deployment d = verify::build_scenario_deployment(spec);
  verify::ConformanceReport a =
      verify::run_conformance(d, verify::ConformanceOptions{});
  verify::ConformanceReport b =
      verify::run_conformance(d, verify::ConformanceOptions{});
  EXPECT_EQ(a.to_string(), b.to_string());
}

TEST(CorpusCase, RoundTripsThroughStream) {
  verify::CorpusCase c;
  c.name = "uniform-n8-seed3-k2-m0";
  c.seed = 3;
  c.theta = kTheta;
  c.delta = 1.5;
  c.deployment = verify::build_scenario_deployment(uniform_spec(8, 3));
  std::stringstream ss;
  verify::save_corpus_case(ss, c);
  const std::optional<verify::CorpusCase> back =
      verify::load_corpus_case(ss);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->name, c.name);
  EXPECT_EQ(back->seed, c.seed);
  EXPECT_EQ(back->theta, c.theta);
  EXPECT_EQ(back->delta, c.delta);
  ASSERT_EQ(back->deployment.size(), c.deployment.size());
  for (std::size_t i = 0; i < c.deployment.size(); ++i) {
    EXPECT_EQ(back->deployment.positions[i].x, c.deployment.positions[i].x);
    EXPECT_EQ(back->deployment.positions[i].y, c.deployment.positions[i].y);
  }
}

TEST(CorpusCase, RejectsMalformedHeader) {
  std::stringstream ss("conformance v2 name 1\ntheta 0.3 delta 1\n");
  EXPECT_FALSE(verify::load_corpus_case(ss).has_value());
}

}  // namespace
}  // namespace thetanet
