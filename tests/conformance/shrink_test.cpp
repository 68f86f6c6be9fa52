// The acceptance tests for the shrinkers: a deliberately buggy topology
// mutator (drops the longest edge of N before auditing) makes every
// non-trivial instance fail conformance, and the greedy node-removal shrink
// must reduce a 40-node failing instance to a minimal reproducer of at most
// 12 nodes (in practice: 2). The temporal variant plants the stale-wake
// maintainer bug and must ddmin a churn scenario down along both dimensions:
// at most 12 nodes AND at most 8 events.

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <utility>
#include <vector>

#include "verify/conformance.h"
#include "verify/scenario.h"

namespace thetanet {
namespace {

/// The injected bug: audit a copy of N with its longest edge removed.
void drop_longest_edge(graph::Graph& g, const topo::Deployment& d) {
  (void)d;
  if (g.num_edges() == 0) return;
  graph::EdgeId longest = 0;
  for (graph::EdgeId e = 1; e < static_cast<graph::EdgeId>(g.num_edges()); ++e)
    if (g.edge(e).length > g.edge(longest).length) longest = e;
  graph::GraphBuilder out(g.num_nodes());
  for (graph::EdgeId e = 0; e < static_cast<graph::EdgeId>(g.num_edges()); ++e)
    if (e != longest) {
      const graph::Edge& ed = g.edge(e);
      out.add_edge(ed.u, ed.v, ed.length, ed.cost);
    }
  g = std::move(out).build();
}

verify::ConformanceOptions fast_options() {
  verify::ConformanceOptions opt;
  // The theta-invariant checker alone detects the mutation; skipping the
  // heavier checkers keeps each shrink evaluation cheap.
  opt.run_stretch = false;
  opt.run_replacement = false;
  opt.run_router = false;
  return opt;
}

TEST(Shrinker, ReducesInjectedBugToMinimalReproducer) {
  verify::ScenarioSpec spec;
  spec.dist = verify::Distribution::kUniform;
  spec.n = 40;
  spec.seed = 17;
  const topo::Deployment d = verify::build_scenario_deployment(spec);
  const verify::ConformanceOptions opt = fast_options();

  const verify::ConformanceReport full =
      verify::run_conformance(d, opt, drop_longest_edge);
  ASSERT_FALSE(full.pass());

  const verify::ShrinkResult shrunk =
      verify::shrink_deployment(d, opt, drop_longest_edge);
  EXPECT_FALSE(shrunk.report.pass());
  EXPECT_LE(shrunk.reproducer.size(), 12u);
  EXPECT_GE(shrunk.reproducer.size(), 2u);
  EXPECT_GT(shrunk.evaluations, 1u);
  // Pinned: the exact shrink path of this seed.
  EXPECT_EQ(shrunk.reproducer.size(), 2u);
  EXPECT_EQ(shrunk.evaluations, 14u);

  // The reproducer must fail standalone, not only within the shrink loop.
  const verify::ConformanceReport again =
      verify::run_conformance(shrunk.reproducer, opt, drop_longest_edge);
  EXPECT_FALSE(again.pass());
}

TEST(Shrinker, ShrunkCaseSurvivesCorpusRoundTrip) {
  verify::ScenarioSpec spec;
  spec.dist = verify::Distribution::kUniform;
  spec.n = 24;
  spec.seed = 23;
  const topo::Deployment d = verify::build_scenario_deployment(spec);
  const verify::ConformanceOptions opt = fast_options();
  const verify::ShrinkResult shrunk =
      verify::shrink_deployment(d, opt, drop_longest_edge);
  // Pinned: the exact shrink path of this seed.
  EXPECT_EQ(shrunk.reproducer.size(), 2u);
  EXPECT_EQ(shrunk.evaluations, 9u);

  verify::CorpusCase c;
  c.name = "shrink-roundtrip";
  c.seed = spec.seed;
  c.theta = opt.theta;
  c.delta = opt.delta;
  c.deployment = shrunk.reproducer;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "shrunk.case").string();
  ASSERT_TRUE(verify::save_corpus_case(path, c));
  const std::optional<verify::CorpusCase> back =
      verify::load_corpus_case(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->deployment.size(), shrunk.reproducer.size());
  // Replaying the loaded case against the same mutator still fails — the
  // reproducer is faithful after serialization.
  const verify::ConformanceReport replay =
      verify::run_conformance(back->deployment, opt, drop_longest_edge);
  EXPECT_FALSE(replay.pass());
}

// --- Temporal (churn) shrinking ---------------------------------------------

verify::ChurnOptions buggy_churn_options(std::uint64_t seed) {
  verify::ChurnOptions opt;
  opt.checks = fast_options();
  opt.checks.trace_seed = seed;
  opt.dynamics_seed = seed;
  // The planted maintenance bug: wakes skip neighbour-row recomputes, so
  // sleep/wake pairs leave stale sector tables behind.
  opt.dynamics.test_skip_wake_neighbor_recompute = true;
  return opt;
}

TEST(ChurnShrinker, PlantedWakeBugReducesToTinyScenario) {
  // A 24-node scenario with a generous schedule: the mutation test of the
  // temporal harness. The 2-D ddmin must land at <= 12 nodes and <= 8
  // events (in practice far fewer — one sleep/wake pair on a bad geometry).
  verify::ChurnSpec spec;
  spec.base.dist = verify::Distribution::kUniform;
  spec.base.n = 24;
  spec.base.seed = 33;
  spec.rounds = 12;
  spec.events_per_round = 2.0;
  const topo::Deployment d = verify::build_scenario_deployment(spec.base);
  const std::vector<sim::DynEvent> schedule =
      verify::build_churn_schedule(spec, d.size());
  const verify::ChurnOptions opt = buggy_churn_options(spec.base.seed);

  const verify::ConformanceReport full =
      verify::run_churn_conformance(d, schedule, opt);
  ASSERT_FALSE(full.pass());

  const verify::ChurnShrinkResult shrunk =
      verify::shrink_churn(d, schedule, opt);
  EXPECT_FALSE(shrunk.report.pass());
  EXPECT_LE(shrunk.reproducer.size(), 12u);
  EXPECT_LE(shrunk.events.size(), 8u);
  EXPECT_GT(shrunk.evaluations, 1u);
  // Pinned: the exact shrink path of this seed.
  EXPECT_EQ(shrunk.reproducer.size(), 3u);
  EXPECT_EQ(shrunk.events.size(), 2u);
  EXPECT_EQ(shrunk.evaluations, 50u);

  // The reproducer must fail standalone, not only within the shrink loop.
  const verify::ConformanceReport again =
      verify::run_churn_conformance(shrunk.reproducer, shrunk.events, opt);
  EXPECT_FALSE(again.pass());

  // And the same deployment + schedule with a HEALTHY maintainer passes —
  // the failure is the planted bug, not the scenario.
  verify::ChurnOptions healthy = opt;
  healthy.dynamics.test_skip_wake_neighbor_recompute = false;
  EXPECT_TRUE(
      verify::run_churn_conformance(shrunk.reproducer, shrunk.events, healthy)
          .pass());
}

/// The deterministic stale-wake trigger (same geometry as the maintainer
/// unit test): v and w share u's theta-sector with v nearer, while u and v
/// fall in different sectors seen from w — so after a buggy wake of v, u's
/// stale selection of w survives phase-2 admission as an extra edge.
topo::Deployment stale_wake_geometry(std::size_t decoys) {
  topo::Deployment d;
  d.positions = {{0.1, 0.1}, {0.29924, 0.11743}, {0.58296, 0.22941}};
  for (std::size_t i = 0; i < decoys; ++i)
    d.positions.push_back(
        {0.1 + 0.07 * static_cast<double>(i), 0.9});  // far from the trio
  d.max_range = 0.7;
  d.kappa = 2.0;
  return d;
}

TEST(ChurnShrinker, TemporalCaseSurvivesCorpusRoundTrip) {
  const topo::Deployment d = stale_wake_geometry(9);
  std::vector<sim::DynEvent> schedule;
  const auto push = [&schedule](std::uint32_t round, sim::DynEventKind kind,
                                graph::NodeId node) {
    sim::DynEvent e;
    e.round = round;
    e.kind = kind;
    e.node = node;
    schedule.push_back(e);
  };
  push(0, sim::DynEventKind::kSleep, 5);  // decoy churn
  push(0, sim::DynEventKind::kSleep, 1);  // the trigger pair...
  push(1, sim::DynEventKind::kWake, 5);
  push(1, sim::DynEventKind::kWake, 1);  // ...buggy wake -> stale tables
  push(2, sim::DynEventKind::kSleep, 7);
  push(3, sim::DynEventKind::kWake, 7);
  const verify::ChurnOptions opt = buggy_churn_options(37);
  ASSERT_FALSE(verify::run_churn_conformance(d, schedule, opt).pass());
  const verify::ChurnShrinkResult shrunk =
      verify::shrink_churn(d, schedule, opt);
  // Pinned: the exact shrink path of this schedule.
  EXPECT_EQ(shrunk.reproducer.size(), 3u);
  EXPECT_EQ(shrunk.events.size(), 2u);
  EXPECT_EQ(shrunk.evaluations, 23u);

  verify::CorpusCase c;
  c.name = "churn-shrink-roundtrip";
  c.seed = 37;
  c.theta = opt.checks.theta;
  c.delta = opt.checks.delta;
  c.deployment = shrunk.reproducer;
  c.events = shrunk.events;
  c.dynamics_seed = opt.dynamics_seed;
  c.rounds = 4;
  const std::string path =
      (std::filesystem::path(::testing::TempDir()) / "churn_shrunk.case")
          .string();
  ASSERT_TRUE(verify::save_corpus_case(path, c));
  const std::optional<verify::CorpusCase> back =
      verify::load_corpus_case(path);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->deployment.size(), shrunk.reproducer.size());
  ASSERT_EQ(back->events.size(), shrunk.events.size());
  for (std::size_t i = 0; i < back->events.size(); ++i) {
    EXPECT_EQ(back->events[i].round, shrunk.events[i].round);
    EXPECT_EQ(back->events[i].kind, shrunk.events[i].kind);
    EXPECT_EQ(back->events[i].node, shrunk.events[i].node);
    EXPECT_EQ(back->events[i].pos.x, shrunk.events[i].pos.x);
    EXPECT_EQ(back->events[i].pos.y, shrunk.events[i].pos.y);
    EXPECT_EQ(back->events[i].radius, shrunk.events[i].radius);
  }
  EXPECT_EQ(back->dynamics_seed, opt.dynamics_seed);
  EXPECT_EQ(back->rounds, 4u);
  // Replaying the loaded case against the planted bug still fails — the
  // temporal reproducer is faithful after serialization.
  const verify::ConformanceReport replay =
      verify::run_churn_conformance(back->deployment, back->events, opt);
  EXPECT_FALSE(replay.pass());
}

TEST(ChurnShrinker, EventFreeCaseStaysFormatV1) {
  // The corpus version bump is opt-in: cases without events must serialize
  // exactly as before, keeping the committed v1 corpus byte-stable.
  verify::CorpusCase c;
  c.name = "static-case";
  c.seed = 7;
  c.deployment.positions = {{0.25, 0.5}, {0.75, 0.5}};
  c.deployment.max_range = 1.0;
  std::ostringstream os;
  verify::save_corpus_case(os, c);
  EXPECT_EQ(os.str().substr(0, 15), "conformance v1 ");
  EXPECT_EQ(os.str().find("dynamics"), std::string::npos);
  EXPECT_EQ(os.str().find("events"), std::string::npos);
}

TEST(Shrinker, RequiresNoShrinkWhenAlreadyMinimal) {
  // A 2-node in-range instance is already minimal: the mutator deletes its
  // only edge, conformance fails, and shrinking cannot remove anything.
  topo::Deployment d;
  d.positions = {{0.25, 0.5}, {0.75, 0.5}};
  d.max_range = 1.0;
  const verify::ConformanceOptions opt = fast_options();
  const verify::ShrinkResult shrunk =
      verify::shrink_deployment(d, opt, drop_longest_edge);
  EXPECT_EQ(shrunk.reproducer.size(), 2u);
  EXPECT_EQ(shrunk.evaluations, 3u);
  EXPECT_FALSE(shrunk.report.pass());
}

}  // namespace
}  // namespace thetanet
