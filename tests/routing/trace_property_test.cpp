// Property suite for the certified adversary across its parameter grid:
// schedule slack is honoured, realized injection volume tracks the nominal
// rate (minus booking rejections), and replay always agrees with the
// generator's own OptStats. The second half checks the sparse step table:
// a trace stores exactly the steps that carry something.

#include <gtest/gtest.h>

#include <tuple>

#include "routing/adversary.h"
#include "routing/anycast.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::route {
namespace {

class TraceProperty
    : public ::testing::TestWithParam<std::tuple<double, Time, bool>> {};

TEST_P(TraceProperty, SlackAndRateAndReplay) {
  const auto [rate, slack, min_cost] = GetParam();
  geom::Rng rng(42);
  topo::Deployment d;
  d.positions = topo::uniform_square(60, 1.0, rng);
  d.max_range = 0.45;
  d.kappa = 2.0;
  const graph::Graph topo = topo::build_transmission_graph(d);

  TraceParams p;
  p.horizon = 600;
  p.injections_per_step = rate;
  p.max_schedule_slack = slack;
  p.route_min_cost = min_cost;
  geom::Rng trace_rng(43);
  const AdversaryTrace trace = make_certified_trace(topo, p, trace_rng);

  // Slack: no hop waits more than slack+1 steps after the previous one.
  std::size_t injections = 0;
  for (const StepSpec& step : trace.steps) {
    for (const Injection& inj : step.injections) {
      ++injections;
      Time prev = inj.schedule.t0;
      for (const auto& [e, t] : inj.schedule.hops) {
        ASSERT_LE(t, prev + 1 + slack);
        prev = t;
      }
    }
  }
  // Rate: realized injections cannot exceed the nominal budget, and unless
  // the network is saturated they land within 50% of it.
  const double nominal = rate * static_cast<double>(p.horizon);
  EXPECT_LE(static_cast<double>(injections), nominal + 3.0 * std::sqrt(nominal) + 1.0);
  if (rate <= 1.0)
    EXPECT_GE(static_cast<double>(injections), 0.5 * nominal);

  // Replay agreement.
  const OptStats replayed = replay_schedules(trace);
  EXPECT_EQ(replayed.deliveries, trace.opt.deliveries);
  EXPECT_EQ(replayed.max_buffer, trace.opt.max_buffer);
  EXPECT_DOUBLE_EQ(replayed.total_cost, trace.opt.total_cost);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, TraceProperty,
    ::testing::Combine(::testing::Values(0.2, 1.0, 4.0),
                       ::testing::Values(Time{4}, Time{32}, Time{128}),
                       ::testing::Bool()));

TEST(TracePools, ExplicitPoolsAreHonoured) {
  geom::Rng rng(44);
  topo::Deployment d;
  d.positions = topo::uniform_square(40, 1.0, rng);
  d.max_range = 0.5;
  d.kappa = 2.0;
  const graph::Graph topo = topo::build_transmission_graph(d);
  TraceParams p;
  p.horizon = 300;
  p.injections_per_step = 1.0;
  p.source_pool = {3, 7, 11};
  p.dest_pool = {20};
  const AdversaryTrace trace = make_certified_trace(topo, p, rng);
  std::size_t count = 0;
  for (const StepSpec& step : trace.steps)
    for (const Injection& inj : step.injections) {
      ++count;
      EXPECT_TRUE(inj.packet.src == 3 || inj.packet.src == 7 ||
                  inj.packet.src == 11);
      EXPECT_EQ(inj.packet.dst, 20U);
    }
  EXPECT_GT(count, 0U);
}

bool carries_something(const StepSpec& step) {
  return !step.injections.empty() || !step.active.empty();
}

/// The table stores exactly the steps with injections or active edges, every
/// other step reads as the one shared empty step, range-for visits every step
/// in t order, and for_each_stored visits exactly the stored ones.
void expect_sparse(const AdversaryTrace& trace) {
  const StepSpec* empty_step = nullptr;
  std::size_t visited = 0, carrying = 0;
  for (const StepSpec& step : trace.steps) {
    ASSERT_EQ(&step, &trace.steps[visited]) << "iteration out of t order";
    ++visited;
    if (carries_something(step)) {
      ++carrying;
      continue;
    }
    EXPECT_TRUE(step.cost_overrides.empty());
    if (empty_step == nullptr) empty_step = &step;
    ASSERT_EQ(&step, empty_step) << "an empty step is stored";
  }
  EXPECT_EQ(visited, trace.steps.size());
  EXPECT_EQ(trace.steps.stored(), carrying);

  std::size_t stored = 0;
  trace.steps.for_each_stored([&](const StepSpec& step) {
    EXPECT_TRUE(carries_something(step));
    ++stored;
  });
  EXPECT_EQ(stored, carrying);
}

graph::Graph sparse_topology(geom::Rng& rng) {
  topo::Deployment d;
  d.positions = topo::uniform_square(60, 1.0, rng);
  d.max_range = 0.45;
  d.kappa = 2.0;
  return topo::build_transmission_graph(d);
}

TEST(SparseSteps, CertifiedTraceStoresOnlyStepsThatCarrySomething) {
  geom::Rng rng(45);
  const graph::Graph topo = sparse_topology(rng);
  TraceParams p;
  p.horizon = 2000;
  p.drain = 1000;
  p.injections_per_step = 0.05;
  p.cost_jitter_pct = 10;
  const AdversaryTrace trace = make_certified_trace(topo, p, rng);
  ASSERT_EQ(trace.steps.size(), 3000U);
  ASSERT_GT(trace.opt.deliveries, 0U);
  EXPECT_LT(trace.steps.stored(), trace.steps.size() / 2);
  expect_sparse(trace);
}

TEST(SparseSteps, AnycastTraceStoresOnlyStepsThatCarrySomething) {
  geom::Rng rng(46);
  const graph::Graph topo = sparse_topology(rng);
  const AnycastGroups groups({{0, 1, 2}, {10, 11}});
  TraceParams p;
  p.horizon = 2000;
  p.drain = 1000;
  p.injections_per_step = 0.05;
  const AdversaryTrace trace = make_anycast_trace(topo, groups, p, rng);
  ASSERT_EQ(trace.steps.size(), 3000U);
  ASSERT_GT(trace.opt.deliveries, 0U);
  EXPECT_LT(trace.steps.stored(), trace.steps.size() / 2);
  expect_sparse(trace);
}

TEST(SparseSteps, MillionStepTraceWithoutInjectionsStoresNoStep) {
  geom::Rng rng(47);
  const graph::Graph topo = sparse_topology(rng);
  TraceParams p;
  p.horizon = 1000000;
  p.injections_per_step = 0.0;
  const AdversaryTrace trace = make_certified_trace(topo, p, rng);
  EXPECT_EQ(trace.steps.size(), 1000000U + p.drain);
  EXPECT_EQ(trace.steps.stored(), 0U);
  EXPECT_EQ(trace.opt.deliveries, 0U);

  const AnycastGroups groups({{0, 1, 2}});
  const AdversaryTrace anycast = make_anycast_trace(topo, groups, p, rng);
  EXPECT_EQ(anycast.steps.size(), 1000000U + p.drain);
  EXPECT_EQ(anycast.steps.stored(), 0U);
  EXPECT_EQ(anycast.opt.deliveries, 0U);
}

TEST(SparseSteps, EditsOutOfOrderAreVisitedInTimeOrder) {
  // Each step activates edge id == t, so the visit order reads back as t.
  StepTable steps;
  steps.resize(10);
  steps.edit(7).active = {7};
  steps.edit(2).active = {2};
  steps.edit(7).active.push_back(70);  // same step, not a second copy
  steps.resize(12);
  steps.edit(11).active = {11};
  EXPECT_EQ(steps.size(), 12U);
  EXPECT_EQ(steps.stored(), 3U);
  EXPECT_EQ(steps[7].active, (std::vector<graph::EdgeId>{7, 70}));
  EXPECT_TRUE(steps[10].active.empty());
  std::vector<graph::EdgeId> visited;
  steps.for_each_stored(
      [&](const StepSpec& step) { visited.push_back(step.active.front()); });
  EXPECT_EQ(visited, (std::vector<graph::EdgeId>{2, 7, 11}));
}

}  // namespace
}  // namespace thetanet::route
