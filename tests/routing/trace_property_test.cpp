// Property suite for the certified adversary across its parameter grid:
// schedule slack is honoured, realized injection volume tracks the nominal
// rate (minus booking rejections), and replay always agrees with the
// generator's own OptStats. The second half checks the sparse step table:
// a trace stores exactly the steps that carry something. The last part pins
// the bytes of a few unicast and anycast traces, perfbench's two trace
// recipes among them, so a refactor of the generator cannot change a trace
// unnoticed.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <map>
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
  if (rate <= 1.0) {
    EXPECT_GE(static_cast<double>(injections), 0.5 * nominal);
  }

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

/// Checks `steps` against `model` through every read path: size() and
/// stored(), steps[t] for every t, range-for (which must hand out the same
/// references as steps[t]) and for_each_stored (the model's steps in t order).
/// A step's content is its active list.
void expect_matches(const StepTable& steps,
                    const std::map<Time, StepSpec>& model, std::size_t size) {
  ASSERT_EQ(steps.size(), size);
  ASSERT_EQ(steps.stored(), model.size());
  for (Time t = 0; t < size; ++t) {
    const auto it = model.find(t);
    const std::vector<graph::EdgeId> expected =
        it == model.end() ? std::vector<graph::EdgeId>{} : it->second.active;
    ASSERT_EQ(steps[t].active, expected) << "t = " << t;
  }
  Time t = 0;
  for (const StepSpec& step : steps) {
    ASSERT_EQ(&step, &steps[t]) << "range-for and steps[t] differ at t = " << t;
    ++t;
  }
  ASSERT_EQ(t, size);
  auto it = model.begin();
  steps.for_each_stored([&](const StepSpec& step) {
    ASSERT_NE(it, model.end()) << "for_each_stored visits too many steps";
    EXPECT_EQ(&step, &steps[it->first]) << "t = " << it->first;
    ++it;
  });
  EXPECT_EQ(it, model.end()) << "for_each_stored visits too few steps";
}

/// Random edits in any order, mixed with appends past the last stored step
/// and with growing resizes, against a std::map model. Every word edge of
/// the table (t = 0, 63, 64, 127, 128, size - 1) is edited in every run.
TEST(SparseSteps, RandomEditsMatchAMapModel) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    SCOPED_TRACE(seed);
    geom::Rng rng(seed);
    StepTable steps;
    std::map<Time, StepSpec> model;
    std::size_t size = 200;
    steps.resize(size);
    std::vector<Time> edges = {0, 63, 64, 127, 128,
                               static_cast<Time>(size - 1)};
    graph::EdgeId next = 0;
    const auto edit = [&](Time t) {
      steps.edit(t).active.push_back(next);
      model[t].active.push_back(next);
      ++next;
    };
    for (int op = 0; op < 400; ++op) {
      const std::uint64_t kind = rng.uniform_index(8);
      if (kind == 0 && size < 1200) {
        size += rng.uniform_index(130);  // may be 0: a resize to the same size
        steps.resize(size);
        edges.push_back(static_cast<Time>(size - 1));
      } else if (kind <= 2 && !edges.empty()) {
        edit(edges.back());
        edges.pop_back();
      } else if (kind <= 4) {  // append: at or past the last stored step
        const Time last = model.empty() ? 0 : model.rbegin()->first;
        edit(static_cast<Time>(last + rng.uniform_index(size - last)));
      } else {
        edit(static_cast<Time>(rng.uniform_index(size)));
      }
      if (op % 40 == 0) expect_matches(steps, model, size);
    }
    for (const Time t : edges) edit(t);
    expect_matches(steps, model, size);
  }
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

// --- Trace fingerprints -------------------------------------------------------

/// FNV-1a over every step (active edges, cost overrides, injections with
/// their schedules), the OptStats, and the next draw of the generator's RNG
/// (so the RNG stream position afterwards is pinned too).
class TraceHash {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(double v) { add(std::bit_cast<std::uint64_t>(v)); }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

std::uint64_t fingerprint(const AdversaryTrace& trace, geom::Rng& rng) {
  TraceHash h;
  h.add(std::uint64_t{trace.steps.size()});
  for (const StepSpec& step : trace.steps) {
    h.add(std::uint64_t{step.active.size()});
    for (const graph::EdgeId e : step.active) h.add(std::uint64_t{e});
    h.add(std::uint64_t{step.cost_overrides.size()});
    for (const auto& [e, c] : step.cost_overrides) {
      h.add(std::uint64_t{e});
      h.add(c);
    }
    h.add(std::uint64_t{step.injections.size()});
    for (const Injection& inj : step.injections) {
      const Packet& p = inj.packet;
      h.add(p.id);
      h.add(std::uint64_t{p.src});
      h.add(std::uint64_t{p.dst});
      h.add(std::uint64_t{p.injected_at});
      h.add(std::uint64_t{inj.schedule.t0});
      h.add(std::uint64_t{inj.schedule.hops.size()});
      for (const auto& [e, t] : inj.schedule.hops) {
        h.add(std::uint64_t{e});
        h.add(std::uint64_t{t});
      }
    }
  }
  const OptStats& o = trace.opt;
  h.add(std::uint64_t{o.deliveries});
  h.add(o.total_cost);
  h.add(o.avg_cost);
  h.add(o.avg_path_length);
  h.add(std::uint64_t{o.max_buffer});
  h.add(std::uint64_t{o.makespan});
  h.add(rng());
  return h.value();
}

graph::Graph fingerprint_topology(std::uint64_t seed) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(60, 1.0, rng);
  d.max_range = 0.4;
  d.kappa = 2.0;
  return topo::build_transmission_graph(d);
}

std::uint64_t unicast_fingerprint(const TraceParams& p, std::uint64_t seed) {
  const graph::Graph topo = fingerprint_topology(seed);
  geom::Rng rng(seed + 1);
  const AdversaryTrace trace = make_certified_trace(topo, p, rng);
  EXPECT_GT(trace.opt.deliveries, 0U);
  return fingerprint(trace, rng);
}

std::uint64_t anycast_fingerprint(const AnycastGroups& groups,
                                  const TraceParams& p, std::uint64_t seed) {
  const graph::Graph topo = fingerprint_topology(seed);
  geom::Rng rng(seed + 1);
  const AdversaryTrace trace = make_anycast_trace(topo, groups, p, rng);
  EXPECT_GT(trace.opt.deliveries, 0U);
  return fingerprint(trace, rng);
}

TraceParams short_trace() {
  TraceParams p;
  p.horizon = 256;
  p.drain = 256;
  return p;
}

TEST(TraceFingerprint, UnicastDefaults) {
  EXPECT_EQ(unicast_fingerprint(short_trace(), 101), 0xffac8117c28a21faULL);
}

TEST(TraceFingerprint, UnicastJitterWithNoiseEdges) {
  TraceParams p = short_trace();
  p.cost_jitter_pct = 10;
  p.extra_active_fraction = 0.05;
  EXPECT_EQ(unicast_fingerprint(p, 102), 0x333f74973f729df3ULL);
}

TEST(TraceFingerprint, UnicastMinHopWithPools) {
  TraceParams p = short_trace();
  p.route_min_cost = false;
  p.num_sources = 8;
  p.num_destinations = 3;
  EXPECT_EQ(unicast_fingerprint(p, 103), 0xa6d52aa848db7419ULL);
}

TEST(TraceFingerprint, UnicastTightSlack) {
  TraceParams p = short_trace();
  p.injections_per_step = 4.0;
  p.max_schedule_slack = 2;
  EXPECT_EQ(unicast_fingerprint(p, 104), 0x3fadbf033081e576ULL);
}

/// A fractional rate: one fixed attempt per step plus a Bernoulli(0.5)
/// second one.
TEST(TraceFingerprint, UnicastFractionalRate) {
  TraceParams p = short_trace();
  p.injections_per_step = 1.5;
  EXPECT_EQ(unicast_fingerprint(p, 109), 0x7d287148431e699bULL);
}

TEST(TraceFingerprint, AnycastTwoGroups) {
  EXPECT_EQ(anycast_fingerprint(AnycastGroups({{0, 1, 2}, {30, 31}}),
                                short_trace(), 105),
            0x7fbaff06d244458cULL);
}

TEST(TraceFingerprint, AnycastThreeGroupsMinHopWithSourcePool) {
  TraceParams p = short_trace();
  p.route_min_cost = false;
  p.num_sources = 12;
  p.max_schedule_slack = 4;
  EXPECT_EQ(anycast_fingerprint(AnycastGroups({{5}, {17, 40}, {50, 51, 52}}),
                                p, 106),
            0x67cecc2936caff85ULL);
}

/// perfbench's `stack_mac` recipe on the fingerprint field: a long, sparse
/// min-cost trace from four pinned sources to one pinned sink.
TEST(TraceFingerprint, StackMacShape) {
  TraceParams p;
  p.horizon = 500000;
  p.injections_per_step = 0.004;
  p.max_schedule_slack = 50;
  p.dest_pool = {7};
  p.source_pool = {12, 25, 38, 51};
  EXPECT_EQ(unicast_fingerprint(p, 107), 0x831b4a9494df3f5aULL);
}

/// perfbench's `stack_honeycomb` recipe on the fingerprint field: min-hop
/// schedules from four pinned sources to one pinned sink.
TEST(TraceFingerprint, StackHoneycombShape) {
  TraceParams p;
  p.horizon = 100000;
  p.injections_per_step = 0.05;
  p.max_schedule_slack = 100;
  p.route_min_cost = false;
  p.dest_pool = {30};
  p.source_pool = {2, 19, 44, 57};
  EXPECT_EQ(unicast_fingerprint(p, 108), 0xc5b4e6d808eae3deULL);
}

}  // namespace
}  // namespace thetanet::route
