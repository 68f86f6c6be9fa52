// The sustained-load injection engine: deterministic streams, correct
// process shapes (Poisson mean, bursty duty cycle, hotspot/adversarial
// targeting) and the closed-loop window invariant that bounds steady-state
// memory.

#include "routing/injection.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <utility>

#include "geom/rng.h"

namespace thetanet::route {
namespace {

graph::GraphBuilder ring_edges(std::size_t n) {
  graph::GraphBuilder b(n);
  for (graph::NodeId u = 0; u < n; ++u) {
    const auto v = static_cast<graph::NodeId>((u + 1) % n);
    b.add_edge(u, v, 1.0, 1.0);
  }
  return b;
}

graph::Graph ring_graph(std::size_t n) { return ring_edges(n).build(); }

graph::Graph star_plus_ring(std::size_t n, graph::NodeId hub) {
  graph::GraphBuilder b = ring_edges(n);
  for (graph::NodeId v = 0; v < n; ++v)
    if (v != hub && v != (hub + 1) % n && (hub == 0 ? v != n - 1 : true))
      b.add_edge(hub, v, 1.0, 1.0);
  return std::move(b).build();
}

TEST(InjectionEngine, DeterministicStream) {
  const graph::Graph g = ring_graph(32);
  InjectionSpec spec;
  spec.rate = 2.5;
  spec.seed = 7;
  InjectionEngine a(g, spec);
  InjectionEngine b(g, spec);
  RunMetrics m;
  std::vector<Packet> pa, pb;
  for (Time t = 0; t < 500; ++t) {
    a.step(t, m, pa);
    b.step(t, m, pb);
    ASSERT_EQ(pa.size(), pb.size()) << "round " << t;
    for (std::size_t i = 0; i < pa.size(); ++i) {
      EXPECT_EQ(pa[i].id, pb[i].id);
      EXPECT_EQ(pa[i].src, pb[i].src);
      EXPECT_EQ(pa[i].dst, pb[i].dst);
      EXPECT_EQ(pa[i].injected_at, t);
      EXPECT_NE(pa[i].src, pa[i].dst);
    }
  }
  EXPECT_EQ(a.emitted(), b.emitted());
}

TEST(InjectionEngine, PoissonMeanMatchesRate) {
  const graph::Graph g = ring_graph(64);
  InjectionSpec spec;
  spec.rate = 3.0;
  spec.seed = 42;
  InjectionEngine eng(g, spec);
  RunMetrics m;
  std::vector<Packet> out;
  constexpr Time kRounds = 20000;
  for (Time t = 0; t < kRounds; ++t) eng.step(t, m, out);
  const double mean =
      static_cast<double>(eng.emitted()) / static_cast<double>(kRounds);
  EXPECT_NEAR(mean, spec.rate, 0.1);
}

TEST(InjectionEngine, BurstyDutyCycle) {
  const graph::Graph g = ring_graph(32);
  InjectionSpec spec;
  spec.process = InjectionSpec::Process::kBursty;
  spec.rate = 2.0;
  spec.burst_len = 10;
  spec.gap_len = 30;
  spec.burst_multiplier = 4.0;
  spec.seed = 9;
  InjectionEngine eng(g, spec);
  RunMetrics m;
  std::vector<Packet> out;
  std::uint64_t burst_arrivals = 0;
  std::uint64_t burst_rounds = 0;
  for (Time t = 0; t < 8000; ++t) {
    eng.step(t, m, out);
    const bool in_burst = t % (spec.burst_len + spec.gap_len) < spec.burst_len;
    if (in_burst) {
      burst_arrivals += out.size();
      ++burst_rounds;
    } else {
      ASSERT_TRUE(out.empty()) << "round " << t << " is in the gap";
    }
  }
  const double burst_mean = static_cast<double>(burst_arrivals) /
                            static_cast<double>(burst_rounds);
  EXPECT_NEAR(burst_mean, spec.rate * spec.burst_multiplier, 0.8);
}

TEST(InjectionEngine, HotspotTargetsSmallSet) {
  const graph::Graph g = ring_graph(64);
  InjectionSpec spec;
  spec.process = InjectionSpec::Process::kHotspot;
  spec.rate = 4.0;
  spec.num_destinations = 3;
  spec.seed = 5;
  InjectionEngine eng(g, spec);
  RunMetrics m;
  std::vector<Packet> out;
  std::set<DestId> seen;
  for (Time t = 0; t < 2000; ++t) {
    eng.step(t, m, out);
    for (const Packet& p : out) seen.insert(p.dst);
  }
  EXPECT_LE(seen.size(), 3U);
  EXPECT_GE(seen.size(), 2U);  // 2000 rounds at rate 4 hits >= 2 of 3 sinks
}

TEST(InjectionEngine, AdversarialCutConvergecastsOnMaxDegreeNode) {
  constexpr graph::NodeId kHub = 5;
  const graph::Graph g = star_plus_ring(24, kHub);
  InjectionSpec spec;
  spec.process = InjectionSpec::Process::kAdversarialCut;
  spec.rate = 0.1;  // per unit of cut capacity: 0.1 * deg(hub)
  spec.seed = 3;
  InjectionEngine eng(g, spec);
  EXPECT_EQ(eng.hot_target(), kHub);
  RunMetrics m;
  std::vector<Packet> out;
  std::uint64_t arrivals = 0;
  for (Time t = 0; t < 4000; ++t) {
    eng.step(t, m, out);
    for (const Packet& p : out) {
      EXPECT_EQ(p.dst, kHub);
      EXPECT_NE(p.src, kHub);
    }
    arrivals += out.size();
  }
  const double mean = static_cast<double>(arrivals) / 4000.0;
  const double expected = spec.rate * static_cast<double>(g.degree(kHub));
  EXPECT_NEAR(mean, expected, 0.25 * expected);
}

TEST(InjectionEngine, ClosedLoopWindowCapsOutstanding) {
  const graph::Graph g = ring_graph(16);
  InjectionSpec spec;
  spec.rate = 8.0;  // far above what the window admits
  spec.window = 12;
  spec.seed = 1;
  InjectionEngine eng(g, spec);
  RunMetrics m;
  std::vector<Packet> out;
  for (Time t = 0; t < 1000; ++t) {
    eng.step(t, m, out);
    // Pretend every arrival is accepted and nothing ever drains: the engine
    // must stop at the window.
    m.injected_accepted += out.size();
    const std::size_t outstanding =
        m.injected_accepted - m.deliveries - m.dropped_in_transit;
    ASSERT_LE(outstanding, spec.window);
    // Free some capacity and verify the engine refills it.
    if (t == 500) m.deliveries += 6;
  }
  const std::size_t outstanding =
      m.injected_accepted - m.deliveries - m.dropped_in_transit;
  EXPECT_EQ(outstanding, spec.window);  // loop runs pinned at the cap
}

}  // namespace
}  // namespace thetanet::route
