#include <gtest/gtest.h>

#include <utility>

#include "graph/connectivity.h"
#include "graph/shortest_paths.h"
#include "routing/baselines.h"
#include "topology/distributions.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"

namespace thetanet::route {
namespace {

/// All edges active every step; injections with trivially valid schedules.
AdversaryTrace all_active_trace(const graph::Graph& topo,
                                std::vector<Injection> injections,
                                Time horizon) {
  AdversaryTrace trace;
  trace.topology = &topo;
  trace.steps.resize(horizon);
  for (Time t = 0; t < horizon; ++t) {
    StepSpec& step = trace.steps.edit(t);
    step.active.resize(topo.num_edges());
    for (graph::EdgeId e = 0; e < topo.num_edges(); ++e) step.active[e] = e;
  }
  for (auto& inj : injections)
    trace.steps.edit(inj.schedule.t0).injections.push_back(std::move(inj));
  trace.opt = replay_schedules(trace);
  return trace;
}

TEST(Gpsr, RecoversFromTheConcaveTrapGreedyDiesIn) {
  // The exact topology of GreedyGeographic.LocalMinimumDropsOnConcaveTopology:
  // node 1 is a cul-de-sac closer to the destination. Pure greedy drops
  // everything there; GPSR's perimeter mode walks around and delivers.
  topo::Deployment d;
  d.positions = {
      {0.0, 0.0},   // 0 source
      {0.4, 0.0},   // 1 cul-de-sac
      {0.0, 0.45},  // 2 detour up
      {0.5, 0.45},  // 3 detour across
      {1.0, 0.1},   // 4 destination
  };
  d.max_range = 0.62;
  d.kappa = 2.0;
  graph::GraphBuilder b(5);
  b.add_edge(0, 1, 0.4, 0.16);
  b.add_edge(0, 2, 0.45, 0.2025);
  b.add_edge(2, 3, 0.5, 0.25);
  b.add_edge(3, 4, 0.61, 0.37);
  const graph::Graph g = std::move(b).build();
  // g is planar (it is a tree) — use it as its own planarization.
  std::vector<Injection> inj;
  for (Time t = 0; t < 10; ++t) {
    Injection i;
    i.packet = Packet{t + 1, 0, 4, t, 0.0, 0};
    i.schedule.t0 = t;
    i.schedule.hops = {{1, static_cast<Time>(40 * t + 1)},
                       {2, static_cast<Time>(40 * t + 2)},
                       {3, static_cast<Time>(40 * t + 3)}};
    inj.push_back(std::move(i));
  }
  const AdversaryTrace trace = all_active_trace(g, std::move(inj), 420);
  const GpsrResult greedy_dead = run_gpsr(trace, d, g, g, 64, 200);
  EXPECT_EQ(greedy_dead.metrics.deliveries, 10U);
  EXPECT_GT(greedy_dead.perimeter_entries, 0U);
  EXPECT_GT(greedy_dead.perimeter_hops, 0U);
  EXPECT_EQ(greedy_dead.local_minimum_drops, 0U);
}

TEST(Gpsr, DeliversEverythingOnRandomGabrielPlanarization) {
  geom::Rng rng(51);
  topo::Deployment d;
  d.positions = topo::uniform_square(80, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const graph::Graph gstar = topo::build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const graph::Graph gabriel = topo::gabriel_graph(d);
  ASSERT_TRUE(graph::is_connected(gabriel));

  std::vector<Injection> inj;
  std::uint64_t id = 1;
  for (Time t = 0; t < 300; t += 3) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(80));
    auto dd = static_cast<graph::NodeId>(rng.uniform_index(79));
    if (dd >= s) ++dd;
    Injection i;
    i.packet = Packet{id++, s, dd, t, 0.0, 0};
    i.schedule.t0 = t;
    // A trivially valid 1-hop-at-a-time schedule is hard to fabricate here;
    // instead make OPT equal the injection count by scheduling over a
    // dedicated fresh slot pattern: use the direct Dijkstra path with
    // widely spaced slots.
    const auto tree = graph::dijkstra(gstar, dd, graph::Weight::kHops);
    if (tree.dist[s] == graph::kUnreachable) continue;
    Time slot = t;
    for (graph::NodeId at = s; at != dd; at = tree.parent[at]) {
      slot += 400;  // huge spacing: conflict-free by construction
      i.schedule.hops.emplace_back(tree.via_edge[at], slot);
    }
    if (i.schedule.hops.empty()) continue;
    inj.push_back(std::move(i));
  }
  const std::size_t expected = inj.size();
  const AdversaryTrace trace =
      all_active_trace(gstar, std::move(inj), 300 + 400 * 40);
  const GpsrResult res = run_gpsr(trace, d, gstar, gabriel, 4096, 4000);
  // GPSR with a connected planar subgraph delivers everything.
  EXPECT_EQ(res.metrics.deliveries, expected);
  EXPECT_EQ(res.local_minimum_drops, 0U);
}

TEST(Gpsr, GreedyOnlyPathsNeverEnterPerimeter) {
  // A straight line towards the destination: greedy suffices everywhere.
  topo::Deployment d;
  for (int i = 0; i < 6; ++i)
    d.positions.push_back({0.2 * static_cast<double>(i), 0.0});
  d.max_range = 0.25;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  std::vector<Injection> inj;
  Injection i;
  i.packet = Packet{1, 0, 5, 0, 0.0, 0};
  i.schedule.t0 = 0;
  for (Time k = 0; k < 5; ++k)
    i.schedule.hops.emplace_back(g.find_edge(static_cast<graph::NodeId>(k),
                                             static_cast<graph::NodeId>(k + 1)),
                                 k + 1);
  inj.push_back(std::move(i));
  const AdversaryTrace trace = all_active_trace(g, std::move(inj), 20);
  const GpsrResult res = run_gpsr(trace, d, g, g, 16, 20);
  EXPECT_EQ(res.metrics.deliveries, 1U);
  EXPECT_EQ(res.perimeter_entries, 0U);
  EXPECT_EQ(res.perimeter_hops, 0U);
}

TEST(Gpsr, UnreachableDestinationIsDroppedNotLooped) {
  // Two components: packets to the far component must be dropped after the
  // face walk completes, not loop forever.
  topo::Deployment d;
  d.positions = {{0, 0}, {0.2, 0}, {0.1, 0.15}, {5, 5}};
  d.max_range = 0.3;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_FALSE(graph::is_connected(g));
  AdversaryTrace trace;
  trace.topology = &g;
  trace.steps.resize(200);
  for (Time t = 0; t < trace.steps.size(); ++t) {
    StepSpec& step = trace.steps.edit(t);
    step.active.resize(g.num_edges());
    for (graph::EdgeId e = 0; e < g.num_edges(); ++e) step.active[e] = e;
  }
  Injection i;
  i.packet = Packet{1, 0, 3, 0, 0.0, 0};
  i.schedule.t0 = 0;
  // Fabricate a (never-replayed) schedule; bypass replay by setting opt
  // manually: this trace exists only to drive the router.
  trace.steps.edit(0).injections.push_back(i);
  trace.opt.deliveries = 1;

  const GpsrResult res = run_gpsr(trace, d, g, g, 16, 0);
  EXPECT_EQ(res.metrics.deliveries, 0U);
  EXPECT_EQ(res.local_minimum_drops, 1U);
  EXPECT_EQ(res.metrics.leftover_packets, 0U);  // not stuck in a loop
}

}  // namespace
}  // namespace thetanet::route
