#include "core/balancing_router.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <utility>
#include <vector>

#include "geom/rng.h"
#include "obs/metrics.h"

namespace thetanet::core {
namespace {

using route::Packet;
using route::RunMetrics;

Packet mk(std::uint64_t id, graph::NodeId src, graph::NodeId dst,
          route::Time t = 0) {
  return Packet{id, src, dst, t, 0.0, 0};
}

/// Path graph 0 - 1 - 2 with unit lengths/costs.
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

TEST(BalancingRouter, NoTrafficNoPlan) {
  const graph::Graph g = path3();
  BalancingRouter r(3, {1.0, 0.0, 8});
  const std::vector<graph::EdgeId> active{0, 1};
  EXPECT_TRUE(r.plan(g, active, costs_of(g)).empty());
}

TEST(BalancingRouter, BenefitMustExceedThreshold) {
  const graph::Graph g = path3();
  RunMetrics m;
  // T = 2: two packets queued gives benefit 2 (== T, not >) -> no send.
  BalancingRouter r(3, {2.0, 0.0, 8});
  r.inject(mk(1, 0, 2), m);
  r.inject(mk(2, 0, 2), m);
  const std::vector<graph::EdgeId> active{0};
  EXPECT_TRUE(r.plan(g, active, costs_of(g)).empty());
  // A third packet pushes the difference to 3 > T.
  r.inject(mk(3, 0, 2), m);
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 1U);
  EXPECT_EQ(txs[0].from, 0U);
  EXPECT_EQ(txs[0].to, 1U);
  EXPECT_EQ(txs[0].dest, 2U);
  EXPECT_DOUBLE_EQ(txs[0].benefit, 3.0);
}

TEST(BalancingRouter, GammaPenalizesExpensiveEdges) {
  // Same heights; with gamma > 0 the costlier edge needs a higher gradient.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);   // cheap
  b.add_edge(0, 2, 2.0, 10.0);  // expensive
  const graph::Graph g = std::move(b).build();
  RunMetrics m;
  BalancingRouter r(3, {1.0, 0.5, 16});  // gamma = 0.5
  for (int i = 0; i < 4; ++i) r.inject(mk(static_cast<std::uint64_t>(i), 0, 2), m);
  // Benefit over edge (0,1) towards dest 2: 4 - 0 - 0.5*1 = 3.5 > T.
  // Benefit over edge (0,2): 4 - 0 - 0.5*10 = -1 < T.
  const std::vector<graph::EdgeId> active{0, 1};
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 1U);
  EXPECT_EQ(txs[0].edge, 0U);
  EXPECT_DOUBLE_EQ(txs[0].benefit, 3.5);
}

TEST(BalancingRouter, PicksDestinationWithMaxBenefit) {
  const graph::Graph g = path3();
  RunMetrics m;
  BalancingRouter r(3, {0.5, 0.0, 16});
  r.inject(mk(1, 0, 1), m);
  for (int i = 0; i < 3; ++i) r.inject(mk(static_cast<std::uint64_t>(10 + i), 0, 2), m);
  const std::vector<graph::EdgeId> active{0};
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 1U);
  EXPECT_EQ(txs[0].dest, 2U);  // height 3 beats height 1
}

TEST(BalancingRouter, DirectionWithHigherBenefitWins) {
  const graph::Graph g = path3();
  RunMetrics m;
  BalancingRouter r(3, {0.5, 0.0, 16});
  // 2 packets at node 0 for dest 2; 5 packets at node 1 for dest 0.
  r.inject(mk(1, 0, 2), m);
  r.inject(mk(2, 0, 2), m);
  for (int i = 0; i < 5; ++i) r.inject(mk(static_cast<std::uint64_t>(10 + i), 1, 0), m);
  const std::vector<graph::EdgeId> active{0};
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 1U);
  EXPECT_EQ(txs[0].from, 1U);  // gradient 5 towards node 0
  EXPECT_EQ(txs[0].dest, 0U);
}

TEST(BalancingRouter, ExecuteMovesAndDelivers) {
  const graph::Graph g = path3();
  RunMetrics m;
  BalancingRouter r(3, {0.5, 0.0, 16});
  r.inject(mk(1, 1, 2), m);  // one hop from its destination
  const std::vector<graph::EdgeId> active{1};
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 1U);
  r.execute(txs, {}, costs_of(g), /*now=*/5, m);
  EXPECT_EQ(m.deliveries, 1U);
  EXPECT_EQ(m.total_hops_delivered, 1U);
  EXPECT_DOUBLE_EQ(m.delivered_cost, 1.0);
  EXPECT_EQ(m.sum_latency, 5U);
  EXPECT_EQ(r.packets_in_flight(), 0U);
}

TEST(BalancingRouter, FailedTransmissionKeepsPacketAndWastesEnergy) {
  const graph::Graph g = path3();
  RunMetrics m;
  BalancingRouter r(3, {0.5, 0.0, 16});
  r.inject(mk(1, 1, 2), m);
  const std::vector<graph::EdgeId> active{1};
  const auto txs = r.plan(g, active, costs_of(g));
  const std::vector<bool> failed{true};
  r.execute(txs, failed, costs_of(g), 0, m);
  EXPECT_EQ(m.deliveries, 0U);
  EXPECT_EQ(m.failed_tx, 1U);
  EXPECT_DOUBLE_EQ(m.wasted_energy, 1.0);
  EXPECT_EQ(r.packets_in_flight(), 1U);
  EXPECT_EQ(r.buffers().height(1, 2), 1U);
}

TEST(BalancingRouter, InjectionOverflowIsDeleted) {
  RunMetrics m;
  BalancingRouter r(2, {0.5, 0.0, 2});  // H = 2
  r.inject(mk(1, 0, 1), m);
  r.inject(mk(2, 0, 1), m);
  r.inject(mk(3, 0, 1), m);  // buffer full -> deleted
  EXPECT_EQ(m.injected_offered, 3U);
  EXPECT_EQ(m.injected_accepted, 2U);
  EXPECT_EQ(m.dropped_at_injection, 1U);
}

TEST(BalancingRouter, SkipsWhenEarlierTxDrainedTheBuffer) {
  // Node 0 has one packet but two active edges both plan to move it.
  graph::GraphBuilder b(3);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(0, 2, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  RunMetrics m;
  BalancingRouter r(3, {0.0, 0.0, 16});  // T = 0: any positive gradient sends
  // One packet at node 0 for destination 1. Both active edges see a
  // positive gradient for dest 1 (over (0,2): h(0,1) - h(2,1) = 1 > 0), so
  // both plan to move the same single packet.
  r.inject(mk(1, 0, 1), m);
  const std::vector<graph::EdgeId> active{0, 1};
  const auto txs = r.plan(g, active, costs_of(g));
  ASSERT_EQ(txs.size(), 2U);
  r.execute(txs, {}, costs_of(g), 0, m);
  // One transmission moved the packet (and delivered it at node 1), the
  // other found the buffer empty and was skipped.
  EXPECT_EQ(m.skipped_tx + m.deliveries + m.dropped_in_transit, 2U);
  EXPECT_EQ(m.skipped_tx, 1U);
}

TEST(BalancingRouter, ConservationInvariant) {
  // injected_accepted = deliveries + in-flight + dropped_in_transit.
  const graph::Graph g = path3();
  RunMetrics m;
  BalancingRouter r(3, {0.5, 0.0, 4});
  geom::Rng rng(5);
  std::uint64_t id = 0;
  const auto costs = costs_of(g);
  for (route::Time t = 0; t < 200; ++t) {
    const std::vector<graph::EdgeId> active{0, 1};
    const auto txs = r.plan(g, active, costs);
    r.execute(txs, {}, costs, t, m);
    if (rng.bernoulli(0.7)) {
      const auto src = static_cast<graph::NodeId>(rng.uniform_index(2));
      r.inject(mk(++id, src, 2), m);
    }
    r.end_step(m);
  }
  EXPECT_EQ(m.injected_accepted,
            m.deliveries + r.packets_in_flight() + m.dropped_in_transit);
  EXPECT_GT(m.deliveries, 0U);
  EXPECT_LE(m.peak_buffer, 4U);
}

// --- Candidate edge set (plan_all_edges_into's sparse scan) ---------------

/// n nodes joined by exactly `num_edges` distinct random pairs.
graph::Graph graph_with_edges(std::size_t n, std::size_t num_edges,
                              geom::Rng& rng) {
  std::vector<std::pair<graph::NodeId, graph::NodeId>> pairs;
  for (graph::NodeId u = 0; u < n; ++u)
    for (graph::NodeId v = u + 1; v < n; ++v) pairs.emplace_back(u, v);
  EXPECT_LE(num_edges, pairs.size());
  for (std::size_t i = 0; i < num_edges; ++i)
    std::swap(pairs[i], pairs[i + rng.uniform_index(pairs.size() - i)]);
  graph::GraphBuilder b(n);
  for (std::size_t i = 0; i < num_edges; ++i)
    b.add_edge(pairs[i].first, pairs[i].second, 1.0, 1.0);
  return std::move(b).build();
}

/// The definition, by brute force: every edge with a buffering endpoint,
/// ascending, each once.
std::vector<graph::EdgeId> brute_candidates(const graph::Graph& g,
                                            const route::BufferBank& bank) {
  std::vector<graph::EdgeId> out;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    if (bank.live_destinations(g.edge_u(e)) > 0 ||
        bank.live_destinations(g.edge_v(e)) > 0)
      out.push_back(e);
  return out;
}

/// Empty every buffer of node v.
void drain(BalancingRouter& r, graph::NodeId v) {
  route::BufferBank& bank = r.buffers_for_fault_injection();
  std::vector<route::DestId> dests;
  for (const route::BufferBank::Entry& e : bank.entries(v))
    dests.push_back(e.dest);
  for (const route::DestId d : dests)
    while (bank.pop(v, d)) {
    }
}

/// Drives `rounds` random buffer states through `r` on `g`: each round
/// compares candidate_edges against brute force, then plans and executes
/// (moving packets, emptying some senders), injects a few packets at random
/// nodes and drains whole nodes at random. Returns how many rounds a stale
/// oracle — this round's brute-force set united with the previous round's,
/// the output of a sweep that forgets to clear its bitmap — got wrong.
std::size_t drive_candidates(BalancingRouter& r, const graph::Graph& g,
                             geom::Rng& rng, int rounds) {
  const std::vector<double> costs = costs_of(g);
  const std::size_t n = g.num_nodes();
  std::vector<PlannedTx> txs;
  RunMetrics m;
  std::uint64_t id = 0;
  std::vector<graph::EdgeId> prev;
  std::size_t stale_misses = 0;
  for (int t = 0; t < rounds; ++t) {
    SCOPED_TRACE(t);
    const std::span<const graph::EdgeId> got = r.candidate_edges(g);
    const std::vector<graph::EdgeId> want =
        brute_candidates(g, r.buffers());
    EXPECT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()));
    std::vector<graph::EdgeId> stale;
    std::set_union(want.begin(), want.end(), prev.begin(), prev.end(),
                   std::back_inserter(stale));
    if (stale != want) ++stale_misses;
    prev = want;

    r.plan_all_edges_into(g, costs, txs);
    r.execute(txs, {}, costs, static_cast<route::Time>(t), m);
    const std::size_t injections = rng.uniform_index(2 + n / 4);
    for (std::size_t i = 0; i < injections; ++i) {
      const auto src = static_cast<graph::NodeId>(rng.uniform_index(n));
      const auto dst = static_cast<graph::NodeId>(
          (src + 1 + rng.uniform_index(n - 1)) % n);
      r.inject(mk(++id, src, dst), m);
    }
    for (graph::NodeId v = 0; v < n; ++v)
      if (rng.bernoulli(0.3)) drain(r, v);
    r.end_step(m);
  }
  return stale_misses;
}

TEST(CandidateEdges, EmptyBankHasNoCandidates) {
  geom::Rng rng(3);
  const graph::Graph g = graph_with_edges(16, 65, rng);
  BalancingRouter r(16, {0.5, 0.0, 8});
  EXPECT_TRUE(r.candidate_edges(g).empty());
  RunMetrics m;
  r.inject(mk(1, 3, 9), m);
  EXPECT_FALSE(r.candidate_edges(g).empty());
  drain(r, 3);
  EXPECT_TRUE(r.candidate_edges(g).empty());
}

TEST(CandidateEdges, MatchesBruteForceAcrossWordBoundaries) {
  // 63/64/65 edges straddle the first 64-bit word boundary; ~1000 spans 16
  // words with several candidates per word.
  for (const std::size_t num_edges : {1U, 63U, 64U, 65U, 1000U}) {
    SCOPED_TRACE(num_edges);
    geom::Rng rng(0xc0ffee + num_edges);
    const std::size_t n = num_edges == 1 ? 2 : 48;
    const graph::Graph g = graph_with_edges(n, num_edges, rng);
    BalancingRouter r(n, {0.5, 0.0, 8});
    const std::size_t stale_misses = drive_candidates(r, g, rng, 60);
    // The states must actually drain nodes between rounds: a sweep that
    // kept last round's bits would be caught.
    EXPECT_GT(stale_misses, 0U);
  }
}

TEST(CandidateEdges, RouterReusedAcrossTopologies) {
  // One router, its buffers carried across topology rebuilds with fewer
  // and then more edges (as examples/mobile_convoy reuses its router): the
  // bitmap must follow the current edge count and never report a stale
  // edge.
  geom::Rng rng(77);
  const std::size_t n = 48;
  BalancingRouter r(n, {0.5, 0.0, 8});
  std::size_t stale_misses = 0;
  for (const std::size_t num_edges : {1000U, 65U, 1100U, 64U, 200U}) {
    SCOPED_TRACE(num_edges);
    const graph::Graph g = graph_with_edges(n, num_edges, rng);
    stale_misses += drive_candidates(r, g, rng, 25);
  }
  EXPECT_GT(stale_misses, 0U);
}

TEST(CandidateEdges, FrozenEdgesCountCandidatesThatPlanNothing) {
  obs::set_recording(true);
  geom::Rng rng(9);
  const graph::Graph g = graph_with_edges(48, 400, rng);
  const std::vector<double> costs = costs_of(g);
  RunMetrics m;
  // T above any reachable height (H = 8): every candidate is frozen.
  BalancingRouter frozen(48, {100.0, 0.0, 8});
  // T = 0.5: only candidates that planned nothing count.
  BalancingRouter live(48, {0.5, 0.0, 8});
  for (std::uint64_t id = 1; id <= 120; ++id) {
    const auto src = static_cast<graph::NodeId>(rng.uniform_index(48));
    const auto dst = static_cast<graph::NodeId>((src + 1 + id % 47) % 48);
    frozen.inject(mk(id, src, dst), m);
    live.inject(mk(id, src, dst), m);
  }
  std::vector<PlannedTx> txs;
  obs::MetricsRegistry::global().reset();
  std::uint64_t candidates = 0;
  for (int round = 0; round < 3; ++round) {
    candidates += frozen.candidate_edges(g).size();
    frozen.plan_all_edges_into(g, costs, txs);
    EXPECT_TRUE(txs.empty());
  }
  ASSERT_GT(candidates, 0U);
  EXPECT_EQ(obs::MetricsRegistry::global().counter_value("router.frozen_edges"),
            candidates);

  obs::MetricsRegistry::global().reset();
  const std::size_t live_candidates = live.candidate_edges(g).size();
  live.plan_all_edges_into(g, costs, txs);
  EXPECT_FALSE(txs.empty());
  EXPECT_EQ(obs::MetricsRegistry::global().counter_value("router.frozen_edges"),
            live_candidates - txs.size());
}

TEST(TheoremParams, RecipesMatchFormulas) {
  route::OptStats opt;
  opt.max_buffer = 4;
  opt.avg_path_length = 5.0;
  opt.avg_cost = 2.0;
  const BalancingParams p31 = theorem31_params(opt, 0.5, 2.0);
  EXPECT_DOUBLE_EQ(p31.threshold, 4.0 + 2.0);                 // B + 2(delta-1)
  EXPECT_DOUBLE_EQ(p31.gamma, (6.0 + 4.0 + 2.0) * 5.0 / 2.0); // (T+B+d)L/C
  const BalancingParams p33 = theorem33_params(opt, 0.5);
  EXPECT_DOUBLE_EQ(p33.threshold, 9.0);                       // 2B + 1
  EXPECT_DOUBLE_EQ(p33.gamma, (9.0 + 4.0) * 5.0 / 2.0);
  EXPECT_GT(p33.max_height, opt.max_buffer);
}

}  // namespace
}  // namespace thetanet::core
