// Oracle equivalence for the SoA routing hot path: the production
// BalancingRouter (dense plan, sparse active-node plan, large edge scans,
// packets moved by pool slot) must plan the exact same transmissions, round
// for round, and account the same metrics as the brute-force map-based
// ReferenceRouter — across workloads, gamma settings, MAC collisions,
// in-transit drops and TN_NUM_THREADS in {1, 2, 4}.

#include <gtest/gtest.h>

#include <string_view>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/balancing_router.h"
#include "geom/rng.h"
#include "routing/injection.h"
#include "routing/reference_router.h"

namespace thetanet::core {
namespace {

graph::Graph random_graph(std::size_t n, double p, geom::Rng& rng) {
  graph::GraphBuilder b(n);
  for (graph::NodeId u = 0; u < n; ++u)
    for (graph::NodeId v = u + 1; v < n; ++v)
      if (rng.bernoulli(p)) {
        const double len = rng.uniform(0.1, 1.0);
        b.add_edge(u, v, len, len * len);
      }
  return std::move(b).build();
}

std::vector<double> costs_of(const graph::Graph& g) {
  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;
  return costs;
}

struct Workload {
  const char* name;
  route::InjectionSpec spec;
  BalancingParams params;
};

struct FastResult {
  std::vector<PlannedTx> txs;  // concatenated over all rounds
  route::RunMetrics m;
};

/// Random MAC collision flags: each planned transmission fails with
/// probability p, drawn from `rng` (no draws when p = 0). Both routers see
/// the same flags as long as they plan the same transmissions.
void draw_collisions(std::size_t num_txs, double p, geom::Rng& rng,
                     std::vector<bool>& failed) {
  failed.clear();
  if (p == 0.0) return;
  for (std::size_t i = 0; i < num_txs; ++i) failed.push_back(rng.bernoulli(p));
}

FastResult run_fast(const graph::Graph& g, std::span<const double> costs,
                    const Workload& w, route::Time rounds, bool sparse,
                    double collision_p = 0.0) {
  BalancingRouter router(g.num_nodes(), w.params);
  route::InjectionEngine engine(g, w.spec);
  FastResult r;
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
  std::vector<PlannedTx> txs;
  std::vector<route::Packet> arrivals;
  geom::Rng mac(0xc011);
  std::vector<bool> failed;
  for (route::Time t = 0; t < rounds; ++t) {
    if (sparse) {
      router.plan_all_edges_into(g, costs, txs);
    } else {
      router.plan_into(g, all, costs, txs);
    }
    draw_collisions(txs.size(), collision_p, mac, failed);
    router.execute(txs, failed, costs, t, r.m);
    engine.step(t, r.m, arrivals);
    for (const route::Packet& p : arrivals) router.inject(p, r.m);
    router.end_step(r.m);
    r.txs.insert(r.txs.end(), txs.begin(), txs.end());
  }
  r.m.leftover_packets = router.packets_in_flight();
  return r;
}

struct RefResult {
  std::vector<route::ReferenceTx> txs;
  route::RunMetrics m;
};

RefResult run_reference(const graph::Graph& g, std::span<const double> costs,
                        const Workload& w, route::Time rounds,
                        double collision_p = 0.0) {
  route::ReferenceRouter router(g.num_nodes(), w.params.threshold,
                                w.params.gamma, w.params.max_height);
  route::InjectionEngine engine(g, w.spec);
  RefResult r;
  std::vector<graph::EdgeId> all(g.num_edges());
  for (graph::EdgeId e = 0; e < all.size(); ++e) all[e] = e;
  std::vector<route::Packet> arrivals;
  geom::Rng mac(0xc011);
  std::vector<bool> failed;
  for (route::Time t = 0; t < rounds; ++t) {
    const std::vector<route::ReferenceTx> txs = router.plan(g, all, costs);
    draw_collisions(txs.size(), collision_p, mac, failed);
    router.execute(txs, failed, costs, t, r.m);
    engine.step(t, r.m, arrivals);
    for (const route::Packet& p : arrivals) router.inject(p, r.m);
    router.end_step(r.m);
    r.txs.insert(r.txs.end(), txs.begin(), txs.end());
  }
  r.m.leftover_packets = router.packets_in_flight();
  return r;
}

void expect_same_plan(const std::vector<route::ReferenceTx>& ref,
                      const std::vector<PlannedTx>& fast) {
  ASSERT_EQ(ref.size(), fast.size());
  for (std::size_t i = 0; i < ref.size(); ++i) {
    EXPECT_EQ(ref[i].edge, fast[i].edge) << "tx " << i;
    EXPECT_EQ(ref[i].from, fast[i].from) << "tx " << i;
    EXPECT_EQ(ref[i].to, fast[i].to) << "tx " << i;
    EXPECT_EQ(ref[i].dest, fast[i].dest) << "tx " << i;
    EXPECT_EQ(ref[i].benefit, fast[i].benefit) << "tx " << i;  // bit-exact
  }
}

void expect_identical(const FastResult& a, const FastResult& b) {
  ASSERT_EQ(a.txs.size(), b.txs.size());
  for (std::size_t i = 0; i < a.txs.size(); ++i) {
    EXPECT_EQ(a.txs[i].edge, b.txs[i].edge) << "tx " << i;
    EXPECT_EQ(a.txs[i].from, b.txs[i].from) << "tx " << i;
    EXPECT_EQ(a.txs[i].dest, b.txs[i].dest) << "tx " << i;
    EXPECT_EQ(a.txs[i].benefit, b.txs[i].benefit) << "tx " << i;
  }
  EXPECT_EQ(a.m.deliveries, b.m.deliveries);
  EXPECT_EQ(a.m.attempted_tx, b.m.attempted_tx);
  EXPECT_EQ(a.m.injected_accepted, b.m.injected_accepted);
  EXPECT_EQ(a.m.leftover_packets, b.m.leftover_packets);
  EXPECT_EQ(a.m.peak_buffer, b.m.peak_buffer);
  EXPECT_EQ(a.m.total_energy, b.m.total_energy);  // same accumulation order
}

void expect_same_metrics(const route::RunMetrics& ref,
                         const route::RunMetrics& fast) {
  EXPECT_EQ(ref.injected_offered, fast.injected_offered);
  EXPECT_EQ(ref.injected_accepted, fast.injected_accepted);
  EXPECT_EQ(ref.dropped_at_injection, fast.dropped_at_injection);
  EXPECT_EQ(ref.deliveries, fast.deliveries);
  EXPECT_EQ(ref.total_hops_delivered, fast.total_hops_delivered);
  EXPECT_EQ(ref.sum_latency, fast.sum_latency);
  EXPECT_EQ(ref.delivered_cost, fast.delivered_cost);
  EXPECT_EQ(ref.total_energy, fast.total_energy);
  EXPECT_EQ(ref.wasted_energy, fast.wasted_energy);
  EXPECT_EQ(ref.attempted_tx, fast.attempted_tx);
  EXPECT_EQ(ref.failed_tx, fast.failed_tx);
  EXPECT_EQ(ref.skipped_tx, fast.skipped_tx);
  EXPECT_EQ(ref.dropped_in_transit, fast.dropped_in_transit);
  EXPECT_EQ(ref.peak_buffer, fast.peak_buffer);
  EXPECT_EQ(ref.leftover_packets, fast.leftover_packets);
}

std::vector<Workload> workloads() {
  std::vector<Workload> ws;
  {
    Workload w{"poisson", {}, {0.5, 0.0, 8}};
    w.spec.process = route::InjectionSpec::Process::kPoisson;
    w.spec.rate = 3.0;
    w.spec.seed = 11;
    ws.push_back(w);
  }
  {
    Workload w{"hotspot_gamma", {}, {1.0, 0.8, 6}};
    w.spec.process = route::InjectionSpec::Process::kHotspot;
    w.spec.rate = 4.0;
    w.spec.num_destinations = 3;
    w.spec.seed = 12;
    ws.push_back(w);
  }
  {
    Workload w{"bursty_closed", {}, {0.5, 0.2, 4}};
    w.spec.process = route::InjectionSpec::Process::kBursty;
    w.spec.rate = 2.0;
    w.spec.burst_len = 16;
    w.spec.gap_len = 48;
    w.spec.window = 64;
    w.spec.seed = 13;
    ws.push_back(w);
  }
  {
    Workload w{"adversarial", {}, {1.0, 0.0, 8}};
    w.spec.process = route::InjectionSpec::Process::kAdversarialCut;
    w.spec.rate = 0.4;
    w.spec.seed = 14;
    ws.push_back(w);
  }
  return ws;
}

TEST(RouterEquivalence, SmallGraphOracleAndThreads) {
  geom::Rng rng(0x5eed);
  const graph::Graph g = random_graph(48, 0.25, rng);
  const std::vector<double> costs = costs_of(g);
  constexpr route::Time kRounds = 300;
  const int saved = tn::num_threads();
  for (const Workload& w : workloads()) {
    SCOPED_TRACE(w.name);
    const RefResult ref = run_reference(g, costs, w, kRounds);
    FastResult base;
    bool have_base = false;
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(threads);
      tn::set_num_threads(threads);
      const FastResult dense = run_fast(g, costs, w, kRounds, false);
      const FastResult sparse = run_fast(g, costs, w, kRounds, true);
      expect_same_plan(ref.txs, dense.txs);
      expect_same_metrics(ref.m, dense.m);
      expect_identical(dense, sparse);
      if (!have_base) {
        base = dense;
        have_base = true;
      } else {
        expect_identical(base, dense);
      }
    }
  }
  tn::set_num_threads(saved);
}

// A large scan (>= 4096 active edges): the plan must match the oracle and
// must not depend on TN_NUM_THREADS.
TEST(RouterEquivalence, LargeEdgeScanMatchesOracle) {
  geom::Rng rng(0xfeed);
  const graph::Graph g = random_graph(160, 0.45, rng);
  ASSERT_GE(g.num_edges(), 4096U);
  const std::vector<double> costs = costs_of(g);
  constexpr route::Time kRounds = 60;
  Workload w{"poisson_dense", {}, {0.5, 0.1, 6}};
  w.spec.process = route::InjectionSpec::Process::kPoisson;
  w.spec.rate = 24.0;
  w.spec.seed = 21;

  const int saved = tn::num_threads();
  const RefResult ref = run_reference(g, costs, w, kRounds);
  FastResult base;
  bool have_base = false;
  for (const int threads : {1, 2, 4}) {
    SCOPED_TRACE(threads);
    tn::set_num_threads(threads);
    const FastResult dense = run_fast(g, costs, w, kRounds, false);
    const FastResult sparse = run_fast(g, costs, w, kRounds, true);
    expect_same_plan(ref.txs, dense.txs);
    expect_same_metrics(ref.m, dense.m);
    expect_identical(dense, sparse);
    if (!have_base) {
      base = dense;
      have_base = true;
    } else {
      expect_identical(base, dense);
    }
  }
  tn::set_num_threads(saved);
}

// Every slot path of execute: collided transmissions keep their packet in
// place, delivered ones free their slot, and with a tiny H converging
// packets overflow their receiver and are dropped in transit.
TEST(RouterEquivalence, CollisionsAndTransitDropsMatchOracle) {
  geom::Rng rng(0xd20b);
  const graph::Graph g = random_graph(40, 0.2, rng);
  const std::vector<double> costs = costs_of(g);
  constexpr route::Time kRounds = 300;
  std::vector<Workload> ws = workloads();
  {
    Workload w{"small_h_hotspot", {}, {0.5, 0.0, 2}};
    w.spec.process = route::InjectionSpec::Process::kHotspot;
    w.spec.rate = 6.0;
    w.spec.num_destinations = 2;
    w.spec.seed = 15;
    ws.push_back(w);
  }
  for (const Workload& w : ws) {
    SCOPED_TRACE(w.name);
    const RefResult ref = run_reference(g, costs, w, kRounds, 0.25);
    const FastResult dense = run_fast(g, costs, w, kRounds, false, 0.25);
    const FastResult sparse = run_fast(g, costs, w, kRounds, true, 0.25);
    EXPECT_GT(ref.m.failed_tx, 0U);
    EXPECT_GT(ref.m.deliveries, 0U);
    if (std::string_view(w.name) == "small_h_hotspot") {
      EXPECT_GT(ref.m.dropped_in_transit, 0U);
    }
    expect_same_plan(ref.txs, dense.txs);
    expect_same_metrics(ref.m, dense.m);
    expect_identical(dense, sparse);
  }
}

}  // namespace
}  // namespace thetanet::core
