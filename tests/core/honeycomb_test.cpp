#include "core/honeycomb.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <map>
#include <optional>
#include <unordered_map>
#include <utility>

#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::core {
namespace {

struct HcFixture {
  topo::Deployment d;
  graph::Graph unit;

  explicit HcFixture(std::uint64_t seed, std::size_t n = 120,
                     double side = 5.0) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, side, rng);
    d.max_range = 1.0;  // fixed transmission strength (Section 3.4)
    d.kappa = 2.0;
    unit = topo::build_transmission_graph(d);
  }

  std::vector<double> costs() const {
    std::vector<double> c(unit.num_edges());
    for (graph::EdgeId e = 0; e < c.size(); ++e) c[e] = unit.edge(e).cost;
    return c;
  }
};

TEST(Honeycomb, TilingSideMatchesPaper) {
  const HcFixture f(81);
  const HoneycombParams p{0.75, 1.0 / 6.0};
  const HoneycombMac mac(f.d, f.unit, p);
  EXPECT_DOUBLE_EQ(mac.tiling().side(), 3.0 + 2.0 * 0.75);
  EXPECT_DOUBLE_EQ(mac.tiling().diameter(), 2.0 * (3.0 + 2.0 * 0.75));
}

TEST(Honeycomb, RejectsInvalidParameters) {
  const HcFixture f(82);
  EXPECT_DEATH(HoneycombMac(f.d, f.unit, HoneycombParams{0.0, 1.0 / 6.0}),
               "Delta");
  EXPECT_DEATH(HoneycombMac(f.d, f.unit, HoneycombParams{0.5, 0.5}), "p_t");
}

TEST(Honeycomb, RejectsMismatchedInputs) {
  const HcFixture f(87);
  topo::Deployment fewer = f.d;
  fewer.positions.pop_back();
  EXPECT_DEATH(HoneycombMac(fewer, f.unit, HoneycombParams{0.5, 1.0 / 6.0}),
               "same nodes");
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  geom::Rng rng(5);
  const BalancingRouter router(f.d.size(), {0.5, 0.0, 64});
  std::vector<double> short_costs = f.costs();
  short_costs.pop_back();
  EXPECT_DEATH(mac.select(router, short_costs, rng), "one entry per");
  const BalancingRouter negative_gamma(f.d.size(), {0.5, -1.0, 64});
  EXPECT_DEATH(mac.select(negative_gamma, f.costs(), rng), "gamma >= 0");
  const BalancingRouter more_nodes(f.d.size() + 1, {0.5, 0.0, 64});
  EXPECT_DEATH(mac.select(more_nodes, f.costs(), rng), "same nodes");
}

TEST(Honeycomb, AtMostOneContestantPerHexagon) {
  const HcFixture f(83);
  const HoneycombParams p{0.5, 1.0 / 6.0};
  const HoneycombMac mac(f.d, f.unit, p);
  BalancingRouter router(f.d.size(), {0.5, 0.0, 64});
  route::RunMetrics m;
  geom::Rng rng(1);
  // Load several buffers to create many candidate pairs.
  for (std::uint64_t i = 0; i < 200; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(f.d.size()));
    auto t = static_cast<graph::NodeId>(rng.uniform_index(f.d.size() - 1));
    if (t >= s) ++t;
    router.inject(route::Packet{i, s, t, 0, 0.0, 0}, m);
  }
  // With p_t forced to its max, selected contestants are still one per cell.
  for (int round = 0; round < 50; ++round) {
    const auto chosen = mac.select(router, f.costs(), rng);
    std::map<std::pair<std::int32_t, std::int32_t>, int> per_cell;
    for (const PlannedTx& tx : chosen) {
      const geom::HexCell c = mac.tiling().cell_of(f.d.positions[tx.from]);
      const int count = ++per_cell[std::pair{c.q, c.r}];
      ASSERT_EQ(count, 1) << "two contestants in one hexagon";
    }
  }
}

TEST(Honeycomb, SelectionRespectsThreshold) {
  const HcFixture f(84);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  // Threshold higher than any height difference -> no contestants ever.
  BalancingRouter router(f.d.size(), {100.0, 0.0, 64});
  route::RunMetrics m;
  geom::Rng rng(2);
  for (std::uint64_t i = 0; i < 50; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(f.d.size()));
    auto t = static_cast<graph::NodeId>(rng.uniform_index(f.d.size() - 1));
    if (t >= s) ++t;
    router.inject(route::Packet{i, s, t, 0, 0.0, 0}, m);
  }
  HoneycombMac::SelectionStats stats;
  const auto chosen = mac.select(router, f.costs(), rng, &stats);
  EXPECT_TRUE(chosen.empty());
  EXPECT_EQ(stats.contestants, 0U);
  EXPECT_EQ(stats.candidate_pairs, 0U);
}

TEST(Honeycomb, TransmissionRateMatchesPt) {
  const HcFixture f(85);
  const double pt = 1.0 / 6.0;
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, pt});
  BalancingRouter router(f.d.size(), {0.5, 0.0, 512});
  route::RunMetrics m;
  geom::Rng rng(3);
  for (std::uint64_t i = 0; i < 500; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(f.d.size()));
    auto t = static_cast<graph::NodeId>(rng.uniform_index(f.d.size() - 1));
    if (t >= s) ++t;
    router.inject(route::Packet{i, s, t, 0, 0.0, 0}, m);
  }
  std::size_t contestants = 0, transmissions = 0;
  for (int round = 0; round < 3000; ++round) {
    HoneycombMac::SelectionStats stats;
    const auto chosen = mac.select(router, f.costs(), rng, &stats);
    contestants += stats.contestants;
    transmissions += chosen.size();
  }
  ASSERT_GT(contestants, 1000U);
  const double rate =
      static_cast<double>(transmissions) / static_cast<double>(contestants);
  EXPECT_NEAR(rate, pt, 0.02);
}

// Lemma 3.7 (empirical): with p_t <= 1/6, each selected contestant survives
// interference with probability at least 1/2.
TEST(Honeycomb, Lemma37CollisionProbabilityAtMostHalf) {
  const HcFixture f(86, 200, 6.0);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  BalancingRouter router(f.d.size(), {0.5, 0.0, 512});
  route::RunMetrics m;
  geom::Rng rng(4);
  for (std::uint64_t i = 0; i < 1000; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(f.d.size()));
    auto t = static_cast<graph::NodeId>(rng.uniform_index(f.d.size() - 1));
    if (t >= s) ++t;
    router.inject(route::Packet{i, s, t, 0, 0.0, 0}, m);
  }
  std::size_t chosen_total = 0, failed_total = 0;
  for (int round = 0; round < 4000; ++round) {
    const auto chosen = mac.select(router, f.costs(), rng);
    const auto failed = mac.resolve(chosen);
    chosen_total += chosen.size();
    for (const bool b : failed) failed_total += b ? 1 : 0;
  }
  ASSERT_GT(chosen_total, 500U);
  EXPECT_LE(static_cast<double>(failed_total) /
                static_cast<double>(chosen_total),
            0.5);
}

TEST(Honeycomb, ResolveUsesFixedGuardDistance) {
  topo::Deployment d;
  // Two pairs separated by slightly more than 1 + Delta = 1.5: independent.
  d.positions = {{0, 0}, {1, 0}, {2.51, 0}, {3.51, 0}};
  d.max_range = 1.0;
  d.kappa = 2.0;
  graph::GraphBuilder b(4);
  b.add_edge(0, 1, 1.0, 1.0);
  b.add_edge(2, 3, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  const HoneycombMac mac(d, g, HoneycombParams{0.5, 1.0 / 6.0});
  std::vector<PlannedTx> txs(2);
  txs[0] = {0, 0, 1, 3, 1.0};
  txs[1] = {1, 2, 3, 0, 1.0};
  auto failed = mac.resolve(txs);
  EXPECT_FALSE(failed[0]);
  EXPECT_FALSE(failed[1]);
  // Move the second pair closer: receiver 1 within 1.5 of sender 2 -> kill.
  topo::Deployment d2 = d;
  d2.positions[2] = {2.4, 0};
  const HoneycombMac mac2(d2, g, HoneycombParams{0.5, 1.0 / 6.0});
  failed = mac2.resolve(txs);
  EXPECT_TRUE(failed[0]);
  EXPECT_TRUE(failed[1]);
}

// --- differential test: select() against the full 2E scan ----------------

std::uint32_t tallest_buffer(const BalancingRouter& router, graph::NodeId v) {
  std::uint32_t top = 0;
  for (const route::BufferBank::Entry& e : router.buffers().entries(v))
    top = std::max(top, e.height);
  return top;
}

// The contestant selection as a scan over all 2E directed pairs, in (edge id,
// forward before backward) order: the reference oracle for select(). Returns
// each hexagon's winner in the winner map's iteration order, the order in
// which select() draws their coins, and fills every statistic (none depends
// on the coins). With `skip_at_or_below` set it drops every pair whose
// sender's tallest buffer less gamma * c is at most that value —
// select()'s per-pair bound moved past T, the planted over-prune the
// comparison must catch.
std::vector<PlannedTx> dense_winners(
    const HoneycombMac& mac, const topo::Deployment& d,
    const graph::Graph& unit, const BalancingRouter& router,
    std::span<const double> costs, HoneycombMac::SelectionStats* stats,
    std::optional<double> skip_at_or_below = std::nullopt) {
  std::unordered_map<geom::HexCell, PlannedTx, geom::HexCellHash> winner;
  HoneycombMac::SelectionStats local;
  for (graph::EdgeId e = 0; e < unit.num_edges(); ++e) {
    const graph::Edge& edge = unit.edge(e);
    for (const bool forward : {true, false}) {
      const graph::NodeId s = forward ? edge.u : edge.v;
      const graph::NodeId t = forward ? edge.v : edge.u;
      if (skip_at_or_below &&
          static_cast<double>(tallest_buffer(router, s)) -
                  router.params().gamma * costs[e] <=
              *skip_at_or_below)
        continue;
      const std::optional<PlannedTx> tx =
          router.best_for_pair(s, t, e, costs[e]);
      if (!tx) continue;
      ++local.candidate_pairs;
      local.candidate_benefit_sum += tx->benefit;
      const geom::HexCell cell = mac.tiling().cell_of(d.positions[s]);
      const auto it = winner.find(cell);
      if (it == winner.end() || tx->benefit > it->second.benefit)
        winner[cell] = *tx;
    }
  }
  std::vector<PlannedTx> winners;
  for (const auto& [cell, tx] : winner) {
    ++local.contestants;
    local.contestant_benefit_sum += tx.benefit;
    winners.push_back(tx);
  }
  if (stats != nullptr) *stats = local;
  return winners;
}

// The winners' coins, one rng.bernoulli(p_t) per winner in map order, with
// the transmissions sorted as select() returns them.
std::vector<PlannedTx> flip_coins(const HoneycombMac& mac,
                                  std::span<const PlannedTx> winners,
                                  geom::Rng& rng) {
  std::vector<PlannedTx> chosen;
  for (const PlannedTx& tx : winners)
    if (rng.bernoulli(mac.params().p_t)) chosen.push_back(tx);
  std::sort(chosen.begin(), chosen.end(),
            [](const PlannedTx& a, const PlannedTx& b) {
              return a.edge < b.edge || (a.edge == b.edge && a.from < b.from);
            });
  return chosen;
}

std::vector<PlannedTx> dense_select(
    const HoneycombMac& mac, const topo::Deployment& d,
    const graph::Graph& unit, const BalancingRouter& router,
    std::span<const double> costs, geom::Rng& rng,
    HoneycombMac::SelectionStats* stats,
    std::optional<double> skip_at_or_below = std::nullopt) {
  return flip_coins(
      mac, dense_winners(mac, d, unit, router, costs, stats, skip_at_or_below),
      rng);
}

// Everything a selection leaves behind: its transmissions, its statistics
// and the next draws of the rng it consumed coins from.
struct Outcome {
  std::vector<PlannedTx> txs;
  HoneycombMac::SelectionStats stats;
  std::array<std::uint64_t, 2> next_draws{};
};

Outcome finish(std::vector<PlannedTx> txs,
               const HoneycombMac::SelectionStats& stats, geom::Rng& rng) {
  Outcome o{std::move(txs), stats, {}};
  for (std::uint64_t& x : o.next_draws) x = rng();
  return o;
}

bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

testing::AssertionResult same_outcome(const Outcome& a, const Outcome& b) {
  if (a.txs.size() != b.txs.size())
    return testing::AssertionFailure()
           << a.txs.size() << " vs " << b.txs.size() << " transmissions";
  for (std::size_t i = 0; i < a.txs.size(); ++i) {
    const PlannedTx& x = a.txs[i];
    const PlannedTx& y = b.txs[i];
    if (x.edge != y.edge || x.from != y.from || x.to != y.to ||
        x.dest != y.dest || !same_bits(x.benefit, y.benefit))
      return testing::AssertionFailure() << "transmission " << i << " differs";
  }
  if (a.stats.candidate_pairs != b.stats.candidate_pairs ||
      a.stats.contestants != b.stats.contestants)
    return testing::AssertionFailure()
           << "counts " << a.stats.candidate_pairs << "/"
           << a.stats.contestants << " vs " << b.stats.candidate_pairs << "/"
           << b.stats.contestants;
  if (!same_bits(a.stats.candidate_benefit_sum,
                 b.stats.candidate_benefit_sum) ||
      !same_bits(a.stats.contestant_benefit_sum,
                 b.stats.contestant_benefit_sum))
    return testing::AssertionFailure() << "benefit sums differ";
  if (a.next_draws != b.next_draws)
    return testing::AssertionFailure() << "rng state differs";
  return testing::AssertionSuccess();
}

// Inject `count` packets from a random subset of `sources` nodes toward a
// few destinations, so buffers hold several destinations and grow tall.
void load(const HcFixture& f, BalancingRouter& router, geom::Rng& rng,
          std::size_t sources, std::size_t count, std::uint64_t& next_id) {
  const std::size_t n = f.d.size();
  std::array<graph::NodeId, 4> dests{};
  for (graph::NodeId& t : dests)
    t = static_cast<graph::NodeId>(rng.uniform_index(n));
  route::RunMetrics m;
  for (std::size_t i = 0; i < count; ++i) {
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(sources));
    const graph::NodeId t = dests[rng.uniform_index(dests.size())];
    if (s == t) continue;
    router.inject(route::Packet{next_id++, s, t, 0, 0.0, 0}, m);
  }
}

TEST(Honeycomb, SelectMatchesFullPairScan) {
  const HcFixture f(88);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  const std::vector<double> costs = f.costs();
  std::size_t states = 0, pruned_states = 0, candidate_states = 0;
  std::size_t costed_states = 0, pair_pruned_states = 0;
  for (const double threshold : {0.0, 0.5, 3.0, 100.0}) {
    for (const double gamma : {0.0, 7.45}) {
      std::size_t caught = 0;
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        BalancingRouter router(f.d.size(), {threshold, gamma, 64});
        geom::Rng rng(seed * 1000 + static_cast<std::uint64_t>(threshold));
        std::uint64_t next_id = 0;
        route::RunMetrics m;
        for (route::Time t = 0; t < 40; ++t) {
          // Bursts onto a shifting prefix of the node ids: some senders pile
          // up tall buffers, others hold one or two packets.
          if (t % 8 == 0)
            load(f, router, rng, 10 + 20 * (t / 8), 60 + 40 * seed, next_id);
          geom::Rng rng_select = rng;
          geom::Rng rng_dense = rng;
          geom::Rng rng_mutant = rng;
          HoneycombMac::SelectionStats s_select, s_dense, s_mutant;
          auto txs = mac.select(router, costs, rng_select, &s_select);
          const Outcome fast = finish(txs, s_select, rng_select);
          const Outcome ref =
              finish(dense_select(mac, f.d, f.unit, router, costs, rng_dense,
                                  &s_dense),
                     s_dense, rng_dense);
          const Outcome mutant = finish(
              dense_select(mac, f.d, f.unit, router, costs, rng_mutant,
                           &s_mutant, threshold + 1.0),
              s_mutant, rng_mutant);
          ASSERT_TRUE(same_outcome(fast, ref))
              << "T=" << threshold << " gamma=" << gamma << " seed=" << seed
              << " round=" << t;
          if (!same_outcome(fast, mutant)) ++caught;
          ++states;
          if (s_select.candidate_pairs > 0) ++candidate_states;
          bool skips_a_sender = false;
          router.buffers().for_each_active_node([&](graph::NodeId v) {
            if (static_cast<double>(tallest_buffer(router, v)) <= threshold)
              skips_a_sender = true;
          });
          if (skips_a_sender) ++pruned_states;
          // States where the per-pair bound skips a pair whose sender the
          // sender gate kept: the part of select() only gamma * c reaches.
          if (gamma > 0.0) {
            ++costed_states;
            bool skips_a_pair = false;
            router.buffers().for_each_active_node([&](graph::NodeId v) {
              const double tallest =
                  static_cast<double>(tallest_buffer(router, v));
              if (tallest <= threshold) return;
              for (const graph::Half& nb : f.unit.neighbors(v))
                if (tallest - gamma * costs[nb.edge] <= threshold)
                  skips_a_pair = true;
            });
            if (skips_a_pair) ++pair_pruned_states;
          }
          // Move on along select()'s own trajectory.
          rng = rng_select;
          router.execute(txs, mac.resolve(txs), costs, t, m);
          router.end_step(m);
        }
      }
      // Nothing clears T=100 with H=64, so there is nothing to prune wrongly.
      if (threshold < 100.0) {
        EXPECT_GT(caught, 0U) << "over-prune at T+1 went unnoticed, T="
                              << threshold << " gamma=" << gamma;
      }
    }
  }
  EXPECT_EQ(states, 4U * 2U * 3U * 40U);
  EXPECT_EQ(costed_states, states / 2);
  EXPECT_GT(candidate_states, states / 4);
  EXPECT_GT(pruned_states, states / 4);
  EXPECT_GT(pair_pruned_states, costed_states / 4);
}

TEST(Honeycomb, SelectWithEverySenderAtOrBelowThreshold) {
  const HcFixture f(89);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  const std::vector<double> costs = f.costs();
  BalancingRouter router(f.d.size(), {3.0, 0.0, 64});
  route::RunMetrics m;
  // Three packets per (sender, destination): every buffer sits exactly at T.
  std::uint64_t id = 0;
  for (graph::NodeId s = 0; s < 40; ++s)
    for (const graph::NodeId t : {graph::NodeId{50}, graph::NodeId{90}})
      for (int k = 0; k < 3; ++k)
        router.inject(route::Packet{id++, s, t, 0, 0.0, 0}, m);
  geom::Rng rng_select(7);
  geom::Rng rng_dense(7);
  HoneycombMac::SelectionStats s_select, s_dense;
  auto txs = mac.select(router, costs, rng_select, &s_select);
  EXPECT_TRUE(txs.empty());
  EXPECT_EQ(s_select.candidate_pairs, 0U);
  EXPECT_TRUE(same_outcome(
      finish(std::move(txs), s_select, rng_select),
      finish(dense_select(mac, f.d, f.unit, router, costs, rng_dense,
                          &s_dense),
             s_dense, rng_dense)));
}

// select() reuses its last contestant set while the bank's stamp, (T, gamma)
// and every cost stay the same. One long-lived MAC runs a trajectory in
// which most rounds change nothing (every coin fails and nothing is
// injected), and each round must still equal a fresh full scan:
// transmissions, statistics and rng draws. Along the way the cost vector is
// edited in place, the MAC alternates between two routers of different
// (T, gamma), and a router copy diverges from its source.
TEST(Honeycomb, SelectReuseMatchesFreshSelection) {
  const HcFixture f(90);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  std::vector<double> costs = f.costs();
  geom::Rng rng(31);
  std::uint64_t next_id = 0;
  route::RunMetrics m;
  std::size_t rounds = 0;
  std::size_t unchanged = 0;  // same bank state as the previous select()
  std::size_t cost_edits = 0;  // in-place edits a stale memo would miss
  // One round on `router`: select() against the oracle, then execute.
  const auto step = [&](BalancingRouter& router, const char* phase,
                        route::Time t) {
    geom::Rng rng_select = rng;
    geom::Rng rng_dense = rng;
    HoneycombMac::SelectionStats s_select, s_dense;
    auto txs = mac.select(router, costs, rng_select, &s_select);
    const Outcome fast = finish(txs, s_select, rng_select);
    const Outcome ref = finish(
        dense_select(mac, f.d, f.unit, router, costs, rng_dense, &s_dense),
        s_dense, rng_dense);
    EXPECT_TRUE(same_outcome(fast, ref)) << phase << " round " << t;
    rng = rng_select;
    router.execute(txs, mac.resolve(txs), costs, t, m);
    router.end_step(m);
    ++rounds;
    return s_select;
  };

  // Phase 1: one router, bursts every 30 rounds, and every 7 rounds the
  // costs switch in place (same vector, same address) between 1x and 1.5x.
  const std::vector<double> base = costs;
  BalancingRouter a(f.d.size(), {0.5, 0.3, 64});
  std::uint64_t last_stamp = 0;
  bool costs_edited = false;
  HoneycombMac::SelectionStats last;
  for (route::Time t = 0; t < 240; ++t) {
    if (t % 30 == 0) load(f, a, rng, 60, 200, next_id);
    if (t % 7 == 3) {
      const double factor = (t / 7) % 2 == 0 ? 1.5 : 1.0;
      for (std::size_t e = 0; e < costs.size(); ++e)
        costs[e] = base[e] * factor;
      costs_edited = true;
    }
    const bool same_bank = a.buffers().stamp() == last_stamp;
    if (same_bank && !costs_edited) ++unchanged;
    if (same_bank && costs_edited && last.candidate_pairs > 0) ++cost_edits;
    last = step(a, "single", t);
    last_stamp = a.buffers().stamp();
    costs_edited = false;
  }
  EXPECT_GT(unchanged, rounds / 3);
  EXPECT_GT(cost_edits, 3U);

  // Phase 2: the MAC alternates between two routers of different (T, gamma).
  BalancingRouter b(f.d.size(), {2.0, 0.0, 64});
  load(f, b, rng, 60, 200, next_id);
  for (route::Time t = 240; t < 300; ++t) {
    if (t % 30 == 0) load(f, a, rng, 60, 200, next_id);
    step(a, "alternate a", t);
    step(b, "alternate b", t);
  }

  // Phase 3: a copy starts with its source's stamp, then diverges.
  BalancingRouter c = a;
  EXPECT_EQ(c.buffers().stamp(), a.buffers().stamp());
  step(a, "source", 300);
  BalancingRouter d = a;
  step(d, "fresh copy", 301);
  load(f, d, rng, 60, 100, next_id);  // injection only: pushes, no pops
  for (route::Time t = 302; t < 360; ++t) {
    step(d, "diverged copy", t);
    step(a, "source", t);
    step(c, "old copy", t);
  }
  EXPECT_EQ(rounds, 240U + 120U + 2U + 3U * 58U);
}

// select()'s coins are rng.bernoulli(p_t), one per winner in the memo's
// order (the winner map's iteration order, which dense_winners rebuilds),
// on memo misses and hits alike, and afterwards the rng sits exactly where
// that loop leaves it. Several p_t, so the coin is not one fixed constant.
TEST(Honeycomb, SelectCoinsReplayTheBernoulliLoop) {
  const HcFixture f(91);
  const std::vector<double> costs = f.costs();
  std::size_t coins = 0, hits = 0, rounds = 0;
  for (const double p_t : {1.0 / 6.0, 1.0 / 7.0, 0.1, 0.01}) {
    const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, p_t});
    BalancingRouter router(f.d.size(), {0.5, 0.3, 64});
    geom::Rng rng(static_cast<std::uint64_t>(1.0 / p_t));
    std::uint64_t next_id = 0;
    std::uint64_t last_stamp = 0;
    route::RunMetrics m;
    for (route::Time t = 0; t < 150; ++t) {
      if (t % 50 == 0) load(f, router, rng, 60, 200, next_id);
      HoneycombMac::SelectionStats s_select, s_replay;
      const std::vector<PlannedTx> winners =
          dense_winners(mac, f.d, f.unit, router, costs, &s_replay);
      geom::Rng replay = rng;
      const Outcome expected =
          finish(flip_coins(mac, winners, replay), s_replay, replay);
      if (router.buffers().stamp() == last_stamp) ++hits;
      last_stamp = router.buffers().stamp();
      auto txs = mac.select(router, costs, rng, &s_select);
      geom::Rng after = rng;
      ASSERT_TRUE(same_outcome(finish(txs, s_select, after), expected))
          << "p_t=" << p_t << " round=" << t;
      coins += winners.size();
      ++rounds;
      // Execute every third round only, so most selections reuse the memo.
      if (t % 3 == 0) {
        router.execute(txs, mac.resolve(txs), costs, t, m);
        router.end_step(m);
      }
    }
  }
  EXPECT_EQ(rounds, 4U * 150U);
  EXPECT_GT(hits, rounds / 2);
  EXPECT_GT(coins, 2U * rounds);
}

// A memo miss with (T, gamma) and the costs unchanged re-evaluates only the
// pairs around the nodes the bank's change journal names. One long-lived MAC
// runs thousands of rounds and every select() must equal a fresh full scan:
// transmissions, statistics and rng draws. The trajectory mixes rounds that
// follow the journal with every reason to walk all senders instead: bursts
// that overflow the journal, in-place cost edits, switches between routers
// of different (T, gamma), and two copies of one router that alternate.
TEST(Honeycomb, SelectFollowingTheJournalMatchesFreshSelection) {
  const HcFixture f(92);
  const HoneycombMac mac(f.d, f.unit, HoneycombParams{0.5, 1.0 / 6.0});
  std::vector<double> costs = f.costs();
  const std::vector<double> base = costs;
  geom::Rng rng(47);
  std::uint64_t next_id = 0;
  route::RunMetrics m;
  std::size_t rounds = 0;
  // A packet from a random node to one of two fixed destinations on every
  // other round: a few journal entries per round.
  const std::array<graph::NodeId, 2> sinks{7, 71};
  const auto trickle = [&](BalancingRouter& router, route::Time t) {
    if (t % 2 != 0) return;
    const auto s = static_cast<graph::NodeId>(rng.uniform_index(f.d.size()));
    const graph::NodeId d = sinks[rng.uniform_index(sinks.size())];
    if (s != d) router.inject(route::Packet{next_id++, s, d, 0, 0.0, 0}, m);
  };
  // Why each select() had to do what it did, judged from outside: the memo
  // holds the last call's router, stamp, journal position and costs.
  std::size_t followed = 0, walked = 0, rule_changed = 0;
  const BalancingRouter* last_router = nullptr;
  std::uint64_t last_stamp = 0, last_position = 0;
  std::vector<double> last_costs;
  const auto step = [&](BalancingRouter& router, const char* phase,
                        route::Time t) {
    const route::BufferBank& bank = router.buffers();
    const bool same_rule =
        last_router != nullptr &&
        last_router->params().threshold == router.params().threshold &&
        last_router->params().gamma == router.params().gamma &&
        last_costs == costs;
    if (!same_rule) {
      ++rule_changed;
    } else if (bank.stamp() != last_stamp) {
      const bool reaches = bank.for_each_change_since(
          last_stamp, last_position, [](graph::NodeId) {});
      ++(reaches ? followed : walked);
    }
    geom::Rng rng_select = rng;
    geom::Rng rng_dense = rng;
    HoneycombMac::SelectionStats s_select, s_dense;
    auto txs = mac.select(router, costs, rng_select, &s_select);
    const Outcome fast = finish(txs, s_select, rng_select);
    const Outcome ref = finish(
        dense_select(mac, f.d, f.unit, router, costs, rng_dense, &s_dense),
        s_dense, rng_dense);
    EXPECT_TRUE(same_outcome(fast, ref)) << phase << " round " << t;
    last_router = &router;
    last_stamp = bank.stamp();
    last_position = bank.journal_position();
    last_costs = costs;
    rng = rng_select;
    router.execute(txs, mac.resolve(txs), costs, t, m);
    router.end_step(m);
    ++rounds;
  };

  // Phase 1: one router under a trickle of injections, a burst of 270
  // packets (past the journal's reach) every 300 rounds, and every 97
  // rounds the costs switch in place between 1x and 1.25x.
  BalancingRouter a(f.d.size(), {0.5, 0.3, 64});
  for (route::Time t = 0; t < 2000; ++t) {
    if (t % 300 == 0) load(f, a, rng, 80, 270, next_id);
    trickle(a, t);
    if (t % 97 == 50) {
      const double factor = (t / 97) % 2 == 0 ? 1.25 : 1.0;
      for (std::size_t e = 0; e < costs.size(); ++e)
        costs[e] = base[e] * factor;
    }
    step(a, "single", t);
  }
  EXPECT_GT(followed, 1000U);
  EXPECT_GE(walked, 6U);  // the bursts after the first

  // Phase 2: a copy of the router, then both copies alternate. Whenever
  // the copy has not moved since it was taken from the memo's state it
  // descends from that state and follows the journal.
  BalancingRouter b = a;
  for (route::Time t = 2000; t < 2600; ++t) {
    if (t % 50 == 0) b = a;
    trickle(a, t);
    step(a, "copy a", t);
    step(b, "copy b", t);
  }

  // Phase 3: T and gamma switch: every 25 rounds the MAC serves a router
  // with other parameters for 5 rounds, then returns to `a`.
  BalancingRouter c(f.d.size(), {2.0, 0.0, 64});
  load(f, c, rng, 80, 200, next_id);
  for (route::Time t = 2600; t < 3600; ++t) {
    trickle(a, t);
    const bool switched = t % 25 < 5;
    if (switched) trickle(c, t + 1);
    step(switched ? c : a, switched ? "switched c" : "back to a", t);
  }
  EXPECT_EQ(rounds, 2000U + 2U * 600U + 1000U);
  EXPECT_GT(followed, rounds / 3);
  EXPECT_GT(walked, 500U);  // mostly one copy after the other
  EXPECT_GT(rule_changed, 2U * 1000U / 25U);
}

}  // namespace
}  // namespace thetanet::core
