#include "core/interference_mac.h"

#include <gtest/gtest.h>

#include <numbers>
#include <utility>
#include <vector>

#include "core/theta_topology.h"
#include "topology/distributions.h"

namespace thetanet::core {
namespace {

struct MacFixture {
  topo::Deployment d;
  graph::Graph topo;
  interf::InterferenceModel model{1.0};

  explicit MacFixture(std::uint64_t seed, std::size_t n = 150,
                      double range = 0.18) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = range;
    d.kappa = 2.0;
    topo = ThetaTopology(d, std::numbers::pi / 6.0).graph();
  }
};

TEST(RandomizedMac, BoundsDominatePerEdgeSetSizes) {
  const MacFixture f(71);
  const RandomizedMac mac(f.topo, f.d, f.model);
  const auto sizes = interf::interference_set_sizes(f.topo, f.d, f.model);
  const auto bounds = interf::interference_bounds(f.topo, f.d, f.model);
  std::uint32_t max_size = 0;
  std::uint32_t max_bound = 0;
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) {
    // I_e >= |I(e')| for every e' in I(e) (and >= |I(e)| itself via e in
    // I(e')); in particular I_e >= |I(e)|.
    const double p = mac.activation_prob(e);
    EXPECT_GT(p, 0.0);
    EXPECT_LE(p, 0.5);
    EXPECT_EQ(p, 1.0 / (2.0 * static_cast<double>(bounds[e])));
    EXPECT_LE(sizes[e], bounds[e]);
    max_size = std::max(max_size, sizes[e]);
    max_bound = std::max(max_bound, bounds[e]);
  }
  EXPECT_EQ(mac.interference_bound(), max_bound);
  EXPECT_GE(mac.interference_bound(), max_size);
}

TEST(RandomizedMac, ActivationFrequencyMatchesProbability) {
  const MacFixture f(72, 80, 0.22);
  const RandomizedMac mac(f.topo, f.d, f.model);
  ASSERT_GT(f.topo.num_edges(), 0U);
  geom::Rng rng(99);
  std::vector<std::size_t> activations(f.topo.num_edges(), 0);
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i)
    for (const graph::EdgeId e : mac.activate(rng)) ++activations[e];
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); e += 5) {
    const double expected = mac.activation_prob(e);
    const double observed =
        static_cast<double>(activations[e]) / static_cast<double>(rounds);
    EXPECT_NEAR(observed, expected, 5.0 * std::sqrt(expected / rounds) + 1e-3)
        << "edge " << e;
  }
}

// Lemma 3.2: an active edge interferes with other *active* edges with
// probability at most 1/2.
TEST(RandomizedMac, Lemma32CollisionProbabilityAtMostHalf) {
  const MacFixture f(73);
  const RandomizedMac mac(f.topo, f.d, f.model);
  geom::Rng rng(7);
  std::vector<std::size_t> active_count(f.topo.num_edges(), 0);
  std::vector<std::size_t> collided(f.topo.num_edges(), 0);
  const int rounds = 30000;
  const auto in_set = [&](graph::EdgeId a, graph::EdgeId b) {
    const graph::Edge& ea = f.topo.edge(a);
    const graph::Edge& eb = f.topo.edge(b);
    return f.model.in_interference_set(f.d.positions[ea.u],
                                       f.d.positions[ea.v],
                                       f.d.positions[eb.u],
                                       f.d.positions[eb.v]);
  };
  for (int round = 0; round < rounds; ++round) {
    const auto active = mac.activate(rng);
    for (const graph::EdgeId e : active) {
      ++active_count[e];
      for (const graph::EdgeId ep : active)
        if (ep != e && in_set(e, ep)) {
          ++collided[e];
          break;
        }
    }
  }
  // Aggregate check (per-edge samples are small for rarely-active edges).
  std::size_t total_active = 0, total_collided = 0;
  for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e) {
    total_active += active_count[e];
    total_collided += collided[e];
    if (active_count[e] >= 200) {
      EXPECT_LE(static_cast<double>(collided[e]) /
                    static_cast<double>(active_count[e]),
                0.55)
          << "edge " << e;
    }
  }
  ASSERT_GT(total_active, 0U);
  EXPECT_LE(static_cast<double>(total_collided) /
                static_cast<double>(total_active),
            0.5);
}

TEST(RandomizedMac, ResolveFlagsInterferingPlannedTransmissions) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.5, 0}, {0.7, 0}, {1.2, 0}, {10, 0}, {10.5, 0}};
  d.max_range = 0.6;
  d.kappa = 2.0;
  graph::GraphBuilder b(6);
  b.add_edge(0, 1, 0.5, 0.25);
  b.add_edge(2, 3, 0.5, 0.25);
  b.add_edge(4, 5, 0.5, 0.25);
  const graph::Graph g = std::move(b).build();
  const RandomizedMac mac(g, d, interf::InterferenceModel{1.0});
  std::vector<PlannedTx> txs(3);
  txs[0] = {0, 0, 1, 5, 1.0};
  txs[1] = {1, 2, 3, 5, 1.0};
  txs[2] = {2, 4, 5, 0, 1.0};
  const auto failed = mac.resolve(txs);
  EXPECT_TRUE(failed[0]);   // edges 0 and 1 are 0.2 apart: mutual kill
  EXPECT_TRUE(failed[1]);
  EXPECT_FALSE(failed[2]);  // edge 2 is 9 units away
}

TEST(SlottedAloha, ActivationFrequencyMatchesP) {
  const MacFixture f(74, 60, 0.25);
  const SlottedAlohaMac mac(f.topo, f.d, f.model, 0.1);
  geom::Rng rng(1);
  std::size_t total = 0;
  const int rounds = 20000;
  for (int i = 0; i < rounds; ++i) total += mac.activate(rng).size();
  const double per_edge = static_cast<double>(total) /
                          (static_cast<double>(rounds) *
                           static_cast<double>(f.topo.num_edges()));
  EXPECT_NEAR(per_edge, 0.1, 0.01);
}

TEST(SlottedAloha, ResolveUsesSameInterferenceModel) {
  const MacFixture f(75, 60, 0.25);
  const SlottedAlohaMac amac(f.topo, f.d, f.model, 0.5);
  const RandomizedMac imac(f.topo, f.d, f.model);
  // Same planned transmissions must fail identically under both MACs (the
  // collision physics is shared; only activation policy differs).
  std::vector<PlannedTx> txs;
  for (graph::EdgeId e = 0;
       e < std::min<graph::EdgeId>(
               10, static_cast<graph::EdgeId>(f.topo.num_edges()));
       ++e)
    txs.push_back({e, f.topo.edge(e).u, f.topo.edge(e).v, 0, 1.0});
  EXPECT_EQ(amac.resolve(txs), imac.resolve(txs));
}

TEST(SlottedAloha, FullProbabilityActivatesEverything) {
  const MacFixture f(76, 40, 0.3);
  const SlottedAlohaMac mac(f.topo, f.d, f.model, 1.0);
  geom::Rng rng(2);
  EXPECT_EQ(mac.activate(rng).size(), f.topo.num_edges());
}

// activate() through the precomputed cuts against the per-edge
// bernoulli(activation_prob(e)) loop it replaces: the same active sets, round
// for round, and the same rng state after 10^4 rounds.
TEST(RandomizedMac, ActivateReplaysTheBernoulliLoop) {
  const MacFixture f(77);
  const RandomizedMac mac(f.topo, f.d, f.model);
  ASSERT_GT(f.topo.num_edges(), 100U);
  geom::Rng fast(5), slow(5);
  std::size_t active = 0;
  for (int round = 0; round < 10000; ++round) {
    std::vector<graph::EdgeId> expected;
    for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e)
      if (slow.bernoulli(mac.activation_prob(e))) expected.push_back(e);
    const std::vector<graph::EdgeId> got = mac.activate(fast);
    ASSERT_EQ(got, expected) << "round " << round;
    active += got.size();
  }
  EXPECT_GT(active, 0U);
  EXPECT_EQ(fast(), slow());
}

TEST(SlottedAloha, ActivateReplaysTheBernoulliLoop) {
  const MacFixture f(78, 60, 0.25);
  for (const double p : {0.05, 1.0 / 3.0, 1.0}) {
    const SlottedAlohaMac mac(f.topo, f.d, f.model, p);
    geom::Rng fast(6), slow(6);
    for (int round = 0; round < 10000; ++round) {
      std::vector<graph::EdgeId> expected;
      for (graph::EdgeId e = 0; e < f.topo.num_edges(); ++e)
        if (slow.bernoulli(p)) expected.push_back(e);
      ASSERT_EQ(mac.activate(fast), expected) << "p=" << p << " round "
                                               << round;
    }
    EXPECT_EQ(fast(), slow());
  }
}

TEST(RandomizedMac, DegenerateSingleEdge) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.5, 0}};
  d.max_range = 1.0;
  d.kappa = 2.0;
  graph::GraphBuilder b(2);
  b.add_edge(0, 1, 0.5, 0.25);
  const graph::Graph g = std::move(b).build();
  const RandomizedMac mac(g, d, interf::InterferenceModel{1.0});
  EXPECT_EQ(mac.interference_bound(), 1U);  // floor of 1, never divides by 0
  EXPECT_DOUBLE_EQ(mac.activation_prob(0), 0.5);
}

}  // namespace
}  // namespace thetanet::core
