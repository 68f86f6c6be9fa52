#include "core/theta_topology.h"

#include <gtest/gtest.h>

#include <numbers>

#include "geom/angles.h"
#include "graph/connectivity.h"
#include "interference/model.h"
#include "graph/stretch.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::core {
namespace {

constexpr double kPi = std::numbers::pi;

struct Generator {
  const char* name;
  std::vector<geom::Vec2> (*make)(std::size_t, geom::Rng&);
  double range;
};

std::vector<geom::Vec2> gen_uniform(std::size_t n, geom::Rng& rng) {
  return topo::uniform_square(n, 1.0, rng);
}
std::vector<geom::Vec2> gen_clustered(std::size_t n, geom::Rng& rng) {
  return topo::clustered(n, 5, 0.05, 1.0, rng);
}
std::vector<geom::Vec2> gen_grid(std::size_t n, geom::Rng& rng) {
  return topo::grid_jitter(n, 1.0, 0.02, rng);
}
std::vector<geom::Vec2> gen_civilized(std::size_t n, geom::Rng& rng) {
  return topo::civilized(n, 1.0, 0.03, rng);
}
std::vector<geom::Vec2> gen_ring(std::size_t n, geom::Rng& rng) {
  return topo::hub_ring(n, 0.3, rng);
}

const Generator kGenerators[] = {
    {"uniform", gen_uniform, 0.3},   {"clustered", gen_clustered, 0.3},
    {"grid", gen_grid, 0.3},         {"civilized", gen_civilized, 0.3},
    {"hub_ring", gen_ring, 0.7},
};

class ThetaAcrossGenerators
    : public ::testing::TestWithParam<std::tuple<int, double>> {};

// Lemma 2.1: N is connected (when G* is) and max degree <= 4*pi/theta.
TEST_P(ThetaAcrossGenerators, Lemma21DegreeBoundAndConnectivity) {
  const auto [gen_idx, theta] = GetParam();
  const Generator& gen = kGenerators[gen_idx];
  geom::Rng rng(1000 + static_cast<std::uint64_t>(gen_idx));
  for (int trial = 0; trial < 3; ++trial) {
    topo::Deployment d;
    d.positions = gen.make(128, rng);
    d.max_range = gen.range;
    d.kappa = 2.0;
    const graph::Graph gstar = topo::build_transmission_graph(d);
    if (!graph::is_connected(gstar)) continue;
    const ThetaTopology tt(d, theta);
    EXPECT_TRUE(graph::is_connected(tt.graph()))
        << gen.name << " trial " << trial;
    EXPECT_LE(static_cast<double>(tt.graph().max_degree()), 4.0 * kPi / theta)
        << gen.name << " trial " << trial;
  }
}

// Theorem 2.2: O(1) energy-stretch for arbitrary node distributions. The
// empirical constant must stay below a fixed bound across all generators.
TEST_P(ThetaAcrossGenerators, Theorem22EnergyStretchBounded) {
  const auto [gen_idx, theta] = GetParam();
  const Generator& gen = kGenerators[gen_idx];
  geom::Rng rng(2000 + static_cast<std::uint64_t>(gen_idx));
  topo::Deployment d;
  d.positions = gen.make(128, rng);
  d.max_range = gen.range;
  d.kappa = 2.0;
  const graph::Graph gstar = topo::build_transmission_graph(d);
  if (!graph::is_connected(gstar)) GTEST_SKIP();
  const ThetaTopology tt(d, theta);
  const graph::StretchStats s =
      graph::edge_stretch(tt.graph(), gstar, graph::Weight::kCost);
  EXPECT_FALSE(s.disconnected) << gen.name;
  // Theta <= pi/6 gives a small constant in practice; 6.0 is a generous
  // fixed ceiling that a super-constant stretch would blow through.
  EXPECT_LE(s.max, 6.0) << gen.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllGeneratorsAndThetas, ThetaAcrossGenerators,
    ::testing::Combine(::testing::Range(0, 5),
                       ::testing::Values(kPi / 6.0, kPi / 9.0, kPi / 12.0)));

TEST(ThetaTopology, SubgraphOfYaoWhichIsSubgraphOfGStar) {
  geom::Rng rng(3);
  topo::Deployment d;
  d.positions = topo::uniform_square(150, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const ThetaTopology tt(d, kPi / 6.0);
  const graph::Graph n1 = tt.yao_graph();
  const graph::Graph gstar = topo::build_transmission_graph(d);
  for (const graph::Edge& e : tt.graph().edges()) {
    EXPECT_TRUE(n1.has_edge(e.u, e.v)) << e.u << "," << e.v;
    EXPECT_TRUE(gstar.has_edge(e.u, e.v));
  }
}

TEST(ThetaTopology, HubRingPhase2CapsTheHubDegree) {
  // The construction where the Yao graph has in-degree n-1 at the hub:
  // phase 2 brings it down to <= 2 * sectors (Lemma 2.1's point).
  geom::Rng rng(4);
  const std::size_t n = 96;
  topo::Deployment d;
  d.positions = topo::hub_ring(n, 1.0, rng);
  d.max_range = 1.2;
  d.kappa = 2.0;
  const double theta = kPi / 6.0;
  const ThetaTopology tt(d, theta);
  const graph::Graph n1 = tt.yao_graph();
  EXPECT_EQ(n1.degree(0), n - 1);  // Yao failure mode
  EXPECT_LE(static_cast<double>(tt.graph().degree(0)), 4.0 * kPi / theta);
  EXPECT_TRUE(graph::is_connected(tt.graph()));
}

TEST(ThetaTopology, AdmittedEdgesExistAndAreShortestSelectors) {
  geom::Rng rng(5);
  topo::Deployment d;
  d.positions = topo::uniform_square(100, 1.0, rng);
  d.max_range = 0.4;
  d.kappa = 2.0;
  const double theta = kPi / 6.0;
  const ThetaTopology tt(d, theta);
  for (graph::NodeId v = 0; v < d.size(); ++v) {
    for (int s = 0; s < tt.sectors(); ++s) {
      const graph::NodeId w = tt.admitted(v, s);
      if (w == graph::kInvalidNode) continue;
      // The admitted edge is materialized in N.
      EXPECT_NE(tt.graph().find_edge(v, w), graph::kInvalidEdge);
      // w selected v in phase 1.
      EXPECT_TRUE(tt.selects(w, v));
      // w lies in sector s of v.
      EXPECT_EQ(geom::sector_index(d.positions[v], d.positions[w], theta), s);
      // No closer selector of v exists in this sector.
      for (graph::NodeId u = 0; u < d.size(); ++u) {
        if (u == v || u == w || !d.in_range(u, v)) continue;
        if (geom::sector_index(d.positions[v], d.positions[u], theta) != s)
          continue;
        if (tt.selects(u, v)) {
          EXPECT_TRUE(topo::nearer(d, v, w, u))
              << "admitted " << w << " not nearest selector at " << v;
        }
      }
    }
  }
}

TEST(ThetaTopology, EveryEdgeOfNWasAdmittedBySomeSide) {
  geom::Rng rng(6);
  topo::Deployment d;
  d.positions = topo::uniform_square(80, 1.0, rng);
  d.max_range = 0.4;
  d.kappa = 2.0;
  const double theta = kPi / 9.0;
  const ThetaTopology tt(d, theta);
  for (const graph::Edge& e : tt.graph().edges()) {
    const int su = geom::sector_index(d.positions[e.u], d.positions[e.v], theta);
    const int sv = geom::sector_index(d.positions[e.v], d.positions[e.u], theta);
    EXPECT_TRUE(tt.admitted(e.u, su) == e.v || tt.admitted(e.v, sv) == e.u);
  }
}

// Theorem 2.7: distance-stretch on civilized deployments is O(1).
TEST(ThetaTopology, Theorem27CivilizedDistanceStretch) {
  geom::Rng rng(7);
  for (int trial = 0; trial < 3; ++trial) {
    topo::Deployment d;
    d.positions = topo::civilized(200, 1.0, 0.04, rng);
    d.max_range = 0.2;  // lambda = 0.2
    d.kappa = 2.0;
    const graph::Graph gstar = topo::build_transmission_graph(d);
    if (!graph::is_connected(gstar)) continue;
    const ThetaTopology tt(d, kPi / 12.0);
    const graph::StretchStats s =
        graph::edge_stretch(tt.graph(), gstar, graph::Weight::kLength);
    EXPECT_FALSE(s.disconnected);
    EXPECT_LE(s.max, 8.0) << "trial " << trial;
  }
}

TEST(ThetaTopology, ReplacementPathsConnectTheirEndpoints) {
  geom::Rng rng(8);
  topo::Deployment d;
  d.positions = topo::uniform_square(120, 1.0, rng);
  d.max_range = 0.35;
  d.kappa = 2.0;
  const ThetaTopology tt(d, kPi / 6.0);
  const graph::Graph gstar = topo::build_transmission_graph(d);
  for (graph::EdgeId e = 0; e < gstar.num_edges(); e += 7) {
    const graph::Edge& ge = gstar.edge(e);
    const auto path = tt.replacement_path(ge.u, ge.v);
    ASSERT_FALSE(path.empty());
    // Walk the path: consecutive edges share endpoints, u -> ... -> v.
    graph::NodeId at = ge.u;
    for (const graph::EdgeId pe : path) {
      const graph::Edge& edge = tt.graph().edge(pe);
      ASSERT_TRUE(edge.u == at || edge.v == at) << "disconnected theta-path";
      at = edge.other(at);
    }
    EXPECT_EQ(at, ge.v);
  }
}

// Lemma 2.9: over any set of *non-interfering* G* edges, each N edge is
// reused by at most a constant number of replacement paths (paper: 6).
TEST(ThetaTopology, Lemma29BoundedReplacementReuse) {
  geom::Rng rng(9);
  topo::Deployment d;
  d.positions = topo::uniform_square(200, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const ThetaTopology tt(d, kPi / 6.0);
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const interf::InterferenceModel m{0.5};

  // Build a maximal non-interfering edge set T greedily.
  std::vector<std::pair<graph::NodeId, graph::NodeId>> matching;
  std::vector<graph::EdgeId> chosen;
  for (graph::EdgeId e = 0; e < gstar.num_edges(); ++e) {
    const graph::Edge& ge = gstar.edge(e);
    bool ok = true;
    for (const graph::EdgeId f : chosen) {
      const graph::Edge& fe = gstar.edge(f);
      if (m.in_interference_set(d.positions[ge.u], d.positions[ge.v],
                                d.positions[fe.u], d.positions[fe.v])) {
        ok = false;
        break;
      }
    }
    if (ok) {
      chosen.push_back(e);
      matching.push_back({ge.u, ge.v});
    }
  }
  ASSERT_GT(matching.size(), 3U);
  EXPECT_LE(tt.max_replacement_reuse(matching), 6U);
}

TEST(ThetaTopology, DeterministicConstruction) {
  geom::Rng rng(10);
  topo::Deployment d;
  d.positions = topo::uniform_square(100, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const ThetaTopology a(d, kPi / 6.0);
  const ThetaTopology b(d, kPi / 6.0);
  ASSERT_EQ(a.graph().num_edges(), b.graph().num_edges());
  for (graph::EdgeId e = 0; e < a.graph().num_edges(); ++e) {
    EXPECT_EQ(a.graph().edge(e).u, b.graph().edge(e).u);
    EXPECT_EQ(a.graph().edge(e).v, b.graph().edge(e).v);
  }
}

TEST(ThetaTopology, KappaSweepKeepsStretchBounded) {
  geom::Rng rng(11);
  topo::Deployment base;
  base.positions = topo::uniform_square(100, 1.0, rng);
  base.max_range = 0.35;
  for (const double kappa : {2.0, 3.0, 4.0}) {
    topo::Deployment d = base;
    d.kappa = kappa;
    const graph::Graph gstar = topo::build_transmission_graph(d);
    if (!graph::is_connected(gstar)) continue;
    const ThetaTopology tt(d, kPi / 9.0);
    const graph::StretchStats s =
        graph::edge_stretch(tt.graph(), gstar, graph::Weight::kCost);
    EXPECT_LE(s.max, 6.0) << "kappa " << kappa;
  }
}

TEST(ThetaTopology, TwoNodes) {
  topo::Deployment d;
  d.positions = {{0, 0}, {0.1, 0.1}};
  d.max_range = 1.0;
  d.kappa = 2.0;
  const ThetaTopology tt(d, kPi / 6.0);
  EXPECT_EQ(tt.graph().num_edges(), 1U);
  EXPECT_EQ(tt.replacement_path(0, 1).size(), 1U);
}

}  // namespace
}  // namespace thetanet::core
