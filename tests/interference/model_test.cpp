#include "interference/model.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "interference/brute_force_oracle.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::interf {
namespace {

using geom::Vec2;

TEST(InterferenceModel, GuardRadiusScalesWithLength) {
  const InterferenceModel m{0.5};
  EXPECT_DOUBLE_EQ(m.guard_radius(2.0), 3.0);
  EXPECT_DOUBLE_EQ(m.guard_radius(0.0), 0.0);
}

TEST(InterferenceModel, RegionCoversUnionOfDisks) {
  const InterferenceModel m{1.0};  // guard radius 2 * len
  const Vec2 a{0, 0}, b{1, 0};     // len 1 -> disks of radius 2 at both ends
  EXPECT_TRUE(m.region_covers(a, b, {-1.5, 0}));  // near a
  EXPECT_TRUE(m.region_covers(a, b, {2.5, 0}));   // near b
  EXPECT_FALSE(m.region_covers(a, b, {4.0, 0}));  // beyond both
  EXPECT_FALSE(m.region_covers(a, b, {-2.0, 0})); // open disk: boundary out
}

TEST(InterferenceModel, DirectedInterference) {
  const InterferenceModel m{0.5};
  // Long edge e' interferes with a far short edge, but not vice versa.
  const Vec2 x1{0, 0}, x2{10, 0};   // guard radius 15
  const Vec2 y1{12, 0}, y2{12.5, 0};  // guard radius 0.75
  EXPECT_TRUE(m.interferes(x1, x2, y1, y2));
  EXPECT_FALSE(m.interferes(y1, y2, x1, x2));
  EXPECT_TRUE(m.in_interference_set(x1, x2, y1, y2));
  EXPECT_TRUE(m.in_interference_set(y1, y2, x1, x2));  // symmetric closure
}

TEST(InterferenceModel, DisjointFarEdgesDoNotInterfere) {
  const InterferenceModel m{0.5};
  EXPECT_FALSE(m.in_interference_set({0, 0}, {1, 0}, {100, 0}, {101, 0}));
}

TEST(InterferenceSets, MatchBruteForce) {
  geom::Rng rng(51);
  topo::Deployment d;
  d.positions = topo::uniform_square(60, 1.0, rng);
  d.max_range = 0.25;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const InterferenceModel m{0.5};
  const auto sets = brute_sets(g, d, m);
  const auto sizes = interference_set_sizes(g, d, m);
  const auto bounds = interference_bounds(g, d, m);
  const auto expect_bounds = brute_bounds(sets);
  ASSERT_EQ(sizes.size(), sets.size());
  ASSERT_EQ(bounds.size(), sets.size());
  for (graph::EdgeId e = 0; e < sets.size(); ++e) {
    ASSERT_EQ(sizes[e], sets[e].size()) << "edge " << e;
    ASSERT_EQ(bounds[e], expect_bounds[e]) << "edge " << e;
  }
}

TEST(InterferenceSets, SizesAndNumberAgree) {
  geom::Rng rng(52);
  topo::Deployment d;
  d.positions = topo::uniform_square(80, 1.0, rng);
  d.max_range = 0.2;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const InterferenceModel m{1.0};
  const auto sets = brute_sets(g, d, m);
  const auto sizes = interference_set_sizes(g, d, m);
  std::uint32_t max_size = 0;
  for (graph::EdgeId e = 0; e < sets.size(); ++e) {
    ASSERT_EQ(sizes[e], sets[e].size());
    max_size = std::max(max_size, sizes[e]);
  }
  EXPECT_EQ(interference_number(g, d, m), max_size);
}

TEST(InterferenceSets, SymmetricMembership) {
  // I(e) is the symmetric closure of the directed relation: e' in I(e)
  // exactly when e in I(e').
  geom::Rng rng(53);
  topo::Deployment d;
  d.positions = topo::uniform_square(50, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const InterferenceModel m{0.75};
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    for (graph::EdgeId f = 0; f < g.num_edges(); ++f) {
      const graph::Edge& ee = g.edge(e);
      const graph::Edge& ff = g.edge(f);
      ASSERT_EQ(m.in_interference_set(d.positions[ee.u], d.positions[ee.v],
                                      d.positions[ff.u], d.positions[ff.v]),
                m.in_interference_set(d.positions[ff.u], d.positions[ff.v],
                                      d.positions[ee.u], d.positions[ee.v]))
          << e << " in I(" << f << ")?";
    }
}

TEST(InterferenceSets, AdjacentEdgesAlwaysInterfere) {
  // Edges sharing a node are within each other's guard region by definition
  // (the shared endpoint is inside both open disks), so |I(e)| counts at
  // least every other edge at either endpoint.
  geom::Rng rng(54);
  topo::Deployment d;
  d.positions = topo::uniform_square(60, 1.0, rng);
  d.max_range = 0.3;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const InterferenceModel m{0.5};
  for (graph::NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i)
      for (std::size_t j = i + 1; j < nbrs.size(); ++j) {
        const graph::Edge& a = g.edge(nbrs[i].edge);
        const graph::Edge& b = g.edge(nbrs[j].edge);
        ASSERT_TRUE(m.in_interference_set(d.positions[a.u], d.positions[a.v],
                                          d.positions[b.u], d.positions[b.v]));
      }
  }
  const auto sizes = interference_set_sizes(g, d, m);
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge& ee = g.edge(e);
    ASSERT_GE(sizes[e],
              g.neighbors(ee.u).size() + g.neighbors(ee.v).size() - 2)
        << "edge " << e;
  }
}

TEST(FailedTransmissions, PairwiseOutcomes) {
  topo::Deployment d;
  d.positions = {{0, 0}, {1, 0}, {10, 0}, {11, 0}, {1.5, 0}, {2.5, 0}};
  d.max_range = 1.5;
  d.kappa = 2.0;
  graph::GraphBuilder b(6);
  const graph::EdgeId e01 = b.add_edge(0, 1, 1.0, 1.0);
  const graph::EdgeId e23 = b.add_edge(2, 3, 1.0, 1.0);
  const graph::EdgeId e45 = b.add_edge(4, 5, 1.0, 1.0);
  const graph::Graph g = std::move(b).build();
  const InterferenceModel m{0.5};  // guard radius 1.5 per unit edge

  // Far apart: both succeed.
  {
    const std::vector<graph::EdgeId> chosen{e01, e23};
    const auto failed = failed_transmissions(chosen, g, d, m);
    EXPECT_FALSE(failed[0]);
    EXPECT_FALSE(failed[1]);
  }
  // Overlapping neighbourhoods: both fail (node 4 is within 1.5 of node 1
  // and vice versa).
  {
    const std::vector<graph::EdgeId> chosen{e01, e45};
    const auto failed = failed_transmissions(chosen, g, d, m);
    EXPECT_TRUE(failed[0]);
    EXPECT_TRUE(failed[1]);
  }
  // Single transmission never fails.
  {
    const std::vector<graph::EdgeId> chosen{e01};
    EXPECT_FALSE(failed_transmissions(chosen, g, d, m)[0]);
  }
  // Empty set.
  EXPECT_TRUE(failed_transmissions({}, g, d, m).empty());
}

}  // namespace
}  // namespace thetanet::interf
