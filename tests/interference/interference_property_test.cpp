// Property suite for the interference model: set sizes must agree with the
// pairwise predicate, the interference number must be monotone in the
// guard zone Delta, and conflict resolution must agree with the directed
// predicate.

#include <gtest/gtest.h>

#include <utility>

#include "interference/model.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::interf {
namespace {

struct Instance {
  topo::Deployment d;
  graph::Graph g;
};

Instance make_instance(std::uint64_t seed, std::size_t n, double range) {
  geom::Rng rng(seed);
  Instance inst;
  inst.d.positions = topo::uniform_square(n, 1.0, rng);
  inst.d.max_range = range;
  inst.d.kappa = 2.0;
  inst.g = topo::build_transmission_graph(inst.d);
  return inst;
}

class InterferenceProperty : public ::testing::TestWithParam<double> {};

TEST_P(InterferenceProperty, SetsAgreeWithPairwisePredicate) {
  const double delta = GetParam();
  const Instance inst = make_instance(91, 50, 0.3);
  const InterferenceModel m{delta};
  const auto sizes = interference_set_sizes(inst.g, inst.d, m);
  for (graph::EdgeId a = 0; a < inst.g.num_edges(); ++a) {
    std::uint32_t members = 0;
    for (graph::EdgeId b = 0; b < inst.g.num_edges(); ++b) {
      if (a == b) continue;
      const graph::Edge& ea = inst.g.edge(a);
      const graph::Edge& eb = inst.g.edge(b);
      members += m.in_interference_set(
          inst.d.positions[ea.u], inst.d.positions[ea.v],
          inst.d.positions[eb.u], inst.d.positions[eb.v]);
    }
    ASSERT_EQ(sizes[a], members) << "edge " << a;
  }
}

TEST_P(InterferenceProperty, ResolveAgreesWithSets) {
  const double delta = GetParam();
  const Instance inst = make_instance(92, 60, 0.25);
  const InterferenceModel m{delta};
  geom::Rng rng(93);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<graph::EdgeId> chosen;
    for (graph::EdgeId e = 0; e < inst.g.num_edges(); ++e)
      if (rng.bernoulli(0.05)) chosen.push_back(e);
    const auto failed = failed_transmissions(chosen, inst.g, inst.d, m);
    for (std::size_t i = 0; i < chosen.size(); ++i) {
      // A transmission fails iff some other chosen edge *interferes with*
      // it (directed). Interference sets are the symmetric closure, so
      // compute the directed predicate directly.
      bool expect_fail = false;
      const graph::Edge& ei = inst.g.edge(chosen[i]);
      for (std::size_t j = 0; j < chosen.size() && !expect_fail; ++j) {
        if (i == j) continue;
        const graph::Edge& ej = inst.g.edge(chosen[j]);
        expect_fail = m.interferes(
            inst.d.positions[ej.u], inst.d.positions[ej.v],
            inst.d.positions[ei.u], inst.d.positions[ei.v]);
      }
      ASSERT_EQ(failed[i], expect_fail);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, InterferenceProperty,
                         ::testing::Values(0.1, 0.5, 1.0, 2.0));

TEST(InterferenceMonotonicity, NumberGrowsWithDelta) {
  const Instance inst = make_instance(94, 100, 0.2);
  std::uint32_t prev = 0;
  for (const double delta : {0.1, 0.5, 1.0, 2.0, 4.0}) {
    const std::uint32_t i_n =
        interference_number(inst.g, inst.d, InterferenceModel{delta});
    EXPECT_GE(i_n, prev) << "delta " << delta;
    prev = i_n;
  }
}

TEST(InterferenceMonotonicity, SubgraphHasSmallerNumber) {
  const Instance inst = make_instance(95, 80, 0.3);
  const InterferenceModel m{1.0};
  // Keep every other edge.
  graph::GraphBuilder b(inst.g.num_nodes());
  for (graph::EdgeId e = 0; e < inst.g.num_edges(); e += 2) {
    const graph::Edge& edge = inst.g.edge(e);
    b.add_edge(edge.u, edge.v, edge.length, edge.cost);
  }
  const graph::Graph sub = std::move(b).build();
  EXPECT_LE(interference_number(sub, inst.d, m),
            interference_number(inst.g, inst.d, m));
}

}  // namespace
}  // namespace thetanet::interf
