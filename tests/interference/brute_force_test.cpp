// Brute-force O(E^2) reference for the interference kernels. The grid path
// (edge-length-sized cells, owned-pair discovery, count-only tallies) must
// reproduce the reference exactly — same set sizes and same bounds I_e, in
// edge-id order — on random instances across the guard-zone sweep, on
// degenerate layouts (coincident nodes, collinear clusters), on an instance
// with over 2^18 interfering pairs, and for every pool size.

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.h"
#include "interference/brute_force_oracle.h"
#include "interference/model.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::interf {
namespace {

void expect_grid_matches_brute(const graph::Graph& g,
                               const topo::Deployment& d, double delta) {
  const InterferenceModel m{delta};
  const auto sets = brute_sets(g, d, m);
  const auto expect_bounds = brute_bounds(sets);
  const int saved = tn::num_threads();
  for (const int threads : {1, 2, 4, 7}) {
    tn::set_num_threads(threads);
    const auto sizes = interference_set_sizes(g, d, m);
    const auto bounds = interference_bounds(g, d, m);
    tn::set_num_threads(saved);
    ASSERT_EQ(sizes.size(), sets.size()) << "threads=" << threads;
    ASSERT_EQ(bounds.size(), sets.size()) << "threads=" << threads;
    for (graph::EdgeId e = 0; e < sets.size(); ++e) {
      ASSERT_EQ(sizes[e], sets[e].size())
          << "edge " << e << " delta=" << delta << " threads=" << threads;
      ASSERT_EQ(bounds[e], expect_bounds[e])
          << "edge " << e << " delta=" << delta << " threads=" << threads;
    }
  }
}

class BruteForceSweep : public ::testing::TestWithParam<double> {};

TEST_P(BruteForceSweep, RandomInstancesMatch) {
  for (const std::uint64_t seed : {11ull, 12ull, 13ull}) {
    geom::Rng rng(seed);
    topo::Deployment d;
    d.positions = topo::uniform_square(48, 1.0, rng);
    d.max_range = 0.3;
    d.kappa = 2.0;
    const graph::Graph g = topo::build_transmission_graph(d);
    ASSERT_GT(g.num_edges(), 0u);
    expect_grid_matches_brute(g, d, GetParam());
  }
}

TEST_P(BruteForceSweep, CoincidentNodesMatch) {
  // Three stacks of coincident nodes plus a few loose ones: zero-length
  // edges (empty interference region of their own) that still sit inside
  // every longer edge's region, and a grid whose median edge length is 0.
  geom::Rng rng(21);
  topo::Deployment d;
  d.positions = topo::uniform_square(12, 1.0, rng);
  for (int s = 0; s < 3; ++s) {
    const geom::Vec2 p{0.2 + 0.3 * s, 0.5};
    for (int k = 0; k < 4; ++k) d.positions.push_back(p);
  }
  d.max_range = 0.45;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  expect_grid_matches_brute(g, d, GetParam());
}

TEST_P(BruteForceSweep, CollinearClustersMatch) {
  // Tight clusters spread along a line: a degenerate (height ~ 0) bounding
  // box and a bimodal edge-length distribution (intra- vs inter-cluster).
  geom::Rng rng(22);
  topo::Deployment d;
  for (int c = 0; c < 5; ++c)
    for (int k = 0; k < 6; ++k)
      d.positions.push_back({0.5 * c + rng.uniform(0.0, 0.02), 0.0});
  d.max_range = 0.6;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  expect_grid_matches_brute(g, d, GetParam());
}

TEST_P(BruteForceSweep, LargeInstanceMatches) {
  // Over 2^18 interfering pairs: at every pool size each chunk of both
  // walks carries thousands of pairs, and at 7 threads the max pass folds
  // 56 partial arrays.
  geom::Rng rng(23);
  topo::Deployment d;
  d.positions = topo::uniform_square(300, 1.0, rng);
  d.max_range = 0.15;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const InterferenceModel m{GetParam()};
  std::size_t pairs = 0;
  for (const std::uint32_t s : interference_set_sizes(g, d, m)) pairs += s;
  pairs /= 2;  // each pair sits in both of its edges' sets
  ASSERT_GT(pairs, std::size_t{1} << 18);
  expect_grid_matches_brute(g, d, GetParam());
}

INSTANTIATE_TEST_SUITE_P(DeltaSweep, BruteForceSweep,
                         ::testing::Values(0.5, 1.0, 2.0));

TEST(BruteForce, EmptyAndSingleEdgeGraphs) {
  topo::Deployment d;
  d.positions = {{0.0, 0.0}, {0.1, 0.0}};
  d.max_range = 0.2;
  const InterferenceModel m{1.0};
  graph::Graph empty(2);
  EXPECT_TRUE(interference_set_sizes(empty, d, m).empty());
  EXPECT_TRUE(interference_bounds(empty, d, m).empty());
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_EQ(g.num_edges(), 1u);
  EXPECT_EQ(interference_set_sizes(g, d, m), std::vector<std::uint32_t>{0});
  EXPECT_EQ(interference_bounds(g, d, m), std::vector<std::uint32_t>{1});
  EXPECT_EQ(interference_number(g, d, m), 0u);
}

}  // namespace
}  // namespace thetanet::interf
