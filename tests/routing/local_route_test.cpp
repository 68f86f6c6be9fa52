// O(1)-memory local routing (routing/local_route.h): compass exactness on
// G*-adjacent pairs, the planted tie-break mutation's failure mode, the Θ₄
// empirical routing-ratio bound (Bose et al.'s 17x regime, pinned by the
// routing_ratio_bound ctest), and bit-determinism of measured ratios across
// thread counts.

#include <gtest/gtest.h>

#include <cmath>
#include <utility>

#include "common/parallel.h"
#include "geom/rng.h"
#include "routing/local_route.h"
#include "topology/distributions.h"
#include "topology/theta_graphs.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

topo::Deployment uniform_deployment(std::size_t n, std::uint64_t seed,
                                    double range) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

/// Three collinear nodes with w beyond t: from s both t and w are exact
/// angle-0 compass candidates (identical bearings). The committed corpus
/// case routing-compass-collinear-trio is this deployment.
topo::Deployment collinear_trio() {
  topo::Deployment d;
  d.positions = {{0.1, 0.5}, {0.6, 0.5}, {0.85, 0.5}};
  d.max_range = 0.8;
  d.kappa = 2.0;
  return d;
}

TEST(LocalRoute, CompassDeliversCollinearTrioAtRatioOne) {
  const topo::Deployment d = collinear_trio();
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_EQ(g.num_edges(), 3u);  // complete
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kCompass;
  const route::LocalRouteResult r = route::local_route(g, d, 0, 1, lr);
  EXPECT_TRUE(r.delivered);
  EXPECT_EQ(r.hops, 1u);  // nearest-first tie-break: t beats the farther w
  EXPECT_NEAR(r.length, d.distance(0, 1), 1e-12);
}

TEST(LocalRoute, PlantedTieBreakOvershootsAndNeverDelivers) {
  const topo::Deployment d = collinear_trio();
  const graph::Graph g = topo::build_transmission_graph(d);
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kCompass;
  lr.plant_wrong_tie_break = true;
  const route::LocalRouteResult r = route::local_route(g, d, 0, 1, lr);
  // Farthest-first overshoots s -> w, then bounces w -> s -> w forever:
  // the walk burns its whole budget without reaching t.
  EXPECT_FALSE(r.delivered);
  EXPECT_EQ(r.hops, 4 * d.size() + 16);
}

TEST(LocalRoute, CompassAdjacentPairsOnGstarHaveUnitRatio) {
  const topo::Deployment d = uniform_deployment(60, 0x10ca1, 0.35);
  const graph::Graph g = topo::build_transmission_graph(d);
  ASSERT_GT(g.num_edges(), 0u);
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kCompass;
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    for (const auto& [s, t] : {std::pair(ed.u, ed.v), std::pair(ed.v, ed.u)}) {
      const route::LocalRouteResult r = route::local_route(g, d, s, t, lr);
      ASSERT_TRUE(r.delivered) << "pair " << s << "->" << t;
      EXPECT_LE(r.length / ed.length, 1.0 + 1e-9);
    }
  }
}

TEST(LocalRoute, HopBudgetBoundsBrokenWalks) {
  // Two components: a pair and an isolated far node — undeliverable.
  topo::Deployment d;
  d.positions = {{0.0, 0.0}, {0.1, 0.0}, {10.0, 0.0}};
  d.max_range = 0.5;
  d.kappa = 2.0;
  const graph::Graph g = topo::build_transmission_graph(d);
  const route::LocalRouteResult r = route::local_route(g, d, 0, 2);
  EXPECT_FALSE(r.delivered);
  EXPECT_LE(r.hops, 4 * d.size() + 16);
}

TEST(LocalRoute, Theta4StaysUnderSeventeenOnCompleteFamilies) {
  // Bose et al. prove 17x for Θ₄ (with their routing algorithm); here we
  // pin the *empirical* ratio of plain theta-routing on Θ₄ over the
  // fixed-seed complete instance families the acceptance criterion names.
  // The seeds below are the ctest contract — do not reseed casually.
  for (const std::uint64_t seed : {1ULL, 7ULL, 21ULL}) {
    for (const std::size_t n : {12u, 24u, 40u}) {
      const topo::Deployment d = uniform_deployment(n, seed, 1.5);
      const graph::Graph gstar = topo::build_transmission_graph(d);
      ASSERT_EQ(gstar.num_edges(), n * (n - 1) / 2);  // complete
      const graph::Graph t4 = topo::theta4_graph(d);
      route::LocalRouteOptions lr;
      lr.policy = route::LocalPolicy::kTheta;
      lr.scheme = topo::theta4_scheme();
      const route::RoutingRatioStats s =
          route::measure_routing_ratio(t4, d, lr, 4096, seed);
      EXPECT_EQ(s.delivered, s.pairs)
          << "seed " << seed << " n " << n;
      EXPECT_LE(s.max_ratio, 17.0) << "seed " << seed << " n " << n;
    }
  }
}

TEST(LocalRoute, MeasuredRatioIsThreadInvariant) {
  const topo::Deployment d = uniform_deployment(120, 0xdead, 0.3);
  const graph::Graph g = topo::build_transmission_graph(d);
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kTheta;
  tn::set_num_threads(1);
  const route::RoutingRatioStats base =
      route::measure_routing_ratio(g, d, lr, 512, 3);
  ASSERT_GT(base.pairs, 0u);
  for (const int threads : {2, 4}) {
    tn::set_num_threads(threads);
    const route::RoutingRatioStats got =
        route::measure_routing_ratio(g, d, lr, 512, 3);
    EXPECT_EQ(got.pairs, base.pairs);
    EXPECT_EQ(got.delivered, base.delivered);
    EXPECT_EQ(got.max_ratio, base.max_ratio);  // bit-equal, not approximate
    EXPECT_EQ(got.mean_ratio, base.mean_ratio);
  }
  tn::set_num_threads(1);
}

TEST(LocalRoute, MeasuredRatioOnABuilderMadeGraphAtFourThreadsMatchesSerial) {
  // A graph copied edge by edge through a GraphBuilder and swept by four
  // workers at once must give what the library-built G* gives serially
  // (under -DTHETANET_TSAN=ON this case is the race probe for concurrent
  // neighbors() reads).
  const topo::Deployment d = uniform_deployment(120, 0xdead, 0.3);
  const graph::Graph gstar = topo::build_transmission_graph(d);
  graph::GraphBuilder b(d.size());
  for (graph::EdgeId e = 0; e < gstar.num_edges(); ++e)
    b.add_edge(gstar.edge_u(e), gstar.edge_v(e), gstar.edge_length(e),
               gstar.edge_cost(e));
  const graph::Graph copy = std::move(b).build();
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kTheta;
  tn::set_num_threads(4);
  const route::RoutingRatioStats got =
      route::measure_routing_ratio(copy, d, lr, 512, 3);
  tn::set_num_threads(1);
  const route::RoutingRatioStats base =
      route::measure_routing_ratio(gstar, d, lr, 512, 3);
  ASSERT_GT(base.pairs, 0u);
  EXPECT_EQ(got.pairs, base.pairs);
  EXPECT_EQ(got.delivered, base.delivered);
  EXPECT_EQ(got.max_ratio, base.max_ratio);
  EXPECT_EQ(got.mean_ratio, base.mean_ratio);
}

}  // namespace
}  // namespace thetanet
