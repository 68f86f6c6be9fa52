// E3 — Theorem 2.7: on civilized (lambda-precision) deployments, N has O(1)
// distance-stretch. Expected shape: flat max distance-stretch across n for
// each lambda; the non-civilized chain shows visibly larger distance-stretch
// (the spanner question for arbitrary graphs is open — Section 2).

#include "bench/common.h"

#include <iostream>

#include "core/theta_topology.h"
#include "graph/stretch.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E3: distance-stretch of N on civilized deployments",
      "Theorem 2.7 - O(1) distance-stretch when min separation >= lambda*D");

  const double theta = bench::kPi / 12.0;
  sim::Table table("E3 - distance edge-stretch of N vs G* (civilized)",
                   {"lambda", "n", "max", "p99", "mean"});
  geom::Rng seed_rng(bench::kSeedRoot + 3);
  for (const double lambda : {0.1, 0.25, 0.5}) {
    for (const std::size_t n : {128UL, 512UL, 2048UL}) {
      geom::Rng rng = seed_rng.fork();
      topo::Deployment d;
      // A jittered grid realizes lambda-precision exactly: grid step s gives
      // min separation ~0.9*s, and D = min_sep / lambda yields the target
      // lambda while keeping G* connected (D >= 1.8*s for lambda <= 0.5).
      const double step = 1.0 / std::sqrt(static_cast<double>(n));
      d.positions = topo::grid_jitter(n, 1.0, 0.05 * step, rng);
      const double min_sep = 0.9 * step;
      d.max_range = min_sep / lambda;
      d.kappa = 2.0;
      const graph::Graph gstar = topo::build_transmission_graph(d);
      const core::ThetaTopology tt(d, theta);
      const graph::StretchStats s =
          graph::edge_stretch(tt.graph(), gstar, graph::Weight::kLength);
      table.row({sim::fmt(lambda, 2), sim::fmt(n), sim::fmt(s.max, 3),
                 sim::fmt(s.p99, 3), sim::fmt(s.mean, 3)});
    }
  }
  table.print(std::cout);

  // Contrast: non-civilized fractal clusters (pairwise distances span
  // ratio^levels orders of magnitude in 2-D).
  sim::Table chain("E3b - non-civilized contrast (nested fractal clusters)",
                   {"levels", "n", "dist_stretch_max", "energy_stretch_max"});
  for (const int levels : {2, 4, 6}) {
    geom::Rng rng = seed_rng.fork();
    const std::size_t n = 512;
    topo::Deployment d;
    d.positions = topo::nested_clusters(n, levels, 8.0, 1.0, rng);
    d.max_range = 2.0;  // covers the whole square: G* complete
    d.kappa = 2.0;
    const graph::Graph gstar = topo::build_transmission_graph(d);
    const core::ThetaTopology tt(d, theta);
    const auto sl = graph::edge_stretch(tt.graph(), gstar, graph::Weight::kLength);
    const auto sc = graph::edge_stretch(tt.graph(), gstar, graph::Weight::kCost);
    chain.row({sim::fmt(levels), sim::fmt(n), sim::fmt(sl.max, 3),
               sim::fmt(sc.max, 3)});
  }
  chain.print(std::cout);
  std::printf("Expected shape: civilized rows flat in n (Theorem 2.7); the\n"
              "chain's energy-stretch stays O(1) (Theorem 2.2) even where\n"
              "distance-stretch is larger (spanner status open).\n");
  return 0;
}
