// E2 — Theorem 2.2: the topology N has O(1) energy-stretch for *any*
// distribution of nodes and any kappa >= 2. Expected shape: the max (and
// p99) energy edge-stretch column stays flat (bounded by a small constant)
// as n grows over two orders of magnitude and across generators, including
// the non-civilized exponential chain.

#include "bench/common.h"

#include <iostream>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

using bench::kPi;

topo::Deployment make(const std::string& gen, std::size_t n, geom::Rng& rng) {
  if (gen == "uniform") return bench::uniform_deployment(n, rng);
  if (gen == "clustered") {
    topo::Deployment d = bench::uniform_deployment(n, rng);
    d.positions = topo::clustered(n, 8, 0.04, 1.0, rng);
    d.max_range *= 1.5;
    return d;
  }
  // Non-civilized: geometrically growing gaps; range covers the largest gap.
  topo::Deployment d;
  d.positions = topo::exponential_chain(n, 1.0, 1.05, rng);
  d.max_range = 2.0 * std::pow(1.05, static_cast<double>(n));
  d.kappa = 2.0;
  return d;
}

}  // namespace
}  // namespace thetanet

int main() {
  using namespace thetanet;
  bench::print_header(
      "E2: energy-stretch of N across distributions, n and kappa",
      "Theorem 2.2 - E_{u,v} = O(|uv|^kappa): constant energy-stretch on "
      "arbitrary deployments");

  sim::Table table("E2 - energy edge-stretch of N vs G*",
                   {"generator", "n", "kappa", "theta", "max", "p99", "mean",
                    "disconnected"});
  geom::Rng seed_rng(bench::kSeedRoot + 2);
  const double theta = kPi / 9.0;
  for (const char* gen : {"uniform", "clustered", "chain"}) {
    for (const std::size_t n : {128UL, 512UL, 2048UL}) {
      for (const double kappa : {2.0, 3.0, 4.0}) {
        geom::Rng rng = seed_rng.fork();
        topo::Deployment d = make(gen, gen == std::string("chain") ? n / 4 : n, rng);
        d.kappa = kappa;
        const graph::Graph gstar = topo::build_transmission_graph(d);
        const core::ThetaTopology tt(d, theta);
        const graph::StretchStats s =
            graph::edge_stretch(tt.graph(), gstar, graph::Weight::kCost);
        table.row({gen, sim::fmt(d.size()), sim::fmt(kappa, 1),
                   sim::fmt(theta, 3), sim::fmt(s.max, 3), sim::fmt(s.p99, 3),
                   sim::fmt(s.mean, 3), sim::fmt(s.disconnected)});
      }
    }
  }
  table.print(std::cout);

  // Phase ablation: Yao N_1 vs N (phase 2 costs almost nothing in stretch
  // while capping the degree).
  sim::Table ab("E2b - ablation: phase 1 only (N_1) vs full ThetaALG (N)",
                {"n", "N1_max_stretch", "N_max_stretch", "N1_maxdeg",
                 "N_maxdeg"});
  for (const std::size_t n : {256UL, 1024UL, 4096UL}) {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(n, rng);
    const graph::Graph gstar = topo::build_transmission_graph(d);
    const core::ThetaTopology tt(d, theta);
    const graph::Graph n1 = tt.yao_graph();
    const auto s1 = graph::edge_stretch(n1, gstar, graph::Weight::kCost);
    const auto s2 = graph::edge_stretch(tt.graph(), gstar, graph::Weight::kCost);
    ab.row({sim::fmt(n), sim::fmt(s1.max, 3), sim::fmt(s2.max, 3),
            sim::fmt(n1.max_degree()), sim::fmt(tt.graph().max_degree())});
  }
  ab.print(std::cout);
  std::printf("Expected shape: 'max' flat in n for every generator/kappa —\n"
              "the O(1) of Theorem 2.2; phase 2 keeps stretch within a small\n"
              "factor of N_1 while capping the max degree.\n");
  return 0;
}
