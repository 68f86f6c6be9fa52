// E1 — Lemma 2.1: for every node distribution and every theta <= pi/3, the
// ThetaALG topology N is connected (whenever G* is) and has maximum degree
// at most 4*pi/theta. Expected shape: "max_deg" never exceeds "bound";
// "connected" is 1 in every row where G* is connected; Yao N_1's degree is
// unbounded on the hub-ring generator while N's stays constant.

#include "bench/common.h"

#include <algorithm>
#include <iostream>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "topology/metrics.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

using bench::kPi;

struct Gen {
  const char* name;
  topo::Deployment (*make)(std::size_t, geom::Rng&);
};

topo::Deployment g_uniform(std::size_t n, geom::Rng& rng) {
  return bench::uniform_deployment(n, rng);
}
topo::Deployment g_clustered(std::size_t n, geom::Rng& rng) {
  topo::Deployment d = bench::uniform_deployment(n, rng);
  d.positions = topo::clustered(n, 8, 0.04, 1.0, rng);
  d.max_range *= 1.5;  // clusters need more reach to stay connected
  return d;
}
topo::Deployment g_grid(std::size_t n, geom::Rng& rng) {
  topo::Deployment d = bench::uniform_deployment(n, rng);
  d.positions = topo::grid_jitter(n, 1.0, 0.3 / std::sqrt(static_cast<double>(n)), rng);
  return d;
}
topo::Deployment g_civilized(std::size_t n, geom::Rng& rng) {
  topo::Deployment d = bench::uniform_deployment(n, rng);
  d.positions = topo::civilized(n, 1.0, 0.5 / std::sqrt(static_cast<double>(n)), rng);
  return d;
}
topo::Deployment g_hub_ring(std::size_t n, geom::Rng& rng) {
  topo::Deployment d;
  d.positions = topo::hub_ring(n, 1.0, rng);
  d.max_range = 1.2;
  d.kappa = 2.0;
  return d;
}

const Gen kGens[] = {
    {"uniform", g_uniform},     {"clustered", g_clustered},
    {"grid", g_grid},           {"civilized", g_civilized},
    {"hub_ring", g_hub_ring},
};

}  // namespace
}  // namespace thetanet

int main() {
  using namespace thetanet;
  bench::print_header(
      "E1: degree bound and connectivity of ThetaALG's topology N",
      "Lemma 2.1 - N is connected; max degree <= 4*pi/theta");

  sim::Table table("E1 - Lemma 2.1 sweep",
                   {"generator", "n", "theta", "bound", "N_maxdeg",
                    "N1_maxdeg", "N_edges", "gstar_conn", "N_conn"});
  geom::Rng seed_rng(bench::kSeedRoot + 1);
  for (const auto& gen : kGens) {
    for (const std::size_t n : {64UL, 256UL, 1024UL, 4096UL}) {
      for (const double theta : {kPi / 6.0, kPi / 9.0, kPi / 12.0}) {
        // Trials: the degree bound must hold in every trial, and
        // connectivity of N must track connectivity of G* exactly.
        const int trials = n <= 1024 ? 5 : 2;
        std::size_t worst_deg = 0, worst_n1 = 0, edges = 0;
        int conn_gstar = 0, conn_n = 0;
        for (int trial = 0; trial < trials; ++trial) {
          geom::Rng rng = seed_rng.fork();
          const topo::Deployment d = gen.make(n, rng);
          const graph::Graph gstar = topo::build_transmission_graph(d);
          const core::ThetaTopology tt(d, theta);
          conn_gstar += graph::is_connected(gstar) ? 1 : 0;
          conn_n += graph::is_connected(tt.graph()) ? 1 : 0;
          worst_deg = std::max(worst_deg, tt.graph().max_degree());
          worst_n1 = std::max(worst_n1, tt.yao_graph().max_degree());
          edges = tt.graph().num_edges();
        }
        table.row({gen.name, sim::fmt(n), sim::fmt(theta, 3),
                   sim::fmt(4.0 * kPi / theta, 1), sim::fmt(worst_deg),
                   sim::fmt(worst_n1), sim::fmt(edges),
                   sim::fmt(conn_gstar) + "/" + sim::fmt(trials),
                   sim::fmt(conn_n) + "/" + sim::fmt(trials)});
      }
    }
  }
  table.print(std::cout);
  std::printf("Expected shape: N_maxdeg <= bound in every row; N_conn == 1\n"
              "whenever gstar_conn == 1; on hub_ring, N1_maxdeg ~ n-1 while\n"
              "N_maxdeg stays constant.\n");
  return 0;
}
