// E4 — Lemma 2.10: for n nodes uniform in the unit square, the interference
// number of N is O(log n) whp. Expected shape: successive growth ratios
// I(4n)/I(n) decay towards 1 (logarithmic growth adds a constant per
// quadrupling: (log 4n)/(log n) -> 1), while I(G*) stays polynomially
// larger; Delta scales I(N) by a constant factor only.

#include "bench/common.h"

#include <iostream>

#include "core/theta_topology.h"
#include "sim/stats.h"
#include "interference/model.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E4: interference number scaling on uniform random deployments",
      "Lemma 2.10 - I(N) = O(log n) whp for uniform placement");

  const interf::InterferenceModel model{1.0};
  sim::Table table("E4 - interference number of N vs n (Delta = 1)",
                   {"n", "I_N", "I_N/log2n", "growth(x4 n)"});
  geom::Rng seed_rng(bench::kSeedRoot + 4);
  double prev = 0.0;
  for (const std::size_t n : {64UL, 256UL, 1024UL, 4096UL, 16384UL}) {
    const int trials = n <= 4096 ? 3 : 1;
    sim::Accumulator acc;
    for (int trial = 0; trial < trials; ++trial) {
      geom::Rng rng = seed_rng.fork();
      const topo::Deployment d = bench::uniform_deployment(n, rng);
      const core::ThetaTopology tt(d, bench::kPi / 9.0);
      acc.add(interf::interference_number(tt.graph(), d, model));
    }
    const double i_n = acc.mean();
    table.row({sim::fmt(n), sim::fmt_mean_sd(acc, 0),
               sim::fmt(i_n / std::log2(static_cast<double>(n)), 2),
               prev > 0.0 ? sim::fmt(i_n / prev, 2) : std::string("-")});
    prev = i_n;
  }
  table.print(std::cout);

  sim::Table contrast("E4b - contrast topologies (smaller n; sets are huge)",
                      {"n", "I_N", "I_N1", "I_gabriel", "I_gstar"});
  for (const std::size_t n : {64UL, 256UL, 1024UL}) {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(n, rng);
    const core::ThetaTopology tt(d, bench::kPi / 9.0);
    contrast.row(
        {sim::fmt(n),
         sim::fmt(interf::interference_number(tt.graph(), d, model)),
         sim::fmt(interf::interference_number(tt.yao_graph(), d, model)),
         sim::fmt(interf::interference_number(topo::gabriel_graph(d), d, model)),
         n <= 256 ? sim::fmt(interf::interference_number(
                        topo::build_transmission_graph(d), d, model))
                  : std::string("-")});
  }
  contrast.print(std::cout);

  sim::Table dsweep("E4c - guard zone sweep (n = 1024)",
                    {"Delta", "I_N", "I_N/log2n"});
  for (const double delta : {0.5, 1.0, 2.0}) {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(1024, rng);
    const core::ThetaTopology tt(d, bench::kPi / 9.0);
    const auto i_n = interf::interference_number(
        tt.graph(), d, interf::InterferenceModel{delta});
    dsweep.row({sim::fmt(delta, 1), sim::fmt(i_n),
                sim::fmt(static_cast<double>(i_n) / std::log2(1024.0), 2)});
  }
  dsweep.print(std::cout);
  std::printf("Expected shape: growth(x4 n) falls towards ~1.1-1.3 (log\n"
              "scaling; a polynomial would hold a constant factor > 2);\n"
              "I_gstar >> I_N at every n; Delta shifts I_N by a constant.\n");
  return 0;
}
