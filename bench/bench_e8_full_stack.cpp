// E8 — Corollaries 3.4 / 3.5: ThetaALG + randomized MAC + balancing is
// (O(1/I), O(L))-competitive against an optimal algorithm free to use *any*
// edge of G* — and I = O(log n) for uniform random deployments, so the
// end-to-end stack is O(1/log n)-competitive. Expected shape: ratio decays
// no faster than 1/log n (the ratio*I column does not collapse towards 0).

#include "bench/common.h"

#include <iostream>

#include "core/interference_mac.h"
#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "sim/scenarios.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E8: full stack (ThetaALG + randomized MAC + balancing) vs OPT on G*",
      "Corollaries 3.4/3.5 - (O(1/I), O(L))-competitive; I = O(log n) whp");

  geom::Rng seed_rng(bench::kSeedRoot + 8);
  sim::Table table("E8 - end-to-end competitiveness (OPT certified on G*)",
                   {"n", "I_bound", "log2n", "OPT", "delivered", "ratio",
                    "ratio*I", "ratio*log2n"});
  for (const std::size_t n : {48UL, 96UL, 144UL}) {
    geom::Rng rng = seed_rng.fork();
    topo::Deployment d = bench::uniform_deployment(n, rng, 2.0, 1.8);
    graph::Graph gstar = topo::build_transmission_graph(d);
    while (!graph::is_connected(gstar)) {
      rng = seed_rng.fork();
      d = bench::uniform_deployment(n, rng, 2.0, 1.8);
      gstar = topo::build_transmission_graph(d);
    }
    const core::ThetaTopology tt(d, bench::kPi / 9.0);
    const core::RandomizedMac mac(tt.graph(), d, interf::InterferenceModel{0.25});

    // Same spread-injection design as E7 (see the comment there); OPT is
    // certified on G* while the online stack must make do with N.
    route::TraceParams tp;
    tp.horizon = 400000;
    tp.injections_per_step =
        40.0 / (2.0 * static_cast<double>(mac.interference_bound()));
    tp.max_schedule_slack = 50;
    tp.num_sources = 2;
    tp.num_destinations = 1;
    const auto trace = route::make_certified_trace(gstar, tp, rng);
    const auto params = core::theorem33_params(trace.opt, 0.25);
    const route::Time drain = 40U * mac.interference_bound();
    const auto res =
        sim::run_randomized_mac(trace, tt.graph(), mac, params, rng, drain);
    const double ratio = res.throughput_ratio();
    const double l2n = std::log2(static_cast<double>(n));
    table.row({sim::fmt(n), sim::fmt(mac.interference_bound()),
               sim::fmt(l2n, 2), sim::fmt(trace.opt.deliveries),
               sim::fmt(res.metrics.deliveries), sim::fmt(ratio, 3),
               sim::fmt(ratio * mac.interference_bound(), 2),
               sim::fmt(ratio * l2n, 2)});
  }
  table.print(std::cout);
  std::printf("Expected shape: ratio*I (and ratio*log2n) stays bounded away\n"
              "from 0 as n grows — the O(1/I) resp. O(1/log n)\n"
              "competitiveness of Corollaries 3.4/3.5.\n");
  return 0;
}
