// E6 — Theorem 3.1: with T >= B + 2(delta-1), gamma >= (T+B+delta)L/C and
// buffers scaled by ~L/eps, the (T, gamma)-balancing algorithm delivers a
// (1-eps) fraction of OPT's packets at <= (1+2/eps) x OPT's average cost.
// Expected shape: throughput_ratio climbs towards 1-eps as the horizon
// grows (the additive slack r is constant); cost_ratio ~ 1 << 1+2/eps;
// in-transit drops are exactly 0.

#include "bench/common.h"

#include <iostream>

#include "core/balancing_router.h"
#include "graph/connectivity.h"
#include "sim/scenarios.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E6: competitive throughput/cost of (T,gamma)-balancing, MAC given",
      "Theorem 3.1 - (1-eps, ~L/eps, 1+2/eps)-competitive vs any schedule");

  geom::Rng seed_rng(bench::kSeedRoot + 6);
  geom::Rng net_rng = seed_rng.fork();
  const topo::Deployment d = bench::uniform_deployment(48, net_rng, 2.0, 2.6);
  const graph::Graph gstar = topo::build_transmission_graph(d);
  if (!graph::is_connected(gstar)) {
    std::printf("instance disconnected; reseed\n");
    return 1;
  }

  sim::Table table("E6 - horizon sweep per eps (n=48, 6 sources, 2 dests)",
                   {"eps", "horizon", "OPT", "delivered", "ratio", "target",
                    "cost_ratio", "cost_bound", "buf_ratio", "transit_drops"});
  for (const double eps : {0.5, 0.25, 0.1}) {
    for (const route::Time horizon : {8000U, 32000U, 128000U}) {
      geom::Rng rng = seed_rng.fork();
      route::TraceParams tp;
      tp.horizon = horizon;
      tp.injections_per_step = 3.0;
      tp.max_schedule_slack = 64;
      tp.num_sources = 6;
      tp.num_destinations = 2;
      const auto trace = route::make_certified_trace(gstar, tp, rng);
      const auto params = core::theorem31_params(trace.opt, eps, 4.0);
      const auto res = sim::run_mac_given(trace, params, horizon / 3);
      table.row({sim::fmt(eps, 2), sim::fmt(static_cast<std::size_t>(horizon)),
                 sim::fmt(trace.opt.deliveries),
                 sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3), sim::fmt(1.0 - eps, 2),
                 sim::fmt(res.cost_ratio(), 3), sim::fmt(1.0 + 2.0 / eps, 1),
                 sim::fmt(res.buffer_ratio(), 1),
                 sim::fmt(res.metrics.dropped_in_transit)});
    }
  }
  table.print(std::cout);

  // Adversarial cost changes: per-step +-25% jitter must not break the
  // guarantee (the model allows arbitrary per-step costs).
  sim::Table jitter("E6b - adversarial per-step cost jitter (eps=0.25)",
                    {"jitter_pct", "ratio", "cost_ratio", "transit_drops"});
  for (const std::uint32_t j : {0U, 25U, 50U}) {
    geom::Rng rng = seed_rng.fork();
    route::TraceParams tp;
    tp.horizon = 64000;
    tp.injections_per_step = 3.0;
    tp.max_schedule_slack = 64;
    tp.num_sources = 6;
    tp.num_destinations = 2;
    tp.cost_jitter_pct = j;
    const auto trace = route::make_certified_trace(gstar, tp, rng);
    const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);
    const auto res = sim::run_mac_given(trace, params, 24000);
    jitter.row({sim::fmt(static_cast<std::size_t>(j)),
                sim::fmt(res.throughput_ratio(), 3),
                sim::fmt(res.cost_ratio(), 3),
                sim::fmt(res.metrics.dropped_in_transit)});
  }
  jitter.print(std::cout);
  std::printf("Expected shape: ratio rises with horizon towards 1-eps;\n"
              "cost_ratio well under cost_bound; transit_drops = 0; cost\n"
              "jitter shifts nothing qualitatively.\n");
  return 0;
}
