// E15 — control-information reduction (the practical-implementation remark
// of Section 3.2): quantized height advertisement. Each node re-advertises
// a buffer height only after it drifted by >= q. Expected shape: control
// messages fall steeply with q while the delivered fraction degrades
// gracefully — heights of neighbouring buffers differ by ~T+gamma*c in
// steady state, so staleness below that scale is almost free.

#include "bench/common.h"

#include <iostream>

#include "graph/connectivity.h"
#include "routing/adversary.h"
#include "sim/stack.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E15: quantized height advertisement (control overhead vs throughput)",
      "Section 3.2 remark - reduce the control information exchanged for "
      "buffer heights");

  geom::Rng seed_rng(bench::kSeedRoot + 16);
  geom::Rng net_rng = seed_rng.fork();
  topo::Deployment d = bench::uniform_deployment(64, net_rng, 2.0, 2.4);
  graph::Graph topo = topo::build_transmission_graph(d);
  while (!graph::is_connected(topo)) {
    d = bench::uniform_deployment(64, net_rng, 2.0, 2.4);
    topo = topo::build_transmission_graph(d);
  }
  geom::Rng trace_rng = seed_rng.fork();
  route::TraceParams tp;
  tp.horizon = 30000;
  tp.injections_per_step = 1.5;
  tp.max_schedule_slack = 16;
  tp.num_sources = 6;
  tp.num_destinations = 2;
  const auto trace = route::make_certified_trace(topo, tp, trace_rng);
  const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);

  sim::Table table("E15 - quantum sweep (n = 64, identical trace)",
                   {"quantum", "delivered", "ratio", "ctrl_msgs",
                    "ctrl_per_delivery", "transit_drops"});
  const route::Time total = trace.horizon() + 12000;
  for (const std::size_t q : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL}) {
    sim::Stack stack(topo, core::BalancingRouter(topo.num_nodes(), params, q));
    for (route::Time t = 0; t < total; ++t) {
      stack.given(trace);
      stack.finish(trace);
    }
    const route::RunMetrics& m = stack.metrics();
    table.row(
        {sim::fmt(q), sim::fmt(m.deliveries),
         sim::fmt(static_cast<double>(m.deliveries) /
                      static_cast<double>(trace.opt.deliveries),
                  3),
         sim::fmt(stack.router().control_messages()),
         sim::fmt(m.deliveries == 0
                      ? 0.0
                      : static_cast<double>(stack.router().control_messages()) /
                            static_cast<double>(m.deliveries),
                  2),
         sim::fmt(m.dropped_in_transit)});
  }
  table.print(std::cout);
  std::printf("Expected shape: ctrl_msgs collapses (>100x from q=1 to q=32)\n"
              "while the delivered fraction holds — staleness below the\n"
              "per-hop gradient scale (T + gamma*c) is essentially free, and\n"
              "under-advertised heights even act as mild optimism. This is\n"
              "exactly why the paper calls continuous height exchange\n"
              "avoidable in practice (transit drops stay 0 throughout).\n");
  return 0;
}
