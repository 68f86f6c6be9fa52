// E15 — control-information reduction (the practical-implementation remark
// of Section 3.2): quantized height advertisement. Each node re-advertises
// a buffer height only after it drifted by >= q. Expected shape: control
// messages fall steeply with q while the delivered fraction degrades
// gracefully — heights of neighbouring buffers differ by ~T+gamma*c in
// steady state, so staleness below that scale is almost free.

#include "bench/common.h"

#include <iostream>

#include "core/balancing_router.h"
#include "graph/connectivity.h"
#include "routing/adversary.h"
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
  std::vector<double> costs(topo.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = topo.edge(e).cost;

  sim::Table table("E15 - quantum sweep (n = 64, identical trace)",
                   {"quantum", "delivered", "ratio", "ctrl_msgs",
                    "ctrl_per_delivery", "transit_drops"});
  const route::Time total = trace.horizon() + 12000;
  for (const std::size_t q : {1UL, 2UL, 4UL, 8UL, 16UL, 32UL}) {
    core::BalancingRouter router(topo.num_nodes(), params, q);
    route::RunMetrics m;
    for (route::Time t = 0; t < total; ++t) {
      const auto& step = trace.steps[t % trace.horizon()];
      const auto txs = router.plan(topo, step.active, costs);
      router.execute(txs, {}, costs, t, m);
      if (t < trace.horizon())
        for (const auto& inj : step.injections) router.inject(inj.packet, m);
      router.end_step(m);
    }
    table.row(
        {sim::fmt(q), sim::fmt(m.deliveries),
         sim::fmt(static_cast<double>(m.deliveries) /
                      static_cast<double>(trace.opt.deliveries),
                  3),
         sim::fmt(router.control_messages()),
         sim::fmt(m.deliveries == 0
                      ? 0.0
                      : static_cast<double>(router.control_messages()) /
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
