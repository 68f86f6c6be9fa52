// E14 — anycast extension (the paper generalizes the anycasting results of
// Awerbuch, Brinkmann & Scheideler [10] to edge costs; this bench runs the
// generalization): balancing routing to replica groups. Expected shape:
// adding replicas shortens OPT paths and raises the online delivered
// fraction at equal-or-lower energy; the balancing rule needs no
// modification beyond the absorption test.

#include "bench/common.h"

#include <iostream>

#include "core/balancing_router.h"
#include "graph/connectivity.h"
#include "routing/anycast.h"
#include "sim/scenarios.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E14: anycast balancing (replica groups)",
      "generalization of [10] with costs - delivery to any group member");

  geom::Rng seed_rng(bench::kSeedRoot + 15);
  geom::Rng net_rng = seed_rng.fork();
  topo::Deployment d = bench::uniform_deployment(96, net_rng, 2.0, 2.2);
  graph::Graph topo = topo::build_transmission_graph(d);
  while (!graph::is_connected(topo)) {
    d = bench::uniform_deployment(96, net_rng, 2.0, 2.2);
    topo = topo::build_transmission_graph(d);
  }

  sim::Table table("E14 - replicas sweep (one service group, n = 96)",
                   {"replicas", "OPT", "OPT_Lbar", "delivered", "ratio",
                    "avg_hops", "energy/delivery"});
  // Nested replica sets: each row adds replicas to the previous set.
  const std::vector<graph::NodeId> all_replicas{10, 30, 50, 70, 90};
  for (const std::size_t k : {1UL, 2UL, 3UL, 5UL}) {
    geom::Rng rng = seed_rng.fork();
    const route::AnycastGroups groups({std::vector<graph::NodeId>(
        all_replicas.begin(), all_replicas.begin() + static_cast<long>(k))});
    route::TraceParams tp;
    tp.horizon = 30000;
    tp.injections_per_step = 1.0;
    tp.max_schedule_slack = 16;
    tp.num_sources = 6;
    const auto trace = route::make_anycast_trace(topo, groups, tp, rng);
    const auto params = core::theorem31_params(trace.opt, 0.25);
    const auto res = sim::run_mac_given(
        trace, params, 12000, [&groups](graph::NodeId v, route::DestId g) {
          return groups.contains(g, v);
        });
    table.row({sim::fmt(k), sim::fmt(trace.opt.deliveries),
               sim::fmt(trace.opt.avg_path_length, 2),
               sim::fmt(res.metrics.deliveries),
               sim::fmt(res.throughput_ratio(), 3),
               sim::fmt(res.metrics.avg_hops(), 2),
               sim::fmt(res.metrics.avg_cost_per_delivery(), 4)});
  }
  table.print(std::cout);
  std::printf("Expected shape: OPT_Lbar and avg_hops fall as replicas are\n"
              "added (gradients drain to the nearest member); the delivered\n"
              "fraction holds or improves at lower energy per delivery.\n");
  return 0;
}
