// E12 — routing-algorithm comparison (the contrast drawn in Sections 1.1 /
// 1.2): the paper's (T, gamma)-balancing vs two classic baselines — greedy
// geographic forwarding (GPSR's greedy mode [30]) and oracle min-cost
// source routing — on the *same* certified traces and topologies.
// Expected shape:
//   * on ThetaALG's sparse N, greedy forwarding loses packets to local
//     minima (no delivery guarantee — the paper's core criticism of
//     heuristics), while balancing loses none in transit;
//   * source routing with full information delivers well under the
//     adversary's own activation pattern but collapses when the adversary
//     activates edges that do not match its pinned paths;
//   * balancing adapts (it follows gradients, not pinned paths) at a
//     bounded energy overhead.

#include "bench/common.h"

#include <iostream>

#include "core/balancing_router.h"
#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "routing/baselines.h"
#include "topology/proximity.h"
#include "sim/scenarios.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

route::AdversaryTrace make_trace(const graph::Graph& topo, geom::Rng& rng,
                                 bool scramble_active, geom::Rng& scramble_rng) {
  route::TraceParams tp;
  tp.horizon = 30000;
  tp.injections_per_step = 1.0;
  tp.max_schedule_slack = 16;
  tp.num_sources = 4;
  tp.num_destinations = 1;
  route::AdversaryTrace trace = route::make_certified_trace(topo, tp, rng);
  if (scramble_active) {
    // Adversarial twist: keep the schedules' slots (OPT unchanged) but also
    // activate a random 10% of all edges each step — capacity a pinned-path
    // router cannot exploit unless the edges happen to lie on its paths.
    for (route::Time t = 0; t < trace.horizon(); ++t) {
      route::StepSpec& step = trace.steps.edit(t);
      const std::size_t extra = topo.num_edges() / 10;
      for (std::size_t i = 0; i < extra; ++i)
        step.active.push_back(static_cast<graph::EdgeId>(
            scramble_rng.uniform_index(topo.num_edges())));
      std::sort(step.active.begin(), step.active.end());
      step.active.erase(std::unique(step.active.begin(), step.active.end()),
                        step.active.end());
    }
  }
  return trace;
}

}  // namespace
}  // namespace thetanet

int main() {
  using namespace thetanet;
  bench::print_header(
      "E12: balancing vs greedy geographic vs GPSR vs source routing",
      "Sections 1.1/1.2 - heuristics lack worst-case guarantees; local "
      "balancing is provably competitive");

  geom::Rng seed_rng(bench::kSeedRoot + 13);
  geom::Rng net_rng = seed_rng.fork();
  topo::Deployment d = bench::uniform_deployment(96, net_rng, 2.0, 2.2);
  graph::Graph gstar = topo::build_transmission_graph(d);
  while (!graph::is_connected(gstar)) {
    d = bench::uniform_deployment(96, net_rng, 2.0, 2.2);
    gstar = topo::build_transmission_graph(d);
  }
  const core::ThetaTopology tt(d, bench::kPi / 9.0);
  const graph::Graph& n_graph = tt.graph();

  sim::Table table("E12 - same trace, four routers",
                   {"scenario", "router", "delivered", "of_OPT",
                    "cost_ratio", "transit_drops", "local_min_drops",
                    "peak_buffer"});

  for (const bool scramble : {false, true}) {
    geom::Rng rng = seed_rng.fork();
    geom::Rng scr = seed_rng.fork();
    const auto trace = make_trace(n_graph, rng, scramble, scr);
    const char* scen = scramble ? "noisy_active" : "exact_active";
    const route::Time drain = 15000;

    {  // (T, gamma)-balancing with Theorem 3.1 parameters.
      const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);
      const auto res = sim::run_mac_given(trace, params, drain);
      table.row({scen, "balancing", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit), "0",
                 sim::fmt(res.metrics.peak_buffer)});
    }
    {  // Greedy geographic forwarding.
      const auto res = route::run_greedy_geographic(trace, d, n_graph,
                                                    /*queue_cap=*/256, drain);
      table.row({scen, "greedy_geo", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit),
                 sim::fmt(res.local_minimum_drops),
                 sim::fmt(res.metrics.peak_buffer)});
    }
    {  // GPSR proper: greedy + perimeter recovery on the Gabriel subgraph.
      const auto res = route::run_gpsr(trace, d, n_graph,
                                       topo::gabriel_graph(d),
                                       /*queue_cap=*/256, drain);
      table.row({scen, "gpsr", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit),
                 sim::fmt(res.local_minimum_drops),
                 sim::fmt(res.metrics.peak_buffer)});
    }
    {  // Oracle min-cost source routing.
      const auto res = route::run_source_routing(
          trace, n_graph, graph::Weight::kCost, /*queue_cap=*/256, drain);
      table.row({scen, "source_route", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit), "0",
                 sim::fmt(res.metrics.peak_buffer)});
    }
  }
  // Sparse-topology scenario: routing over the Euclidean MST, where greedy
  // geographic forwarding has genuine geometric local minima (tree paths
  // wander away from the straight line). The EMST is planar, so GPSR uses
  // it as its own planarization and recovers.
  {
    const graph::Graph emst = topo::euclidean_mst(d);
    geom::Rng rng = seed_rng.fork();
    geom::Rng scr = seed_rng.fork();
    const auto trace = make_trace(emst, rng, true, scr);
    const route::Time drain = 15000;
    {
      const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);
      const auto res = sim::run_mac_given(trace, params, drain);
      table.row({"sparse_EMST", "balancing", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit), "0",
                 sim::fmt(res.metrics.peak_buffer)});
    }
    {
      const auto res =
          route::run_greedy_geographic(trace, d, emst, 256, drain);
      table.row({"sparse_EMST", "greedy_geo",
                 sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit),
                 sim::fmt(res.local_minimum_drops),
                 sim::fmt(res.metrics.peak_buffer)});
    }
    {
      const auto res = route::run_gpsr(trace, d, emst, emst, 256, drain);
      table.row({"sparse_EMST", "gpsr", sim::fmt(res.metrics.deliveries),
                 sim::fmt(res.throughput_ratio(), 3),
                 sim::fmt(res.cost_ratio(), 2),
                 sim::fmt(res.metrics.dropped_in_transit),
                 sim::fmt(res.local_minimum_drops),
                 sim::fmt(res.metrics.peak_buffer)});
    }
  }
  table.print(std::cout);

  // Failure injection: at t_fail = horizon/2, 25% of N's edges die (removed
  // from all later active sets). The certificate of a packet whose schedule
  // crosses a dead edge after t_fail is void, so the surviving certificates
  // give the OPT denominator. Source routing pins paths at injection and
  // cannot react; balancing follows gradients over whatever is still alive.
  sim::Table ftab("E12b - edge failures at mid-run (25% of N edges)",
                  {"router", "delivered", "of_surviving_OPT", "leftover"});
  {
    geom::Rng rng = seed_rng.fork();
    geom::Rng noise = seed_rng.fork();
    auto trace = make_trace(n_graph, rng, true, noise);
    const route::Time t_fail = trace.horizon() / 2;
    geom::Rng kill_rng = seed_rng.fork();
    std::vector<bool> dead(n_graph.num_edges(), false);
    for (graph::EdgeId e = 0; e < n_graph.num_edges(); ++e)
      dead[e] = kill_rng.bernoulli(0.25);
    for (route::Time t = t_fail; t < trace.horizon(); ++t) {
      auto& act = trace.steps.edit(t).active;
      act.erase(std::remove_if(act.begin(), act.end(),
                               [&](graph::EdgeId e) { return dead[e]; }),
                act.end());
    }
    // Bake the drain into the trace so the failure persists (the generic
    // drain cycling would replay pre-failure steps and resurrect dead
    // edges): 15000 injection-free steps cycling the post-failure pattern.
    {
      const route::Time h = trace.horizon();
      trace.steps.resize(h + 15000);
      for (route::Time k = 0; k < 15000; ++k) {
        // Copy first: edit() may move the step being copied from.
        std::vector<graph::EdgeId> act =
            trace.steps[t_fail + (k % (h - t_fail))].active;
        trace.steps.edit(h + k).active = std::move(act);
      }
    }
    // Surviving OPT: certificates whose post-failure hops avoid dead edges.
    std::size_t surviving = 0;
    for (const auto& step : trace.steps)
      for (const auto& inj : step.injections) {
        bool ok = true;
        for (const auto& [e, ti] : inj.schedule.hops)
          if (ti >= t_fail && dead[e]) ok = false;
        surviving += ok ? 1 : 0;
      }
    const auto params = core::theorem31_params(trace.opt, 0.25, 4.0);
    const auto bal = sim::run_mac_given(trace, params, 0);
    const auto src = route::run_source_routing(trace, n_graph,
                                               graph::Weight::kCost, 256, 0);
    const auto geo = route::run_greedy_geographic(trace, d, n_graph, 256, 0);
    const auto frac = [&](std::size_t del) {
      return sim::fmt(static_cast<double>(del) /
                          static_cast<double>(std::max<std::size_t>(1, surviving)),
                      3);
    };
    std::printf("injected %zu, surviving certificates %zu\n\n",
                trace.opt.deliveries, surviving);
    ftab.row({"balancing", sim::fmt(bal.metrics.deliveries),
              frac(bal.metrics.deliveries),
              sim::fmt(bal.metrics.leftover_packets)});
    ftab.row({"source_route", sim::fmt(src.metrics.deliveries),
              frac(src.metrics.deliveries),
              sim::fmt(src.metrics.leftover_packets)});
    ftab.row({"greedy_geo", sim::fmt(geo.metrics.deliveries),
              frac(geo.metrics.deliveries),
              sim::fmt(geo.metrics.leftover_packets)});
  }
  ftab.print(std::cout);
  std::printf("Expected shape: under exact_active, greedy head-of-line-\n"
              "blocks (its single geographic next hop is rarely the edge the\n"
              "adversary activates) while balancing uses whatever is\n"
              "offered; with noisy activations greedy recovers but pays >2x\n"
              "energy. Under failures, greedy collapses; oracle source\n"
              "routing matches surviving OPT exactly (it follows the very\n"
              "paths the certificates booked) but strands the packets whose\n"
              "pinned paths died; balancing reaches ~95%% of surviving OPT\n"
              "with zero path knowledge and no global information — the\n"
              "paper's point about provable local control.\n");
  return 0;
}
