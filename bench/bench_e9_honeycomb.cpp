// E9 — Lemmas 3.6/3.7, Theorem 3.8: with fixed transmission strength, the
// honeycomb algorithm (hexagons of side 3+2*Delta, per-hexagon max-benefit
// contestants, p_t <= 1/6) is O(1)-competitive. Expected shape: ratio flat
// in n (constant competitiveness, unlike the generic 1/(8I) floor);
// collision_rate <= 0.5; shrinking the hexagon side below 3+2*Delta (the
// F5/Figure-5 ablation) raises the collision rate.

#include "bench/common.h"

#include <iostream>

#include "core/honeycomb.h"
#include "graph/connectivity.h"
#include "graph/edge_costs.h"
#include "routing/metrics.h"
#include "sim/scenarios.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

topo::Deployment unit_deployment(std::size_t n, double area_side,
                                 geom::Rng& rng) {
  topo::Deployment d;
  d.positions = topo::uniform_square(n, area_side, rng);
  d.max_range = 1.0;  // fixed transmission strength
  d.kappa = 2.0;
  return d;
}

}  // namespace
}  // namespace thetanet

int main() {
  using namespace thetanet;
  bench::print_header(
      "E9: honeycomb algorithm with fixed transmission strength",
      "Theorem 3.8 - ((1-eps)/(24 c_b), ..., 1+2/eps)-competitive: O(1) "
      "throughput competitiveness");

  geom::Rng seed_rng(bench::kSeedRoot + 9);
  sim::Table table("E9 - n sweep (Delta = 0.5, density ~4 nodes/unit^2)",
                   {"n", "area", "OPT", "delivered", "ratio", "contestants",
                    "collision_rate"});
  for (const std::size_t n : {64UL, 100UL, 144UL}) {
    geom::Rng rng = seed_rng.fork();
    const double side = std::sqrt(static_cast<double>(n) / 4.0);
    topo::Deployment d = unit_deployment(n, side, rng);
    graph::Graph unit = topo::build_transmission_graph(d);
    while (!graph::is_connected(unit)) {
      rng = seed_rng.fork();
      d = unit_deployment(n, side, rng);
      unit = topo::build_transmission_graph(d);
    }
    const core::HoneycombMac mac(d, unit, core::HoneycombParams{0.5, 1.0 / 6.0});

    // Pin the destination to the node nearest the field centre so L-bar
    // (and hence the theorem parameters) are comparable across n; sources
    // stay random.
    graph::NodeId center = 0;
    for (graph::NodeId v = 1; v < d.size(); ++v)
      if (geom::dist_sq(d.positions[v], {side / 2.0, side / 2.0}) <
          geom::dist_sq(d.positions[center], {side / 2.0, side / 2.0}))
        center = v;
    route::TraceParams tp;
    tp.horizon = 30000;
    tp.injections_per_step = 0.5;
    tp.max_schedule_slack = 100;
    tp.num_sources = 4;
    tp.dest_pool = {center};
    const auto trace = route::make_certified_trace(unit, tp, rng);
    const auto params = core::theorem33_params(trace.opt, 0.25);
    sim::HoneycombRunStats hs;
    // Honeycomb duty cycle is p_t per hexagon per step; give queues a long
    // drain window to reach the asymptotic regime.
    const auto res =
        sim::run_honeycomb(trace, unit, mac, params, rng, 150000, &hs);
    const double coll =
        hs.transmissions_total == 0
            ? 0.0
            : static_cast<double>(hs.collisions_total) /
                  static_cast<double>(hs.transmissions_total);
    table.row({sim::fmt(n), sim::fmt(side, 1), sim::fmt(trace.opt.deliveries),
               sim::fmt(res.metrics.deliveries),
               sim::fmt(res.throughput_ratio(), 3),
               sim::fmt(hs.contestants_total), sim::fmt(coll, 3)});
  }
  table.print(std::cout);

  // F5 ablation — pure MAC geometry (no routing dynamics): load random
  // buffer heights, then measure the per-transmission collision probability
  // of contestant selection as the hexagon side shrinks below the paper's
  // 3 + 2*Delta. Lemma 3.7's guarantee (collision prob <= 1/2) holds only
  // at the full side.
  sim::Table ab("E9b - hexagon side ablation (Delta = 0.5, n = 288, MAC only)",
                {"side_factor", "hex_side", "contestants/step",
                 "collision_rate"});
  {
    geom::Rng rng = seed_rng.fork();
    topo::Deployment d = unit_deployment(288, 8.5, rng);
    const graph::Graph unit = topo::build_transmission_graph(d);
    const std::vector<double> costs = graph::edge_costs(unit);
    for (const double factor : {1.0, 0.5, 0.25}) {
      core::HoneycombParams hp{0.5, 1.0 / 6.0};
      hp.side_override = factor * (3.0 + 2.0 * hp.delta);
      const core::HoneycombMac mac(d, unit, hp);
      // Random buffer landscape: many pairs clear the threshold everywhere.
      core::BalancingRouter router(d.size(), {0.5, 0.0, 1024});
      route::RunMetrics m;
      for (std::uint64_t i = 0; i < 4000; ++i) {
        const auto src = static_cast<graph::NodeId>(rng.uniform_index(d.size()));
        auto dst = static_cast<graph::NodeId>(rng.uniform_index(d.size() - 1));
        if (dst >= src) ++dst;
        router.inject(route::Packet{i, src, dst, 0, 0.0, 0}, m);
      }
      std::size_t chosen_total = 0, failed_total = 0;
      const int rounds = 3000;
      for (int r = 0; r < rounds; ++r) {
        const auto chosen = mac.select(router, costs, rng);
        const auto failed = mac.resolve(chosen);
        chosen_total += chosen.size();
        for (const bool f : failed) failed_total += f ? 1 : 0;
      }
      ab.row({sim::fmt(factor, 2), sim::fmt(mac.tiling().side(), 2),
              sim::fmt(static_cast<double>(chosen_total) / (rounds / 6.0), 2),
              sim::fmt(chosen_total == 0
                           ? 0.0
                           : static_cast<double>(failed_total) /
                                 static_cast<double>(chosen_total),
                       3)});
    }
  }
  ab.print(std::cout);
  std::printf("Expected shape: ratio roughly flat in n (O(1)-competitive);\n"
              "collision_rate <= 0.5 at side 3+2*Delta and rising as the\n"
              "side shrinks (Lemma 3.7's precondition matters).\n");
  return 0;
}
