#pragma once
// Routing baselines from the paper's related-work discussion (Section 1.2):
//
//  * Greedy geographic forwarding — the greedy mode of GPSR [30] and of the
//    geometric routing line of work [25]: forward to the neighbour closest
//    to the destination; a packet reaching a *local minimum* (no neighbour
//    closer) is lost. No buffers pile up, no global state — but also no
//    delivery guarantee, which is precisely the contrast the paper draws
//    with the balancing approach.
//
//  * Oracle source routing — each packet is pinned at injection to a
//    min-cost path (computed with full topology knowledge) and forwarded
//    FIFO along it whenever its next edge is active. This is the strongest
//    "heuristic with perfect information" baseline: it cannot adapt to
//    congestion or to the adversary's edge activations.
//
// Both run under the MAC-given scenario (Section 3.2): the adversary's
// per-step active edge sets gate which hops can happen, exactly as for the
// balancing router, so bench E12's comparison is apples-to-apples.

#include "geom/vec2.h"
#include "graph/graph.h"
#include "routing/adversary.h"
#include "routing/metrics.h"
#include "topology/deployment.h"

namespace thetanet::route {

struct BaselineResult {
  RunMetrics metrics;
  OptStats opt;  ///< copied from the trace

  /// Packets dropped at a greedy local minimum (greedy baseline only).
  std::size_t local_minimum_drops = 0;

  double throughput_ratio() const {
    return opt.deliveries == 0 ? 0.0
                               : static_cast<double>(metrics.deliveries) /
                                     static_cast<double>(opt.deliveries);
  }
  double cost_ratio() const {
    return opt.avg_cost == 0.0 ? 0.0
                               : metrics.avg_cost_per_delivery() / opt.avg_cost;
  }
};

/// Greedy geographic forwarding over `topo` (node positions from `d`).
/// Per step, every node may forward the head packet of its FIFO queue to
/// its geographically-best neighbour, provided the connecting edge is
/// active this step and not already used; a packet whose best topological
/// neighbour is not closer to the destination is dropped (local minimum).
/// Per-node queue capacity `queue_cap` bounds the space overhead. This is
/// run_gpsr below with no planar graph, so perimeter mode never starts.
BaselineResult run_greedy_geographic(const AdversaryTrace& trace,
                                     const topo::Deployment& d,
                                     const graph::Graph& topo,
                                     std::size_t queue_cap,
                                     Time extra_drain = 0);

/// GPSR [30] proper: greedy forwarding over `topo` with *perimeter-mode*
/// recovery on the planar subgraph `planar` (GPSR planarizes via the
/// Gabriel subgraph; pass topo::gabriel_graph(d) or any planar connected
/// subgraph sharing the node ids). A packet stuck at a greedy local minimum
/// switches to perimeter mode: it walks faces of the planar graph by the
/// right-hand rule, changing faces where edges cross the line towards the
/// destination, and returns to greedy as soon as it reaches a node closer
/// to the destination than where it got stuck. On a connected planar
/// subgraph this guarantees delivery (the `perimeter_hops` metric shows the
/// price). `local_minimum_drops` then counts only packets whose perimeter
/// walk wrapped around without progress (disconnected destination).
struct GpsrResult : BaselineResult {
  std::size_t perimeter_entries = 0;  ///< times a packet entered perimeter mode
  std::uint64_t perimeter_hops = 0;   ///< hops taken in perimeter mode
};
GpsrResult run_gpsr(const AdversaryTrace& trace, const topo::Deployment& d,
                    const graph::Graph& topo, const graph::Graph& planar,
                    std::size_t queue_cap, Time extra_drain = 0);

/// Oracle source routing over `topo`: packets follow their injection-time
/// min-`path_metric` path, one packet per edge per direction per step,
/// FIFO per hop. Packets arriving at a node whose queue is full are
/// dropped in transit.
BaselineResult run_source_routing(const AdversaryTrace& trace,
                                  const graph::Graph& topo,
                                  graph::Weight path_metric,
                                  std::size_t queue_cap, Time extra_drain = 0);

}  // namespace thetanet::route
