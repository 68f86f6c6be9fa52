#pragma once
// The classical Θ-graph family — the related-work yardsticks the paper's
// ΘALG is benchmarked against in the topology zoo:
//
//   * theta_graph(d, scheme): the classical Θ_k graph restricted to
//     transmission range. Per cone, each node keeps an edge to the in-range
//     node with the shortest *projection onto the cone bisector* (the
//     defining difference from the Yao graph, which uses Euclidean
//     distance). Θ_k is a spanner for k >= 7 with stretch
//     1 / (1 - 2 sin(pi/k)).
//
//   * theta_theta_graph(d, scheme): the Theta-Theta graph of Damian and
//     Voicu ("Spanning Properties of Theta-Theta Graphs"): build Θ_k, then
//     bound in-degree by keeping, per node and per cone, only the shortest
//     *incoming* Θ-edge (again by projection). The two-phase shape mirrors
//     ΘALG exactly, with projection ordering in place of Euclidean — which
//     makes it the natural competitor for the paper's phase-2 idea.
//
//   * theta4_graph(d): Θ₄ — four quadrant cones centred on the axes (Bose,
//     De Carufel, Hill, Smid, "On the Spanning and Routing Ratio of
//     Theta-Four"). Its 17x routing-ratio bound for local theta-routing is
//     the checkable claim the routing_ratio_bound ctest pins empirically.
//
// All constructions are range-restricted (a radio network cannot use edges
// longer than D) and deterministic: per-cone winners minimize the strict
// key (projection, squared distance, id), so outputs are bit-identical for
// any thread count and for the Morton reorder ON or OFF. Both phases run on
// the shared kernel in bucket_select.h, ranked by projection.

#include "graph/graph.h"
#include "topology/cones.h"
#include "topology/deployment.h"

namespace thetanet::topo {

/// The classical Θ_k graph (undirected union of per-cone selections).
graph::Graph theta_graph(const Deployment& d, const ConeScheme& scheme);

/// The Theta-Theta graph: Θ_k selections pruned to the shortest incoming
/// edge per cone (by projection at the receiving node). Out-degree <= k and
/// in-degree <= k by construction, so max degree <= 2k.
graph::Graph theta_theta_graph(const Deployment& d, const ConeScheme& scheme);

/// Θ₄: theta_graph under theta4_scheme().
graph::Graph theta4_graph(const Deployment& d);

}  // namespace thetanet::topo
