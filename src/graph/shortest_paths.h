#pragma once
// Single-source shortest paths (Dijkstra) and hop-count BFS over Graph, with
// the weight kind selectable (energy cost vs Euclidean length vs hops) so the
// same machinery serves both the energy-stretch analysis (Theorem 2.2) and
// the distance-stretch analysis (Theorem 2.7).

#include <limits>
#include <span>
#include <vector>

#include "graph/graph.h"

namespace thetanet::graph {

inline constexpr double kUnreachable = std::numeric_limits<double>::infinity();

struct ShortestPathTree {
  std::vector<double> dist;      ///< dist[v] = min weight from source; inf if unreachable
  std::vector<NodeId> parent;    ///< predecessor on a shortest path; kInvalidNode at source/unreached
  std::vector<EdgeId> via_edge;  ///< edge used to enter v; kInvalidEdge at source/unreached

  /// Reconstruct the node sequence source..target (empty if unreachable).
  std::vector<NodeId> path_to(NodeId target) const;
};

/// Dijkstra from `source` minimizing `weight`. If `stop_after_settled` > 0,
/// the search halts once that many nodes are settled (used for bounded-range
/// stretch audits). Nodes settle in (dist, id) order and a node keeps the
/// first parent that reached its distance; with Weight::kHops that is its
/// smallest-id neighbour one level up, and the search runs as a level-order
/// BFS with no heap.
ShortestPathTree dijkstra(const Graph& g, NodeId source, Weight weight,
                          std::size_t stop_after_settled = 0);

/// Multi-source form: every node of `sources` starts at distance 0, so the
/// tree leads each node back to its nearest source (in an undirected graph,
/// the reversed tree path is a min-weight path *to* that source).
ShortestPathTree dijkstra(const Graph& g, std::span<const NodeId> sources,
                          Weight weight, std::size_t stop_after_settled = 0);

/// Hop distances from `source` (BFS). Unreachable nodes get kUnreachable.
std::vector<double> bfs_hops(const Graph& g, NodeId source);

/// Convenience: min weight between a single pair (inf if disconnected).
double pair_distance(const Graph& g, NodeId s, NodeId t, Weight weight);

}  // namespace thetanet::graph
