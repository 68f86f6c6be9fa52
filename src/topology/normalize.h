#pragma once
// The edge-list contract every TopologyBuilder must satisfy: edges are
// undirected pairs stored (u, v) with u < v, sorted lexicographically,
// duplicate-free, self-loop-free. Builders that collect candidate pairs
// from both endpoints (yao, knn, cbtc, the theta family) all funnel through
// normalize_edges() so the contract lives in exactly one place — the zoo
// conformance checker re-audits it on every built graph.

#include <algorithm>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "topology/deployment.h"

namespace thetanet::topo {

using EdgePair = std::pair<graph::NodeId, graph::NodeId>;

/// Canonicalize a raw pair collection in place: orient each pair (min, max),
/// drop self-loops, sort lexicographically, drop duplicates. Deterministic
/// for any input order, so parallel builders may concatenate per-chunk
/// collections in any node order before calling this.
inline void normalize_edges(std::vector<EdgePair>& pairs) {
  for (EdgePair& p : pairs)
    if (p.first > p.second) std::swap(p.first, p.second);
  std::erase_if(pairs, [](const EdgePair& p) { return p.first == p.second; });
  std::sort(pairs.begin(), pairs.end());
  pairs.erase(std::unique(pairs.begin(), pairs.end()), pairs.end());
}

/// Materialize a normalized pair list as a Graph over the deployment,
/// weighting each edge with |uv| and |uv|^kappa. Pairs must already be
/// normalized; edge ids come out in (u, v) lexicographic order — the shared
/// id-assignment convention of every builder.
inline graph::Graph graph_from_pairs(const Deployment& d,
                                     const std::vector<EdgePair>& pairs) {
  graph::GraphBuilder b(d.size());
  b.reserve_edges(pairs.size());
  for (const auto& [u, v] : pairs) {
    const double len = d.distance(u, v);
    b.add_edge(u, v, len, d.cost_of_length(len));
  }
  return std::move(b).build();
}

}  // namespace thetanet::topo
