#include "topology/hng.h"

#include <algorithm>

#include "geom/rng.h"
#include "topology/bucket_select.h"
#include "topology/yao.h"

namespace thetanet::topo {

int hng_level(graph::NodeId u, const HngParams& params) {
  TN_ASSERT(params.promote_p > 0.0 && params.promote_p < 1.0);
  TN_ASSERT(params.max_level >= 1);
  // A per-node stream keyed by (seed, id): the level is a pure function of
  // the node's identity, independent of n, thread count, or build order —
  // the "each node flips its own coins" model of the HNG paper.
  geom::Rng rng(params.seed ^
                (static_cast<std::uint64_t>(u) * 0x9e3779b97f4a7c15ULL));
  int level = 1;
  while (level < params.max_level && rng.bernoulli(params.promote_p)) ++level;
  return level;
}

graph::Graph hng_graph(const Deployment& d, const HngParams& params) {
  const std::size_t n = d.size();
  std::vector<int> level(n);
  int max_level = 1;
  for (graph::NodeId u = 0; u < n; ++u) {
    level[u] = hng_level(u, params);
    max_level = std::max(max_level, level[u]);
  }
  // Per node u and level m, the in-range node of level exactly m
  // minimizing (dist_sq, id). Walking m downward keeps the nearest node of
  // level >= m (same strict key, so still unique), and u links to it for
  // every m = j + 1 with j in [1, level(u)].
  const auto rows = static_cast<std::size_t>(max_level) + 1;
  const std::vector<graph::NodeId> nearest = nearest_per_bucket(
      d, rows,
      [&](geom::Vec2, graph::NodeId v, geom::Vec2) { return level[v]; },
      rank_by_distance);
  std::vector<EdgePair> pairs;
  for (graph::NodeId u = 0; u < n; ++u) {
    graph::NodeId up = graph::kInvalidNode;
    for (int m = max_level; m >= 2; --m) {
      const graph::NodeId v = nearest[u * rows + static_cast<std::size_t>(m)];
      if (nearer(d, u, v, up)) up = v;
      if (m - 1 <= level[u] && up != graph::kInvalidNode)
        pairs.emplace_back(u, up);
    }
  }
  // Top-level chain: nodes of the maximum drawn level have no one to link
  // up to, so chain them in (x, y, id) order, keeping in-range links.
  // Whenever the transmission graph is complete this connects the whole
  // structure (every lower level reaches some strictly higher level, and
  // the maximum level forms one path).
  std::vector<graph::NodeId> top;
  for (graph::NodeId u = 0; u < n; ++u)
    if (level[u] == max_level) top.push_back(u);
  std::sort(top.begin(), top.end(),
            [&](graph::NodeId a, graph::NodeId b) {
              const geom::Vec2 pa = d.positions[a];
              const geom::Vec2 pb = d.positions[b];
              if (pa.x != pb.x) return pa.x < pb.x;
              if (pa.y != pb.y) return pa.y < pb.y;
              return a < b;
            });
  for (std::size_t i = 0; i + 1 < top.size(); ++i)
    if (d.in_range(top[i], top[i + 1]))
      pairs.emplace_back(top[i], top[i + 1]);
  normalize_edges(pairs);
  return graph_from_pairs(d, pairs);
}

}  // namespace thetanet::topo
