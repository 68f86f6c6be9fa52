#include "graph/shortest_paths.h"

#include <algorithm>
#include <queue>

namespace thetanet::graph {

std::vector<NodeId> ShortestPathTree::path_to(NodeId target) const {
  std::vector<NodeId> path;
  if (target >= dist.size() || dist[target] == kUnreachable) return path;
  for (NodeId v = target; v != kInvalidNode; v = parent[v]) path.push_back(v);
  std::reverse(path.begin(), path.end());
  return path;
}

ShortestPathTree dijkstra(const Graph& g, NodeId source, Weight weight,
                          std::size_t stop_after_settled) {
  return dijkstra(g, std::span<const NodeId>(&source, 1), weight,
                  stop_after_settled);
}

ShortestPathTree dijkstra(const Graph& g, std::span<const NodeId> sources,
                          Weight weight, std::size_t stop_after_settled) {
  const std::size_t n = g.num_nodes();
  ShortestPathTree t;
  t.dist.assign(n, kUnreachable);
  t.parent.assign(n, kInvalidNode);
  t.via_edge.assign(n, kInvalidEdge);

  if (weight == Weight::kHops) {
    // Unit weights: the heap below would settle nodes in (hops, id) order,
    // and its strict < hangs each node off the first of its neighbours one
    // level up to be settled, the smallest-id one. A level-order BFS that
    // settles each level in ascending id order builds the same tree, stops
    // at the same settled count, and needs no heap.
    std::vector<NodeId> level(sources.begin(), sources.end());
    for (const NodeId s : level) {
      TN_ASSERT(s < n);
      t.dist[s] = 0.0;
    }
    std::sort(level.begin(), level.end());
    level.erase(std::unique(level.begin(), level.end()), level.end());
    std::vector<NodeId> next;
    std::size_t settled = 0;
    for (double d = 1.0; !level.empty(); d += 1.0) {
      for (const NodeId u : level) {
        ++settled;
        if (stop_after_settled > 0 && settled >= stop_after_settled) return t;
        for (const Half& h : g.neighbors(u)) {
          if (t.dist[h.to] != kUnreachable) continue;
          t.dist[h.to] = d;
          t.parent[h.to] = u;
          t.via_edge[h.to] = h.edge;
          next.push_back(h.to);
        }
      }
      std::sort(next.begin(), next.end());
      level.swap(next);
      next.clear();
    }
    return t;
  }

  using Entry = std::pair<double, NodeId>;  // (dist, node); min-heap
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const NodeId s : sources) {
    TN_ASSERT(s < n);
    t.dist[s] = 0.0;
    heap.emplace(0.0, s);
  }
  std::size_t settled = 0;
  std::vector<bool> done(n, false);

  while (!heap.empty()) {
    const auto [d, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = true;
    ++settled;
    if (stop_after_settled > 0 && settled >= stop_after_settled) break;
    for (const Half& h : g.neighbors(u)) {
      const double w = edge_weight(g, h.edge, weight);
      const double nd = d + w;
      if (nd < t.dist[h.to]) {
        t.dist[h.to] = nd;
        t.parent[h.to] = u;
        t.via_edge[h.to] = h.edge;
        heap.emplace(nd, h.to);
      }
    }
  }
  return t;
}

std::vector<double> bfs_hops(const Graph& g, NodeId source) {
  const std::size_t n = g.num_nodes();
  TN_ASSERT(source < n);
  std::vector<double> hops(n, kUnreachable);
  hops[source] = 0.0;
  std::queue<NodeId> q;
  q.push(source);
  while (!q.empty()) {
    const NodeId u = q.front();
    q.pop();
    for (const Half& h : g.neighbors(u)) {
      if (hops[h.to] == kUnreachable) {
        hops[h.to] = hops[u] + 1.0;
        q.push(h.to);
      }
    }
  }
  return hops;
}

double pair_distance(const Graph& g, NodeId s, NodeId t, Weight weight) {
  return dijkstra(g, s, weight).dist[t];
}

}  // namespace thetanet::graph
