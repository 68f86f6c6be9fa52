#include "graph/mst.h"

#include <algorithm>
#include <numeric>

#include "graph/union_find.h"

namespace thetanet::graph {

std::vector<EdgeId> mst_edges(const Graph& g, Weight weight) {
  std::vector<EdgeId> order(g.num_edges());
  std::iota(order.begin(), order.end(), 0U);
  std::sort(order.begin(), order.end(), [&](EdgeId a, EdgeId b) {
    const double wa = edge_weight(g.edge(a), weight);
    const double wb = edge_weight(g.edge(b), weight);
    return wa < wb || (wa == wb && a < b);
  });
  UnionFind uf(g.num_nodes());
  std::vector<EdgeId> out;
  out.reserve(g.num_nodes() > 0 ? g.num_nodes() - 1 : 0);
  for (const EdgeId e : order) {
    const Edge& edge = g.edge(e);
    if (uf.unite(edge.u, edge.v)) out.push_back(e);
  }
  return out;
}

Graph mst_subgraph(const Graph& g, Weight weight) {
  GraphBuilder out(g.num_nodes());
  for (const EdgeId e : mst_edges(g, weight)) {
    const Edge& edge = g.edge(e);
    out.add_edge(edge.u, edge.v, edge.length, edge.cost);
  }
  return std::move(out).build();
}

}  // namespace thetanet::graph
