#pragma once
// Not in graph.h: an inline definition there changes GCC's code for
// perfbench/stack.cpp's set-up, and with it the benchmarked loops' layout.

#include <vector>

#include "graph/graph.h"

namespace thetanet::graph {

/// Per-edge energy costs indexed by edge id (the routers' cost vector).
inline std::vector<double> edge_costs(const Graph& g) {
  std::vector<double> costs(g.num_edges());
  for (EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;
  return costs;
}

}  // namespace thetanet::graph
