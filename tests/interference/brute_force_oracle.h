#pragma once
// O(E^2) reference for the interference kernels: the Section 2.4 pairwise
// test over every pair of edges, with no grid, no Morton order and no
// ownership rule. The kernel tests compare interference_set_sizes and
// interference_bounds against it.

#include <algorithm>
#include <cstdint>
#include <vector>

#include "interference/model.h"

namespace thetanet::interf {

/// I(e) for every edge of g, each set in ascending edge-id order.
inline std::vector<std::vector<graph::EdgeId>> brute_sets(
    const graph::Graph& g, const topo::Deployment& d,
    const InterferenceModel& m) {
  const auto ne = static_cast<graph::EdgeId>(g.num_edges());
  std::vector<std::vector<graph::EdgeId>> sets(ne);
  for (graph::EdgeId a = 0; a < ne; ++a) {
    const graph::Edge& ea = g.edge(a);
    for (graph::EdgeId b = a + 1; b < ne; ++b) {
      const graph::Edge& eb = g.edge(b);
      if (m.in_interference_set(d.positions[ea.u], d.positions[ea.v],
                                d.positions[eb.u], d.positions[eb.v])) {
        sets[a].push_back(b);
        sets[b].push_back(a);
      }
    }
  }
  return sets;  // b ascends in both loops => sets come out sorted
}

/// I_e = max{ |I(e')| : e' in I(e) or e' = e }, floored at 1, from the
/// sets brute_sets returned.
inline std::vector<std::uint32_t> brute_bounds(
    const std::vector<std::vector<graph::EdgeId>>& sets) {
  std::vector<std::uint32_t> bounds(sets.size());
  for (std::size_t e = 0; e < sets.size(); ++e) {
    std::size_t b = std::max<std::size_t>(1, sets[e].size());
    for (const graph::EdgeId f : sets[e]) b = std::max(b, sets[f].size());
    bounds[e] = static_cast<std::uint32_t>(b);
  }
  return bounds;
}

}  // namespace thetanet::interf
