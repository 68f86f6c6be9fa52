#pragma once
// The pairwise (protocol-model) interference machinery of Section 2.4.
//
// A bidirectional exchange over edge e = (X, Y) has interference region
//   IR(e) = C(X, (1+Delta)|XY|)  union  C(Y, (1+Delta)|XY|)
// (open disks). Edge e' *interferes with* e when IR(e') contains an endpoint
// of e; the interference set is the symmetric closure
//   I(e) = { e' : e' interferes with e, or e interferes with e' },
// and the interference number of a topology is max_e |I(e)|. Lemma 2.10
// bounds this by O(log n) whp for uniform-random deployments; bench E4
// measures it.

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"
#include "graph/graph.h"
#include "topology/deployment.h"

namespace thetanet::interf {

struct InterferenceModel {
  double delta = 1.0;  ///< guard-zone parameter Delta > 0

  /// Radius of the two disks forming IR(e) for an edge of length `len`.
  double guard_radius(double len) const { return (1.0 + delta) * len; }

  /// True iff IR of edge (a1, a2) contains point p (open-disk test).
  bool region_covers(geom::Vec2 a1, geom::Vec2 a2, geom::Vec2 p) const;

  /// Directed test: does e' (x1,x2) interfere with e (y1,y2)? I.e. does
  /// IR(e') contain an endpoint of e.
  bool interferes(geom::Vec2 x1, geom::Vec2 x2, geom::Vec2 y1,
                  geom::Vec2 y2) const;

  /// Symmetric membership test for the interference set I(e).
  bool in_interference_set(geom::Vec2 x1, geom::Vec2 x2, geom::Vec2 y1,
                           geom::Vec2 y2) const {
    return interferes(x1, x2, y1, y2) || interferes(y1, y2, x1, x2);
  }
};

/// |I(e)| for every edge of g (positions from the deployment). Uses a grid
/// over nodes so the cost is proportional to the true interference mass, not
/// m^2.
std::vector<std::uint32_t> interference_set_sizes(const graph::Graph& g,
                                                  const topo::Deployment& d,
                                                  const InterferenceModel& m);

/// I_e = max{ |I(e')| : e' in I(e) or e' = e }, floored at 1, for every
/// edge of g: the bound the Section 3.3 MAC activates with. Same grid walk
/// as interference_set_sizes, run twice (sizes, then the max over each
/// interfering pair); no set is materialized.
std::vector<std::uint32_t> interference_bounds(const graph::Graph& g,
                                               const topo::Deployment& d,
                                               const InterferenceModel& m);

/// max_e |I(e)| — the interference number of the topology.
std::uint32_t interference_number(const graph::Graph& g,
                                  const topo::Deployment& d,
                                  const InterferenceModel& m);

/// Given the set of edges chosen to transmit simultaneously, mark which
/// transmissions fail: transmission on e fails iff some other chosen e'
/// interferes with e (Section 2.4's success condition). Returns a parallel
/// vector, true = failed.
std::vector<bool> failed_transmissions(std::span<const graph::EdgeId> chosen,
                                       const graph::Graph& g,
                                       const topo::Deployment& d,
                                       const InterferenceModel& m);

}  // namespace thetanet::interf
