#include "topology/theta_graphs.h"

#include "topology/bucket_select.h"

namespace thetanet::topo {
namespace {

/// The Θ family's bucket (the cone at `from` containing `to`) and rank (the
/// projection of `to` onto that cone's bisector). Projection ties, e.g.
/// mirror-symmetric neighbours, fall back to (dist_sq, id).
struct ConeOf {
  const ConeScheme& scheme;
  int operator()(geom::Vec2 from, graph::NodeId, geom::Vec2 to) const {
    return scheme.cone_of(from, to);
  }
};

struct ConeProjection {
  const ConeScheme& scheme;
  double operator()(int cone, geom::Vec2 from, geom::Vec2 to, double) const {
    return scheme.projection(cone, from, to);
  }
};

std::vector<graph::NodeId> cone_selection(const Deployment& d,
                                          const ConeScheme& scheme) {
  TN_ASSERT(scheme.k >= 2);
  return nearest_per_bucket(d, static_cast<std::size_t>(scheme.k),
                            ConeOf{scheme}, ConeProjection{scheme});
}

}  // namespace

graph::Graph theta_graph(const Deployment& d, const ConeScheme& scheme) {
  return graph_from_table(d, static_cast<std::size_t>(scheme.k),
                          cone_selection(d, scheme));
}

graph::Graph theta_theta_graph(const Deployment& d, const ConeScheme& scheme) {
  // Phase 2 (Damian–Voicu): each node v keeps, per cone at v, only the
  // shortest incoming Θ-edge, ordered by the projection of the sender onto
  // the bisector of v's cone containing it.
  const auto k = static_cast<std::size_t>(scheme.k);
  return graph_from_table(
      d, k,
      admit_per_bucket(d, k, cone_selection(d, scheme), ConeOf{scheme},
                       ConeProjection{scheme}));
}

graph::Graph theta4_graph(const Deployment& d) {
  return theta_graph(d, theta4_scheme());
}

}  // namespace thetanet::topo
