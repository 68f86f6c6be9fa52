#include "topology/yao.h"

#include <algorithm>
#include <numbers>

#include "geom/angles.h"
#include "obs/metrics.h"
#include "topology/bucket_select.h"

namespace thetanet::topo {

bool nearer(const Deployment& d, graph::NodeId from, graph::NodeId a,
            graph::NodeId b) {
  if (b == graph::kInvalidNode) return true;
  if (a == graph::kInvalidNode) return false;
  const double da = geom::dist_sq(d.positions[from], d.positions[a]);
  const double db = geom::dist_sq(d.positions[from], d.positions[b]);
  // Lexicographic (distance, id) order realizes the paper's assumption that
  // all pairwise distances are unique.
  return da < db || (da == db && a < b);
}

bool SectorTable::selects(graph::NodeId u, graph::NodeId v, const Deployment& d,
                          double theta) const {
  const int s = geom::sector_index(d.positions[u], d.positions[v], theta);
  return nearest(u, s) == v;
}

namespace {

/// ThetaALG's bucket: the sector at `from` containing `to`.
struct SectorOf {
  double theta;
  int operator()(geom::Vec2 from, graph::NodeId, geom::Vec2 to) const {
    return geom::sector_index(from, to, theta);
  }
};

}  // namespace

SectorTable compute_sector_table(const Deployment& d, double theta) {
  TN_ASSERT_MSG(theta > 0.0 && theta <= std::numbers::pi / 3.0 + 1e-12,
                "ThetaALG requires theta <= pi/3");
  const int k = geom::sector_count(theta);
  return SectorTable(k, nearest_per_bucket(d, static_cast<std::size_t>(k),
                                           SectorOf{theta}, rank_by_distance));
}

graph::Graph yao_graph(const Deployment& d, double theta) {
  return yao_graph(d, compute_sector_table(d, theta));
}

graph::Graph yao_graph(const Deployment& d, const SectorTable& table) {
  return graph_from_table(d, static_cast<std::size_t>(table.sectors()),
                          table.entries());
}

ThetaAdmission theta_phase2(const Deployment& d, double theta,
                            const SectorTable& table) {
  // Phase 2: every phase-1 selection u -> v is an incoming candidate at v,
  // filed under v's sector containing u; v admits only the nearest
  // candidate per sector.
  const auto k = static_cast<std::size_t>(table.sectors());
  ThetaAdmission out;
  out.admitted = admit_per_bucket(d, k, table.entries(), SectorOf{theta},
                                  rank_by_distance);
  TN_OBS_COUNT("theta.candidates",
               std::ranges::count_if(table.entries(), [](graph::NodeId v) {
                 return v != graph::kInvalidNode;
               }));
  out.n = graph_from_table(d, k, out.admitted);
  TN_OBS_COUNT("theta.edges", out.n.num_edges());
  return out;
}

}  // namespace thetanet::topo
