#include "core/theta_topology.h"

#include <algorithm>
#include <utility>

#include "geom/angles.h"
#include "obs/span.h"

namespace thetanet::core {

using graph::kInvalidNode;
using graph::NodeId;

ThetaTopology::ThetaTopology(const topo::Deployment& d, double theta)
    : deployment_(&d), theta_(theta) {
  TN_OBS_SPAN("theta.build");
  {
    // Phase 1: every node picks its nearest in-range neighbour per sector.
    TN_OBS_SPAN("theta.phase1");
    table_ = topo::compute_sector_table(d, theta);
  }
  {
    TN_OBS_SPAN("theta.phase2");
    build();
  }
}

void ThetaTopology::build() {
  // Phase 2 lives in the topology layer (topo::theta_phase2) so the builder
  // registry can construct N without a core dependency; this class keeps the
  // admission table for the replacement-path machinery.
  topo::ThetaAdmission adm = topo::theta_phase2(*deployment_, theta_, table_);
  admitted_ = std::move(adm.admitted);
  n_ = std::move(adm.n);
}

graph::Graph ThetaTopology::yao_graph() const {
  return topo::yao_graph(*deployment_, table_);
}

std::vector<graph::EdgeId> ThetaTopology::replacement_path(NodeId u,
                                                           NodeId v) const {
  TN_ASSERT(u != v);
  TN_ASSERT_MSG(deployment_->in_range(u, v),
                "replacement_path requires a transmission-graph edge");
  std::vector<graph::EdgeId> out;
  replacement_path_rec(u, v, out, 0);
  return out;
}

void ThetaTopology::replacement_path_rec(NodeId u, NodeId v,
                                         std::vector<graph::EdgeId>& out,
                                         int depth) const {
  // Recursion strictly decreases |uv| over a finite set of pairs; the depth
  // guard is a safety net against degenerate inputs (e.g. duplicate points,
  // which violate the unique-distance precondition). Dense clusters can
  // legitimately produce long case-1 chains, so the guard is generous.
  TN_ASSERT_MSG(depth < 65536, "theta-path recursion too deep");
  const topo::Deployment& d = *deployment_;

  const graph::EdgeId direct = n_.find_edge(u, v);
  if (direct != graph::kInvalidEdge) {
    out.push_back(direct);
    return;
  }

  if (selects(u, v)) {
    // u -> v selected but not admitted: v admitted a nearer selector w in
    // the sector of v containing u; (v, w) is an N edge and |uw| < |uv|.
    const int sv = geom::sector_index(d.positions[v], d.positions[u], theta_);
    const NodeId w = admitted(v, sv);
    TN_ASSERT(w != kInvalidNode && w != u);
    replacement_path_rec(u, w, out, depth + 1);
    const graph::EdgeId e = n_.find_edge(w, v);
    TN_ASSERT(e != graph::kInvalidEdge);
    out.push_back(e);
    return;
  }
  if (selects(v, u)) {
    // Mirror image: u admitted a nearer selector w in u's sector towards v.
    const int su = geom::sector_index(d.positions[u], d.positions[v], theta_);
    const NodeId w = admitted(u, su);
    TN_ASSERT(w != kInvalidNode && w != v);
    const graph::EdgeId e = n_.find_edge(u, w);
    TN_ASSERT(e != graph::kInvalidEdge);
    out.push_back(e);
    replacement_path_rec(w, v, out, depth + 1);
    return;
  }

  // v is not u's nearest in S(u, v): hop to that nearest node w, then close
  // the (shorter) gap w -> v recursively.
  const int su = geom::sector_index(d.positions[u], d.positions[v], theta_);
  const NodeId w = table_.nearest(u, su);
  TN_ASSERT(w != kInvalidNode && w != v);
  replacement_path_rec(u, w, out, depth + 1);
  replacement_path_rec(w, v, out, depth + 1);
}

std::uint32_t ThetaTopology::max_replacement_reuse(
    std::span<const std::pair<NodeId, NodeId>> matching) const {
  std::vector<std::uint32_t> uses(n_.num_edges(), 0);
  std::uint32_t best = 0;
  std::vector<bool> counted(n_.num_edges(), false);
  for (const auto& [u, v] : matching) {
    const std::vector<graph::EdgeId> path = replacement_path(u, v);
    // A path may revisit an edge; a single replacement path counts once per
    // edge (the lemma counts paths, not traversals).
    std::fill(counted.begin(), counted.end(), false);
    for (const graph::EdgeId e : path) {
      if (counted[e]) continue;
      counted[e] = true;
      best = std::max(best, ++uses[e]);
    }
  }
  return best;
}

}  // namespace thetanet::core
