#include "core/theta_maintenance.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "geom/angles.h"
#include "geom/spatial_grid.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"
#include "topology/bucket_select.h"

namespace thetanet::core {

using graph::kInvalidNode;
using graph::NodeId;

namespace {

std::vector<std::pair<NodeId, NodeId>> edge_pairs(const graph::Graph& g) {
  std::vector<std::pair<NodeId, NodeId>> out;
  out.reserve(g.num_edges());
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
    out.emplace_back(g.edge(e).u, g.edge(e).v);
  return out;  // already sorted: rebuild_graph_from_table adds sorted pairs
}

/// |A Δ B| for two sorted pair lists — edges added plus edges removed.
std::size_t symmetric_difference_size(
    const std::vector<std::pair<NodeId, NodeId>>& a,
    const std::vector<std::pair<NodeId, NodeId>>& b) {
  std::size_t diff = 0, i = 0, j = 0;
  while (i < a.size() && j < b.size()) {
    if (a[i] == b[j]) {
      ++i, ++j;
    } else if (a[i] < b[j]) {
      ++diff, ++i;
    } else {
      ++diff, ++j;
    }
  }
  return diff + (a.size() - i) + (b.size() - j);
}

}  // namespace

ThetaMaintainer::ThetaMaintainer(topo::Deployment d, double theta)
    : d_(std::move(d)),
      theta_(theta),
      table_(topo::compute_sector_table(d_, theta)),
      active_(d_.size(), 1),
      num_active_(d_.size()) {
  rebuild_graph_from_table();
}

void ThetaMaintainer::recompute_table_row(NodeId u,
                                          const geom::SpatialGrid& grid) {
  TN_DCHECK(active_[u]);
  for (int s = 0; s < table_.sectors(); ++s)
    table_.set_nearest(u, s, kInvalidNode);
  grid.for_each_within(d_.positions[u], d_.max_range, [&](std::uint32_t v) {
    if (v == u || !active_[v]) return;
    const int s = geom::sector_index(d_.positions[u], d_.positions[v], theta_);
    if (topo::nearer(d_, u, v, table_.nearest(u, s)))
      table_.set_nearest(u, s, v);
  });
}

std::vector<NodeId> ThetaMaintainer::affected_near(
    const geom::SpatialGrid& grid, geom::Vec2 center) const {
  std::vector<NodeId> out;
  grid.for_each_within(center, d_.max_range, [&](std::uint32_t u) {
    if (active_[u]) out.push_back(u);
  });
  return out;
}

void ThetaMaintainer::finish_op(
    const std::vector<std::pair<NodeId, NodeId>>& edges_before,
    std::size_t tables_recomputed) {
  // Per-operation telemetry: the round index is the operation number, so
  // the edge-churn series reads as rewiring per topology change.
  const std::size_t churn =
      symmetric_difference_size(edges_before, edge_pairs(n_));
  TN_OBS_COUNT("maintenance.moves", 1);
  TN_OBS_COUNT("maintenance.edge_churn_total", churn);
  TN_OBS_SERIES_ADD("maintenance.edge_churn", ops_, churn);
  TN_OBS_SERIES_ADD("maintenance.tables_recomputed", ops_, tables_recomputed);
  ++ops_;
}

std::size_t ThetaMaintainer::move_node(NodeId v, geom::Vec2 p) {
  TN_ASSERT(v < d_.size());
  const geom::Vec2 old = d_.positions[v];
  d_.positions[v] = p;
  if (!active_[v]) return 0;  // position bookkeeping only; no overlay change

  // Affected nodes: anything active in range of the old or the new position
  // (their neighbourhood gained or lost v, or v's distance to them changed),
  // plus v itself. Phase 2 is re-derived globally from the tables, which is
  // cheap, so table rows are the only per-node cost.
  const geom::SpatialGrid grid(d_.positions, std::max(d_.max_range, 1e-9));
  std::vector<NodeId> affected{v};
  for (const NodeId u : affected_near(grid, old)) affected.push_back(u);
  for (const NodeId u : affected_near(grid, p)) affected.push_back(u);
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  const std::vector<std::pair<NodeId, NodeId>> before = edge_pairs(n_);
  for (const NodeId u : affected) recompute_table_row(u, grid);
  rebuild_graph_from_table();
  finish_op(before, affected.size());
  return affected.size();
}

NodeId ThetaMaintainer::add_node(geom::Vec2 p) {
  const NodeId v = static_cast<NodeId>(d_.size());
  d_.positions.push_back(p);
  table_.resize(d_.size());
  active_.push_back(0);
  // Activation does the table work; the new row starts empty and inactive
  // so the grid scan below sees a consistent state.
  apply_liveness_change(v, /*make_active=*/true, /*recompute_neighbors=*/true);
  return v;
}

std::size_t ThetaMaintainer::deactivate_node(NodeId v) {
  TN_ASSERT(v < d_.size());
  if (!active_[v]) return 0;
  return apply_liveness_change(v, /*make_active=*/false,
                               /*recompute_neighbors=*/true);
}

std::size_t ThetaMaintainer::activate_node(NodeId v,
                                           bool recompute_neighbors) {
  TN_ASSERT(v < d_.size());
  if (active_[v]) return 0;
  return apply_liveness_change(v, /*make_active=*/true, recompute_neighbors);
}

std::size_t ThetaMaintainer::apply_liveness_change(NodeId v, bool make_active,
                                                   bool recompute_neighbors) {
  const geom::SpatialGrid grid(d_.positions, std::max(d_.max_range, 1e-9));
  active_[v] = make_active ? 1 : 0;
  if (make_active)
    ++num_active_;
  else
    --num_active_;

  // Affected rows: every active node in range of v's position (their
  // neighbourhood gained or lost v), plus v's own row. A deactivated node's
  // row is cleared so no stale selection survives.
  std::vector<NodeId> affected;
  if (make_active) affected.push_back(v);
  if (recompute_neighbors) {
    for (const NodeId u : affected_near(grid, d_.positions[v]))
      if (u != v) affected.push_back(u);
  }
  std::sort(affected.begin(), affected.end());
  affected.erase(std::unique(affected.begin(), affected.end()),
                 affected.end());

  const std::vector<std::pair<NodeId, NodeId>> before = edge_pairs(n_);
  if (!make_active)
    for (int s = 0; s < table_.sectors(); ++s)
      table_.set_nearest(v, s, kInvalidNode);
  for (const NodeId u : affected) recompute_table_row(u, grid);
  rebuild_graph_from_table();
  finish_op(before, affected.size());
  return affected.size();
}

void ThetaMaintainer::rebuild_graph_from_table() {
  // Phase 2 from the tables (identical to topo::theta_phase2): every
  // selection u -> v files u as an incoming candidate at v; v admits the
  // nearest candidate per sector. Inactive rows are empty, and active rows
  // never reference inactive nodes, so inactive nodes stay isolated. The
  // fold stays serial and local: theta_phase2's parallel discovery would
  // add parallel.jobs and theta.* counters to every serve and churn frame.
  const std::size_t n = d_.size();
  const int k = table_.sectors();
  std::vector<NodeId> admitted(n * static_cast<std::size_t>(k), kInvalidNode);
  const auto slot = [&](NodeId v, int s) {
    return static_cast<std::size_t>(v) * static_cast<std::size_t>(k) +
           static_cast<std::size_t>(s);
  };
  for (NodeId u = 0; u < n; ++u) {
    for (int s = 0; s < k; ++s) {
      const NodeId v = table_.nearest(u, s);
      if (v == kInvalidNode) continue;
      const int sv = geom::sector_index(d_.positions[v], d_.positions[u], theta_);
      NodeId& cur = admitted[slot(v, sv)];
      if (topo::nearer(d_, v, u, cur)) cur = u;
    }
  }
  n_ = topo::graph_from_table(d_, static_cast<std::size_t>(k), admitted);
}

topo::Deployment ThetaMaintainer::active_deployment(
    std::vector<NodeId>* ids) const {
  topo::Deployment out;
  out.max_range = d_.max_range;
  out.kappa = d_.kappa;
  out.positions.reserve(num_active_);
  if (ids) {
    ids->clear();
    ids->reserve(num_active_);
  }
  for (NodeId v = 0; v < d_.size(); ++v)
    if (active_[v]) {
      out.positions.push_back(d_.positions[v]);
      if (ids) ids->push_back(v);
    }
  return out;
}

bool ThetaMaintainer::matches_full_rebuild() const {
  std::vector<NodeId> ids;
  const topo::Deployment compact = active_deployment(&ids);
  if (compact.size() < 2) return n_.num_edges() == 0;
  const ThetaTopology fresh(compact, theta_);
  if (fresh.graph().num_edges() != n_.num_edges()) return false;
  // ids is ascending, so mapping fresh's compact endpoints preserves both
  // the per-edge (min, max) orientation and the sorted edge order.
  std::vector<std::pair<NodeId, NodeId>> fresh_pairs;
  fresh_pairs.reserve(fresh.graph().num_edges());
  for (graph::EdgeId e = 0; e < fresh.graph().num_edges(); ++e)
    fresh_pairs.emplace_back(ids[fresh.graph().edge(e).u],
                             ids[fresh.graph().edge(e).v]);
  std::sort(fresh_pairs.begin(), fresh_pairs.end());
  return fresh_pairs == edge_pairs(n_);
}

}  // namespace thetanet::core
