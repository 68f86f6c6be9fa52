#pragma once
// Yao-graph machinery (phase 1 of ThetaALG, Section 2.1). Each node u
// partitions the plane around itself into sectors of angle theta and keeps,
// per sector, the nearest node within transmission range:
//
//   N(u) = { v : v is the node nearest to u in sector S(u, v) }.
//
// The undirected graph N_1 with edges {u,v : u in N(v) or v in N(u)} is the
// classical Yao / theta-graph — a spanner with O(1) energy-stretch but
// worst-case Omega(n) in-degree (the hub_ring generator exhibits it).
// ThetaALG's phase 2 (theta_phase2 below, wrapped by core::ThetaTopology)
// prunes N_1 to constant degree; both phases consume the SectorTable
// computed here, and both run on the shared kernel in bucket_select.h.

#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "topology/deployment.h"

namespace thetanet::topo {

/// Per-node, per-sector nearest neighbours within range.
class SectorTable {
 public:
  /// Empty table (0 nodes, 1 sector) — a placeholder for two-phase owners
  /// that assign the real table inside their constructor body.
  SectorTable() : sectors_(1) {}

  /// Adopt a row-major node x sector table (see nearest_per_bucket).
  SectorTable(int sectors, std::vector<graph::NodeId> nearest)
      : sectors_(sectors), nearest_(std::move(nearest)) {}

  int sectors() const { return sectors_; }
  std::size_t num_nodes() const {
    return nearest_.size() / static_cast<std::size_t>(sectors_);
  }

  /// Nearest node to u within range in u's sector s; kInvalidNode if empty.
  graph::NodeId nearest(graph::NodeId u, int s) const {
    return nearest_[index(u, s)];
  }

  void set_nearest(graph::NodeId u, int s, graph::NodeId v) {
    nearest_[index(u, s)] = v;
  }

  /// All entries, row-major node x sector.
  std::span<const graph::NodeId> entries() const { return nearest_; }

  /// Grow (or shrink) to n nodes; new rows start empty. Used by the
  /// incremental maintainer when nodes join a live deployment.
  void resize(std::size_t n) {
    nearest_.resize(n * static_cast<std::size_t>(sectors_),
                    graph::kInvalidNode);
  }

  /// True iff v = nearest(u, S(u,v)), i.e. v is in N(u).
  bool selects(graph::NodeId u, graph::NodeId v, const Deployment& d,
               double theta) const;

 private:
  std::size_t index(graph::NodeId u, int s) const {
    TN_ASSERT(s >= 0 && s < sectors_);
    return static_cast<std::size_t>(u) * static_cast<std::size_t>(sectors_) +
           static_cast<std::size_t>(s);
  }

  int sectors_;
  std::vector<graph::NodeId> nearest_;
};

/// Deterministic "nearer" relation implementing the paper's unique-distance
/// assumption: compare (squared distance, smaller id of the candidate pair).
bool nearer(const Deployment& d, graph::NodeId from, graph::NodeId a,
            graph::NodeId b);

/// Compute the sector table for the deployment at sector angle theta.
/// theta must be <= pi/3 (paper requirement; asserts).
SectorTable compute_sector_table(const Deployment& d, double theta);

/// Phase-1 graph N_1 (the Yao graph restricted to transmission range).
graph::Graph yao_graph(const Deployment& d, double theta);

/// As yao_graph but reusing a precomputed sector table.
graph::Graph yao_graph(const Deployment& d, const SectorTable& table);

/// Phase 2 of ThetaALG: per-sector admission of the shortest incoming
/// phase-1 edge, plus the resulting topology N. `admitted` is node x sector
/// row-major: admitted[v*k + s] is the selector whose edge v admitted in
/// its sector s (kInvalidNode if none); every admitted edge appears in `n`.
struct ThetaAdmission {
  std::vector<graph::NodeId> admitted;
  graph::Graph n;
};

/// Run phase 2 over a phase-1 sector table. This is the construction
/// core::ThetaTopology delegates to; it lives in the topology layer so the
/// builder registry can expose ThetaALG without depending on core.
ThetaAdmission theta_phase2(const Deployment& d, double theta,
                            const SectorTable& table);

}  // namespace thetanet::topo
