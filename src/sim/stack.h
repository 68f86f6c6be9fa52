#pragma once
// One round of the Section 3 step model, in the paper's order: the MAC picks
// the usable edges and the router plans over them (MAC phase), then the plan
// executes, new packets are injected and the step ends (finish phase). Each
// phase is its own call; between them the caller may read txs() and
// failed(). The stack owns the router, the metrics, the edge costs and the
// per-round buffers.

#include <span>
#include <vector>

#include "core/balancing_router.h"
#include "core/honeycomb.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "routing/adversary.h"
#include "routing/injection.h"
#include "routing/metrics.h"

namespace thetanet::sim {

class Stack {
 public:
  /// `topo` (with the router's node count) must outlive its use; costs are
  /// its energy costs.
  Stack(const graph::Graph& topo, core::BalancingRouter router);
  /// Route over a changed network from the next round on; buffers and
  /// metrics carry over.
  void set_topology(const graph::Graph& topo);

  /// The trace's active set for this round, its cost overrides in force
  /// until the round is charged; past the horizon, AdversaryTrace::step_at.
  void given(const route::AdversaryTrace& trace);
  /// Every edge usable, through plan_all_edges_into.
  void all_edges();
  /// Any MAC with activate(rng) and resolve(txs): RandomizedMac,
  /// SlottedAlohaMac.
  template <class Mac>
  void randomized(const Mac& mac, geom::Rng& rng) {
    router_.plan_into(*topo_, mac.activate(rng), costs_, txs_);
    failed_ = mac.resolve(txs_);
  }
  void honeycomb(const core::HoneycombMac& mac, geom::Rng& rng,
                 core::HoneycombMac::SelectionStats* sel);

  /// Injects the trace's packets for this round (none past the horizon).
  void finish(const route::AdversaryTrace& trace);
  /// Injects the engine's arrivals, drawn after execution (the closed-loop
  /// window counts this round's deliveries).
  void finish(route::InjectionEngine& engine);
  void finish(std::span<const route::Packet> arrivals);

  const std::vector<core::PlannedTx>& txs() const { return txs_; }
  const std::vector<bool>& failed() const { return failed_; }
  /// Rounds finished so far (the router's round clock).
  route::Time now() const { return static_cast<route::Time>(router_.round()); }
  const route::RunMetrics& metrics() const { return m_; }
  const core::BalancingRouter& router() const { return router_; }

 private:
  void execute();
  void inject_and_end(std::span<const route::Packet> arrivals);

  const graph::Graph* topo_;
  core::BalancingRouter router_;
  route::RunMetrics m_;
  std::vector<double> costs_;
  std::vector<core::PlannedTx> txs_;
  std::vector<bool> failed_;
  std::vector<route::Packet> arrivals_;
  const route::StepSpec* overridden_ = nullptr;  ///< costs to restore
};

}  // namespace thetanet::sim
