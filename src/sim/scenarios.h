#pragma once
// End-to-end simulation drivers for the three scenarios Section 3 analyses:
//
//   1. MAC-given routing (Section 3.2): the adversary supplies per-step
//      non-interfering active edge sets and costs; the (T, gamma)-balancing
//      router makes all routing decisions. No collisions.
//   2. Topology-based routing (Section 3.3): only a topology is given; the
//      randomized interference MAC self-activates edges and interfering
//      simultaneous transmissions fail.
//   3. Honeycomb (Section 3.4): fixed transmission strength; contestants are
//      selected per hexagon and transmit with probability p_t.
//
// Every driver consumes a certified AdversaryTrace (routing/adversary.h),
// whose OptStats give the exact competitive-ratio denominators.

#include "core/balancing_router.h"
#include "core/honeycomb.h"
#include "core/interference_mac.h"
#include "geom/rng.h"
#include "routing/adversary.h"
#include "routing/metrics.h"

namespace thetanet::sim {

struct ScenarioResult {
  route::RunMetrics metrics;
  route::OptStats opt;  ///< copied from the trace for convenience

  /// Deliveries relative to the certified optimum (the paper's throughput
  /// competitiveness t).
  double throughput_ratio() const {
    return opt.deliveries == 0 ? 0.0
                               : static_cast<double>(metrics.deliveries) /
                                     static_cast<double>(opt.deliveries);
  }
  /// Average cost per delivery relative to OPT's C-bar (the c factor).
  double cost_ratio() const {
    return opt.avg_cost == 0.0 ? 0.0
                               : metrics.avg_cost_per_delivery() / opt.avg_cost;
  }
  /// Peak buffer relative to OPT's B (the s factor).
  double buffer_ratio() const {
    return opt.max_buffer == 0 ? 0.0
                               : static_cast<double>(metrics.peak_buffer) /
                                     static_cast<double>(opt.max_buffer);
  }
};

/// Scenario 1. The router runs on the trace's own topology, using exactly
/// the adversary's active edge sets and per-step costs. `extra_drain` steps
/// are appended (re-activating each trace step's edge pattern cyclically) to
/// let queued packets finish.
ScenarioResult run_mac_given(const route::AdversaryTrace& trace,
                             const core::BalancingParams& params,
                             route::Time extra_drain = 0,
                             core::DestinationPredicate dest_pred = {});

/// Scenario 2. The router runs on `run_topo` (which may differ from the
/// trace topology, e.g. ThetaALG's N while OPT was certified on G*); the MAC
/// decides activations and collisions: core::RandomizedMac, or the
/// interference-oblivious core::SlottedAlohaMac ablation. Cost overrides in
/// the trace are ignored (costs are the topology's energy costs).
template <class Mac>
ScenarioResult run_randomized_mac(const route::AdversaryTrace& trace,
                                  const graph::Graph& run_topo, const Mac& mac,
                                  const core::BalancingParams& params,
                                  geom::Rng& rng, route::Time extra_drain = 0);

/// Scenario 3. Fixed transmission strength: `unit_graph` is the range-1
/// transmission graph the HoneycombMac was built over.
struct HoneycombRunStats {
  std::size_t contestant_steps = 0;       ///< steps with >= 1 contestant
  std::size_t contestants_total = 0;
  std::size_t transmissions_total = 0;    ///< contestants that won the p_t coin
  std::size_t collisions_total = 0;
};
ScenarioResult run_honeycomb(const route::AdversaryTrace& trace,
                             const graph::Graph& unit_graph,
                             const core::HoneycombMac& mac,
                             const core::BalancingParams& params,
                             geom::Rng& rng, route::Time extra_drain = 0,
                             HoneycombRunStats* hc_stats = nullptr);

}  // namespace thetanet::sim
