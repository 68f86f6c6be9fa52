#include "sim/scenarios.h"

#include <utility>

#include "common/assert.h"
#include "obs/span.h"
#include "sim/stack.h"

namespace thetanet::sim {

using core::BalancingRouter;
using route::AdversaryTrace;
using route::Time;

namespace {

/// Horizon plus `extra_drain` rounds of `mac_phase()`, then finish(trace).
template <class MacPhase>
ScenarioResult drive(Stack& stack, const AdversaryTrace& trace,
                     Time extra_drain, MacPhase&& mac_phase) {
  const Time total = trace.horizon() + extra_drain;
  TN_OBS_SPAN("router.run");
  for (Time t = 0; t < total; ++t) {
    mac_phase();
    stack.finish(trace);
  }
  ScenarioResult r{stack.metrics(), trace.opt};
  r.metrics.leftover_packets = stack.router().packets_in_flight();
  return r;
}

}  // namespace

ScenarioResult run_mac_given(const AdversaryTrace& trace,
                             const core::BalancingParams& params,
                             Time extra_drain,
                             core::DestinationPredicate dest_pred) {
  TN_ASSERT(trace.topology != nullptr);
  if (trace.steps.empty()) return {{}, trace.opt};  // nothing to run or drain
  BalancingRouter router(trace.topology->num_nodes(), params);
  if (dest_pred) router.set_destination_predicate(std::move(dest_pred));
  Stack stack(*trace.topology, std::move(router));
  return drive(stack, trace, extra_drain, [&] { stack.given(trace); });
}

template <class Mac>
ScenarioResult run_randomized_mac(const AdversaryTrace& trace,
                                  const graph::Graph& run_topo, const Mac& mac,
                                  const core::BalancingParams& params,
                                  geom::Rng& rng, Time extra_drain) {
  Stack stack(run_topo, BalancingRouter(run_topo.num_nodes(), params));
  return drive(stack, trace, extra_drain,
               [&] { stack.randomized(mac, rng); });
}

template ScenarioResult run_randomized_mac(
    const AdversaryTrace&, const graph::Graph&, const core::RandomizedMac&,
    const core::BalancingParams&, geom::Rng&, Time);
template ScenarioResult run_randomized_mac(
    const AdversaryTrace&, const graph::Graph&, const core::SlottedAlohaMac&,
    const core::BalancingParams&, geom::Rng&, Time);

ScenarioResult run_honeycomb(const AdversaryTrace& trace,
                             const graph::Graph& unit_graph,
                             const core::HoneycombMac& mac,
                             const core::BalancingParams& params,
                             geom::Rng& rng, Time extra_drain,
                             HoneycombRunStats* hc_stats) {
  Stack stack(unit_graph, BalancingRouter(unit_graph.num_nodes(), params));
  HoneycombRunStats hs;
  const ScenarioResult r = drive(stack, trace, extra_drain, [&] {
    core::HoneycombMac::SelectionStats sel;
    stack.honeycomb(mac, rng, &sel);
    if (sel.contestants > 0) ++hs.contestant_steps;
    hs.contestants_total += sel.contestants;
    hs.transmissions_total += stack.txs().size();
    for (const bool f : stack.failed()) hs.collisions_total += f ? 1 : 0;
  });
  if (hc_stats != nullptr) *hc_stats = hs;
  return r;
}

}  // namespace thetanet::sim
