#include "sim/stack.h"

#include <utility>

#include "common/assert.h"
#include "graph/edge_costs.h"

namespace thetanet::sim {

Stack::Stack(const graph::Graph& topo, core::BalancingRouter router)
    : router_(std::move(router)) {
  set_topology(topo);
}

void Stack::set_topology(const graph::Graph& topo) {
  TN_ASSERT(topo.num_nodes() == router_.buffers().num_nodes());
  topo_ = &topo;
  costs_ = graph::edge_costs(topo);
}

void Stack::given(const route::AdversaryTrace& trace) {
  const route::StepSpec& step = trace.step_at(now());
  for (const auto& [e, c] : step.cost_overrides) costs_[e] = c;
  overridden_ = &step;
  router_.plan_into(*topo_, step.active, costs_, txs_);
  failed_.clear();
}

void Stack::all_edges() {
  router_.plan_all_edges_into(*topo_, costs_, txs_);
  failed_.clear();
}

void Stack::honeycomb(const core::HoneycombMac& mac, geom::Rng& rng,
                      core::HoneycombMac::SelectionStats* sel) {
  txs_ = mac.select(router_, costs_, rng, sel);
  failed_ = mac.resolve(txs_);
}

void Stack::finish(const route::AdversaryTrace& trace) {
  execute();
  if (now() < trace.horizon())
    for (const route::Injection& inj : trace.steps[now()].injections)
      router_.inject(inj.packet, m_);
  inject_and_end({});
}

void Stack::finish(route::InjectionEngine& engine) {
  execute();
  engine.step(now(), m_, arrivals_);
  inject_and_end(arrivals_);
}

void Stack::finish(std::span<const route::Packet> arrivals) {
  execute();
  inject_and_end(arrivals);
}

void Stack::execute() {
  router_.execute(txs_, failed_, costs_, now(), m_);
  if (overridden_ != nullptr)
    for (const auto& [e, c] : overridden_->cost_overrides)
      costs_[e] = topo_->edge_cost(e);
  overridden_ = nullptr;
}

void Stack::inject_and_end(std::span<const route::Packet> arrivals) {
  for (const route::Packet& p : arrivals) router_.inject(p, m_);
  router_.end_step(m_);
}

}  // namespace thetanet::sim
