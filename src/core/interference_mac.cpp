#include "core/interference_mac.h"

#include <algorithm>

#include "common/assert.h"

namespace thetanet::core {

RandomizedMac::RandomizedMac(const graph::Graph& topo,
                             const topo::Deployment& d,
                             const interf::InterferenceModel& model)
    : topo_(&topo),
      deployment_(&d),
      model_(model),
      bounds_(interf::interference_bounds(topo, d, model)) {
  for (const std::uint32_t b : bounds_) max_bound_ = std::max(max_bound_, b);
  cuts_.resize(bounds_.size());
  for (std::size_t e = 0; e < bounds_.size(); ++e)
    cuts_[e] = geom::Rng::bernoulli_cut(
        activation_prob(static_cast<graph::EdgeId>(e)));
}

std::vector<graph::EdgeId> RandomizedMac::activate(geom::Rng& rng) const {
  std::vector<graph::EdgeId> active;
  // The draws go through a local copy, written back at the end: on `rng`
  // itself, which push_back's operator new might alias, every edge would
  // load and store the whole generator state.
  geom::Rng local = rng;
  for (graph::EdgeId e = 0; e < cuts_.size(); ++e)
    if (local.bernoulli_below(cuts_[e])) active.push_back(e);
  rng = local;
  return active;
}

std::vector<bool> RandomizedMac::resolve(std::span<const PlannedTx> txs) const {
  std::vector<graph::EdgeId> edges;
  edges.reserve(txs.size());
  for (const PlannedTx& tx : txs) edges.push_back(tx.edge);
  return interf::failed_transmissions(edges, *topo_, *deployment_, model_);
}

}  // namespace thetanet::core
