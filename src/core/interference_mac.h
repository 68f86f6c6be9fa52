#pragma once
// The randomized symmetry-breaking MAC of Section 3.3. Every edge e of the
// topology knows an upper bound
//
//     I_e = max { |I(e')| : e' in I(e) or e' = e }
//
// on the interference number of any edge it interferes with, and
// self-activates each step with probability 1/(2 * I_e). Lemma 3.2: an
// active edge then collides with other active edges with probability at
// most 1/2. Active edges are handed to the (T, gamma)-balancing router;
// the combination is the (T, gamma, I)-balancing algorithm of Theorem 3.3.

#include <span>
#include <vector>

#include "core/balancing_router.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "interference/model.h"
#include "topology/deployment.h"

namespace thetanet::core {

class RandomizedMac {
 public:
  RandomizedMac(const graph::Graph& topo, const topo::Deployment& d,
                const interf::InterferenceModel& model);

  /// I = max_e I_e (the worst bound any edge uses).
  std::uint32_t interference_bound() const { return max_bound_; }

  /// The per-edge activation probability 1/(2 * I_e).
  double activation_prob(graph::EdgeId e) const {
    return 1.0 / (2.0 * static_cast<double>(bounds_[e]));
  }

  /// Sample this step's active edge set: edge e is active with probability
  /// activation_prob(e), one draw of `rng` per edge in edge-id order. Each
  /// draw is compared with an integer cut precomputed per edge
  /// (geom::Rng::bernoulli_cut), so a round costs one draw, a shift and a
  /// compare per edge, and draws and outcomes are exactly those of
  /// rng.bernoulli(activation_prob(e)). The loop draws through a local copy
  /// of `rng`, written back when it ends, so the generator state stays in
  /// registers.
  std::vector<graph::EdgeId> activate(geom::Rng& rng) const;

  /// Collision outcome for the transmissions the router actually makes:
  /// tx i fails iff some other transmitting edge interferes with it
  /// (Section 2.4 success condition).
  std::vector<bool> resolve(std::span<const PlannedTx> txs) const;

 private:
  const graph::Graph* topo_;
  const topo::Deployment* deployment_;
  interf::InterferenceModel model_;
  std::vector<std::uint32_t> bounds_;  ///< I_e per edge (>= 1)
  std::vector<std::uint64_t> cuts_;    ///< bernoulli_cut(activation_prob(e))
  std::uint32_t max_bound_ = 1;
};

/// Ablation baseline: interference-oblivious slotted ALOHA. Every edge
/// self-activates with the same fixed probability p, ignoring the
/// interference structure entirely. Contrast with RandomizedMac: without
/// the 1/(2*I_e) scaling, Lemma 3.2's <= 1/2 collision guarantee evaporates
/// — at p anywhere near the ALOHA throughput optimum, dense regions jam
/// (bench E7b measures the collapse).
class SlottedAlohaMac {
 public:
  SlottedAlohaMac(const graph::Graph& topo, const topo::Deployment& d,
                  const interf::InterferenceModel& model, double p)
      : topo_(&topo),
        deployment_(&d),
        model_(model),
        p_(p),
        cut_(geom::Rng::bernoulli_cut(p)) {
    TN_ASSERT(p > 0.0 && p <= 1.0);
  }

  double activation_prob() const { return p_; }

  /// Every edge is active with probability p: the draws and outcomes of
  /// rng.bernoulli(p) per edge in edge-id order, through one integer cut.
  std::vector<graph::EdgeId> activate(geom::Rng& rng) const {
    std::vector<graph::EdgeId> active;
    geom::Rng local = rng;  // in registers; see RandomizedMac::activate
    for (graph::EdgeId e = 0; e < topo_->num_edges(); ++e)
      if (local.bernoulli_below(cut_)) active.push_back(e);
    rng = local;
    return active;
  }

  std::vector<bool> resolve(std::span<const PlannedTx> txs) const {
    std::vector<graph::EdgeId> edges;
    edges.reserve(txs.size());
    for (const PlannedTx& tx : txs) edges.push_back(tx.edge);
    return interf::failed_transmissions(edges, *topo_, *deployment_, model_);
  }

 private:
  const graph::Graph* topo_;
  const topo::Deployment* deployment_;
  interf::InterferenceModel model_;
  double p_;
  std::uint64_t cut_;  ///< geom::Rng::bernoulli_cut(p_)
};

}  // namespace thetanet::core
