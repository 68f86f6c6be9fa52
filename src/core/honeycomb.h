#pragma once
// The honeycomb algorithm of Section 3.4: medium access for nodes with the
// same *fixed* transmission strength (range normalized to 1).
//
// The plane is tiled by hexagons of side length 3 + 2*Delta (Figure 5).
// Every directed sender-receiver pair (s, t) with |st| <= 1 is assigned to
// the hexagon containing s and carries a *benefit* — the maximum buffer
// height difference over all destinations (the balancing benefit). Within
// each hexagon the pair of maximum benefit becomes a *contestant* if its
// benefit exceeds T; each contestant transmits with probability p_t <= 1/6,
// which by Lemma 3.7 lets every contestant succeed with probability >= 1/2.
// The honeycomb algorithm is the contestant selection plus the
// (T, gamma, 3)-balancing rule applied to contestants (Theorem 3.8 —
// constant-competitive throughput).

#include <cstdint>
#include <span>
#include <vector>

#include "core/balancing_router.h"
#include "geom/hex_tiling.h"
#include "geom/rng.h"
#include "graph/graph.h"
#include "topology/deployment.h"

namespace thetanet::core {

struct HoneycombParams {
  double delta = 1.0;      ///< guard zone Delta (> 0)
  double p_t = 1.0 / 6.0;  ///< contestant transmission probability (<= 1/6)
  /// Ablation hook: override the hexagon side (paper value 3 + 2*Delta when
  /// 0). Shrinking the side below the paper's value violates Lemma 3.7's
  /// independence precondition — bench E9b measures the resulting collision
  /// inflation. The guard distance used by resolve() stays 1 + delta.
  double side_override = 0.0;
};

class HoneycombMac {
 public:
  /// `unit_graph` must be the transmission graph of `d` with max_range = 1
  /// (the fixed transmission radius); its node count must match `d`'s
  /// (asserted).
  HoneycombMac(const topo::Deployment& d, const graph::Graph& unit_graph,
               const HoneycombParams& params);

  const geom::HexTiling& tiling() const { return tiling_; }
  const HoneycombParams& params() const { return params_; }

  /// Per-step outcome statistics for Lemmas 3.6/3.7 instrumentation.
  struct SelectionStats {
    std::size_t candidate_pairs = 0;  ///< directed pairs with benefit > T
    std::size_t contestants = 0;      ///< hexagon winners
    double contestant_benefit_sum = 0.0;
    double candidate_benefit_sum = 0.0;
  };

  /// Contestant selection: per hexagon, the max-benefit pair (if its benefit
  /// clears the router's threshold T), then a p_t coin per contestant.
  ///
  /// `costs` holds one cost per unit-graph edge, each c >= 0, and the
  /// router's gamma must be >= 0 (asserted). A pair's benefit never exceeds
  /// tallest - gamma*c, its sender's tallest buffer less the cost term
  /// (computed in double, the bound is exact), so only senders with a buffer
  /// taller than T are visited, and of their pairs only those with
  /// tallest - gamma*c > T reach the inlined best_for_pair. The result is
  /// that of a scan over all 2E directed pairs in (edge id, direction)
  /// order: same transmissions, same statistics, same coins drawn from
  /// `rng`.
  ///
  /// The contestant set depends only on the heights, the costs and
  /// (T, gamma); only the coins are fresh each round. So select() keeps a
  /// memo of its last selection — the bank's stamp() and journal position,
  /// T, gamma, a copy of `costs`, every pair that cleared T in (edge id,
  /// direction) order, the winners in the winner map's iteration order and
  /// the candidate statistics — and reuses it when the stamp, T and gamma
  /// match and every cost matches bitwise (by content, not by address:
  /// callers edit their cost vector in place). A hit skips the sender walk
  /// and the map, and draws the coins over the stored winners in the stored
  /// order, so both paths return the same transmissions, statistics and rng
  /// draws.
  ///
  /// A miss with T, gamma and the costs unchanged follows the change: a
  /// pair's benefit reads only its two endpoints' buffers, so the bank's
  /// change journal (BufferBank::for_each_change_since) names every node x
  /// whose pairs may differ. select() drops the stored pairs that touch
  /// such an x, evaluates (x, ·) and (·, x) afresh, and merges both lists in
  /// key order. The cold start, a T, gamma or cost change and a journal
  /// that no longer reaches the memo's state (more than
  /// BufferBank::kJournalSize entries since, or another bank) walk every
  /// active sender instead, through the same pair evaluation. Either way the
  /// winner map is then built fresh from the full pair list: a reused map
  /// keeps its bucket count, which changes its iteration order and so which
  /// contestant draws which coin. The costs are copied only when they
  /// changed.
  ///
  /// The memo and the walk's scratch are mutable state: one HoneycombMac
  /// must not serve concurrent select() calls (the same contract as
  /// BalancingRouter's plan scratch). The result vector is allocated only
  /// when some contestant transmits.
  std::vector<PlannedTx> select(const BalancingRouter& router,
                                std::span<const double> costs, geom::Rng& rng,
                                SelectionStats* stats = nullptr) const;

  /// Fixed-strength interference: transmission (s_i, t_i) fails iff some
  /// node of another transmitting pair is within distance 1 + Delta of s_i
  /// or t_i.
  std::vector<bool> resolve(std::span<const PlannedTx> txs) const;

 private:
  const topo::Deployment* deployment_;
  const graph::Graph* unit_graph_;
  HoneycombParams params_;
  geom::HexTiling tiling_;
  std::uint64_t coin_cut_;  ///< geom::Rng::bernoulli_cut(params_.p_t)

  // A pair that cleared T, with its sender's hexagon and its sort key:
  // (edge id, backward bit), the order of a scan over all directed pairs.
  struct Candidate {
    std::uint64_t key;
    PlannedTx tx;
    geom::HexCell cell;
  };
  // select()'s last selection; stamp 0 (never a bank's stamp) while empty.
  struct Memo {
    std::uint64_t stamp = 0;
    std::uint64_t position = 0;  // the bank's journal_position() at `stamp`
    double threshold = 0.0;
    double gamma = 0.0;
    std::vector<double> costs;
    std::vector<Candidate> candidates;  // ascending by key
    std::vector<PlannedTx> winners;     // in the winner map's iteration order
    double candidate_benefit_sum = 0.0;
  };

  // Appends pair (s, to) over `edge` to found_ when its benefit clears T.
  // `tallest` is s's tallest buffer; the pair is skipped unevaluated when
  // tallest - gamma*c <= T (see select()).
  void evaluate_pair(const BalancingRouter& router, graph::NodeId s,
                     graph::NodeId to, graph::EdgeId edge, double tallest,
                     std::span<const double> costs) const;

  mutable Memo memo_;
  // Reused scratch of select(): freshly evaluated pairs, the merge target,
  // and the changed nodes (listed once each, flagged in changed_flag_).
  mutable std::vector<Candidate> found_;
  mutable std::vector<Candidate> merged_;
  mutable std::vector<graph::NodeId> changed_;
  mutable std::vector<std::uint8_t> changed_flag_;
};

}  // namespace thetanet::core
