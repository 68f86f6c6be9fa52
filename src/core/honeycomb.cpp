#include "core/honeycomb.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <iterator>
#include <optional>
#include <unordered_map>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace thetanet::core {

namespace {
bool same_bits(double a, double b) {
  return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
}

double tallest_buffer(const route::BufferBank& buffers, graph::NodeId v) {
  std::uint32_t top = 0;
  for (const route::BufferBank::Entry& e : buffers.entries(v))
    top = std::max(top, e.height);
  return static_cast<double>(top);
}
}  // namespace

HoneycombMac::HoneycombMac(const topo::Deployment& d,
                           const graph::Graph& unit_graph,
                           const HoneycombParams& params)
    : deployment_(&d),
      unit_graph_(&unit_graph),
      params_(params),
      tiling_(params.side_override > 0.0 ? params.side_override
                                         : 3.0 + 2.0 * params.delta),
      coin_cut_(geom::Rng::bernoulli_cut(params.p_t)),
      changed_flag_(d.size(), 0) {
  TN_ASSERT_MSG(unit_graph.num_nodes() == d.size(),
                "unit graph and deployment must have the same nodes");
  TN_ASSERT_MSG(params.delta > 0.0, "guard zone Delta must be positive");
  TN_ASSERT_MSG(params.p_t > 0.0 && params.p_t <= 1.0 / 6.0 + 1e-12,
                "Lemma 3.7 requires p_t <= 1/6");
}

void HoneycombMac::evaluate_pair(const BalancingRouter& router,
                                 graph::NodeId s, graph::NodeId to,
                                 graph::EdgeId edge, double tallest,
                                 std::span<const double> costs) const {
  const BalancingParams& bp = router.params();
  const double cost = costs[edge];
  if (tallest - bp.gamma * cost <= bp.threshold) return;
  const std::optional<PlannedTx> tx = router.best_for_pair(s, to, edge, cost);
  if (!tx) return;
  const std::uint64_t key = (std::uint64_t{edge} << 1) |
                            (s != unit_graph_->edge_u(edge) ? 1 : 0);
  found_.push_back({key, *tx, tiling_.cell_of(deployment_->positions[s])});
}

std::vector<PlannedTx> HoneycombMac::select(const BalancingRouter& router,
                                            std::span<const double> costs,
                                            geom::Rng& rng,
                                            SelectionStats* stats) const {
  TN_ASSERT_MSG(costs.size() == unit_graph_->num_edges(),
                "costs must hold one entry per unit-graph edge");
  const BalancingParams& bp = router.params();
  TN_ASSERT_MSG(bp.gamma >= 0.0, "the pair prune requires gamma >= 0");
  const route::BufferBank& buffers = router.buffers();
  TN_ASSERT_MSG(buffers.num_nodes() == unit_graph_->num_nodes(),
                "router and unit graph must have the same nodes");
  const std::uint64_t stamp = buffers.stamp();
  const bool same_costs =
      memo_.costs.size() == costs.size() &&
      (costs.empty() || std::memcmp(memo_.costs.data(), costs.data(),
                                    costs.size() * sizeof(double)) == 0);
  const bool same_rule = same_bits(memo_.threshold, bp.threshold) &&
                         same_bits(memo_.gamma, bp.gamma) && same_costs;
  if (!same_rule || memo_.stamp != stamp) {
    // Only pairs that can clear T are evaluated. A pair's benefit is
    // (h_from - h_to) - gamma*c; the difference of two small integers is
    // exact in double and never exceeds the sender's tallest buffer, and
    // subtracting the same rounded gamma*c product is monotone. So a pair
    // with tallest - gamma*c <= T has benefit <= T, which best_for_pair
    // rejects, and is skipped without changing the result. With gamma >= 0
    // and c >= 0 that bound is at most the tallest buffer itself: a sender
    // whose tallest buffer is <= T, or that buffers nothing, is skipped
    // whole.
    found_.clear();
    changed_.clear();
    const bool follow =
        same_rule &&
        buffers.for_each_change_since(
            memo_.stamp, memo_.position, [&](graph::NodeId x) {
              if (changed_flag_[x] != 0) return;
              changed_flag_[x] = 1;
              changed_.push_back(x);
            });
    if (follow) {
      // Only the pairs (x, ·) and (·, x) of a changed node x can differ
      // from the memo's. A pair between two changed nodes is evaluated once,
      // as (x, ·) of its sender.
      std::erase_if(memo_.candidates, [&](const Candidate& c) {
        return changed_flag_[c.tx.from] != 0 || changed_flag_[c.tx.to] != 0;
      });
      for (const graph::NodeId x : changed_) {
        const double tallest = tallest_buffer(buffers, x);
        for (const graph::Half& nb : unit_graph_->neighbors(x)) {
          if (tallest > bp.threshold)
            evaluate_pair(router, x, nb.to, nb.edge, tallest, costs);
          if (changed_flag_[nb.to] == 0)
            evaluate_pair(router, nb.to, x, nb.edge,
                          tallest_buffer(buffers, nb.to), costs);
        }
      }
      for (const graph::NodeId x : changed_) changed_flag_[x] = 0;
    } else {
      buffers.for_each_active_node([&](graph::NodeId s) {
        const double tallest = tallest_buffer(buffers, s);
        if (tallest <= bp.threshold) return;
        for (const graph::Half& nb : unit_graph_->neighbors(s))
          evaluate_pair(router, s, nb.to, nb.edge, tallest, costs);
      });
      memo_.candidates.clear();
    }
    const auto by_key = [](const Candidate& a, const Candidate& b) {
      return a.key < b.key;
    };
    std::sort(found_.begin(), found_.end(), by_key);
    merged_.clear();
    std::merge(memo_.candidates.begin(), memo_.candidates.end(),
               found_.begin(), found_.end(), std::back_inserter(merged_),
               by_key);
    memo_.candidates.swap(merged_);

    // Replay the pairs in (edge id, forward before backward) order, the
    // order of a scan over all directed pairs: the hash map below then sees
    // the same insertion sequence, so its iteration order, the coin each
    // contestant draws and the benefit sums are those of that full scan.
    // Per-hexagon maximum-benefit pair: strictly larger benefit wins, so
    // ties keep the earliest pair in that order — "breaking ties in an
    // arbitrary way" per the paper. The map is built fresh on every miss;
    // see select()'s doc.
    std::unordered_map<geom::HexCell, PlannedTx, geom::HexCellHash> winner;
    memo_.candidate_benefit_sum = 0.0;
    for (const Candidate& c : memo_.candidates) {
      memo_.candidate_benefit_sum += c.tx.benefit;
      const auto [it, inserted] = winner.try_emplace(c.cell, c.tx);
      if (!inserted && c.tx.benefit > it->second.benefit) it->second = c.tx;
    }
    memo_.winners.clear();
    for (const auto& [cell, tx] : winner) memo_.winners.push_back(tx);
    memo_.stamp = stamp;
    memo_.position = buffers.journal_position();
    memo_.threshold = bp.threshold;
    memo_.gamma = bp.gamma;
    if (!same_costs) memo_.costs.assign(costs.begin(), costs.end());
  }

  SelectionStats local;
  local.candidate_pairs = memo_.candidates.size();
  local.candidate_benefit_sum = memo_.candidate_benefit_sum;
  std::vector<PlannedTx> chosen;
  // rng.bernoulli(p_t) per winner, through the cut and a local copy of `rng`
  // (in registers; written back after the loop).
  geom::Rng coins = rng;
  for (const PlannedTx& tx : memo_.winners) {
    ++local.contestants;
    local.contestant_benefit_sum += tx.benefit;
    if (coins.bernoulli_below(coin_cut_)) chosen.push_back(tx);
  }
  rng = coins;
  // Deterministic execution order regardless of hash-map iteration.
  std::sort(chosen.begin(), chosen.end(),
            [](const PlannedTx& a, const PlannedTx& b) {
              return a.edge < b.edge || (a.edge == b.edge && a.from < b.from);
            });
  TN_OBS_COUNT("honeycomb.candidate_pairs", local.candidate_pairs);
  TN_OBS_COUNT("honeycomb.contestants", local.contestants);
  TN_OBS_SERIES_ADD("honeycomb.contestants", router.round(), local.contestants);
  if (stats != nullptr) *stats = local;
  return chosen;
}

std::vector<bool> HoneycombMac::resolve(std::span<const PlannedTx> txs) const {
  const double guard = 1.0 + params_.delta;
  const double guard_sq = guard * guard;
  std::vector<bool> failed(txs.size(), false);
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const geom::Vec2 si = deployment_->positions[txs[i].from];
    const geom::Vec2 ti = deployment_->positions[txs[i].to];
    for (std::size_t j = 0; j < txs.size() && !failed[i]; ++j) {
      if (i == j) continue;
      const geom::Vec2 sj = deployment_->positions[txs[j].from];
      const geom::Vec2 tj = deployment_->positions[txs[j].to];
      // (s_i, t_i) succeeds only if every node of every other pair keeps a
      // distance of more than 1 + Delta from both s_i and t_i.
      if (geom::dist_sq(sj, si) <= guard_sq || geom::dist_sq(sj, ti) <= guard_sq ||
          geom::dist_sq(tj, si) <= guard_sq || geom::dist_sq(tj, ti) <= guard_sq)
        failed[i] = true;
    }
  }
  return failed;
}

}  // namespace thetanet::core
