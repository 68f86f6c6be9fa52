#include "core/balancing_router.h"

#include <algorithm>
#include <bit>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/timeseries.h"

namespace thetanet::core {

using route::DestId;
using route::Packet;
using route::RunMetrics;

BalancingParams theorem31_params(const route::OptStats& opt, double eps,
                                 double delta) {
  TN_ASSERT(eps > 0.0 && delta >= 1.0);
  const double b = std::max<double>(1.0, static_cast<double>(opt.max_buffer));
  const double lbar = std::max(1.0, opt.avg_path_length);
  const double cbar = std::max(1e-12, opt.avg_cost);
  BalancingParams p;
  p.threshold = b + 2.0 * (delta - 1.0);
  p.gamma = (p.threshold + b + delta) * lbar / cbar;
  const double s = 1.0 + 2.0 * (1.0 + (p.threshold + delta) / b) * lbar / eps;
  p.max_height = static_cast<std::size_t>(s * b) + 1;
  return p;
}

BalancingParams theorem33_params(const route::OptStats& opt, double eps) {
  TN_ASSERT(eps > 0.0);
  const double b = std::max<double>(1.0, static_cast<double>(opt.max_buffer));
  const double lbar = std::max(1.0, opt.avg_path_length);
  const double cbar = std::max(1e-12, opt.avg_cost);
  BalancingParams p;
  p.threshold = 2.0 * b + 1.0;
  p.gamma = (p.threshold + b) * lbar / cbar;
  const double s = 1.0 + 2.0 * (1.0 + p.threshold / b) * lbar / eps;
  p.max_height = static_cast<std::size_t>(s * b) + 1;
  return p;
}

namespace {

// Riding cursor into one node's sorted advertisement table: height(d) for
// ascending d, amortized O(1) per call; 0 when d is not advertised.
struct AdvCursor {
  std::span<const DestId> dests;
  std::span<const std::uint32_t> heights;
  std::size_t j = 0;
  std::uint32_t height(DestId d) {
    while (j < dests.size() && dests[j] < d) ++j;
    return j < dests.size() && dests[j] == d ? heights[j] : 0;
  }
};

}  // namespace

template <bool kAdvertised>
void BalancingRouter::eval_edge(const graph::Graph& topo, graph::EdgeId e,
                                double cost,
                                std::vector<PlannedTx>& out) const {
  const graph::NodeId u = topo.edge_u(e);
  const graph::NodeId v = topo.edge_v(e);
  // One merged scan covers both orientations: h_u > 0 feeds the forward
  // candidate, h_v > 0 the backward one. Benefit expression and tie rules
  // are exactly best_for_pair's, so the winner per direction matches the
  // directed evaluation destination-for-destination. The scan visits every
  // destination buffered at either end in ascending order, and a sender
  // needs a live height above 0, so the advertised cursors see every
  // destination that can win.
  AdvCursor adv_u;
  AdvCursor adv_v;
  if constexpr (kAdvertised) {
    adv_u = {advertised_[u].dests, advertised_[u].heights};
    adv_v = {advertised_[v].dests, advertised_[v].heights};
  }
  // Conditional selects, no branches: a best starts at T, so "benefit > T
  // and (none yet or benefit > best)" is the single test benefit > best —
  // strictly larger wins, ties keep the first (smallest) destination.
  const double gc = params_.gamma * cost;
  double best_f = params_.threshold;
  double best_b = params_.threshold;
  DestId dest_f = graph::kInvalidNode;
  DestId dest_b = graph::kInvalidNode;
  buffers_.for_each_pair(
      u, v, [&](DestId d, std::uint32_t h_u, std::uint32_t h_v) {
        const std::uint32_t seen_v = kAdvertised ? adv_v.height(d) : h_v;
        const std::uint32_t seen_u = kAdvertised ? adv_u.height(d) : h_u;
        const double benefit_f =
            static_cast<double>(h_u) - static_cast<double>(seen_v) - gc;
        const double benefit_b =
            static_cast<double>(h_v) - static_cast<double>(seen_u) - gc;
        const bool take_f = (h_u != 0) & (benefit_f > best_f);
        const bool take_b = (h_v != 0) & (benefit_b > best_b);
        best_f = take_f ? benefit_f : best_f;
        dest_f = take_f ? d : dest_f;
        best_b = take_b ? benefit_b : best_b;
        dest_b = take_b ? d : dest_b;
      });
  // One packet per edge per step, in the better direction (forward wins
  // ties, matching the historical fwd/bwd evaluation order).
  const bool have_f = best_f > params_.threshold;
  const bool have_b = best_b > params_.threshold;
  if (have_f && (!have_b || best_f >= best_b)) {
    out.push_back(PlannedTx{e, u, v, dest_f, best_f});
  } else if (have_b) {
    out.push_back(PlannedTx{e, v, u, dest_b, best_b});
  }
}

void BalancingRouter::plan_into(const graph::Graph& topo,
                                std::span<const graph::EdgeId> active,
                                std::span<const double> costs,
                                std::vector<PlannedTx>& out) const {
  out.clear();
  if (quantum_ == 0) {
    for (const graph::EdgeId e : active)
      eval_edge<false>(topo, e, costs[e], out);
  } else {
    for (const graph::EdgeId e : active)
      eval_edge<true>(topo, e, costs[e], out);
  }
  TN_OBS_COUNT("router.planned_tx", out.size());
  TN_OBS_SERIES_ADD("router.active_edges", round_, active.size());
}

std::vector<PlannedTx> BalancingRouter::plan(
    const graph::Graph& topo, std::span<const graph::EdgeId> active,
    std::span<const double> costs) const {
  std::vector<PlannedTx> txs;
  txs.reserve(active.size());
  plan_into(topo, active, costs, txs);
  return txs;
}

std::span<const graph::EdgeId> BalancingRouter::candidate_edges(
    const graph::Graph& topo) const {
  // Every word is zero between calls, so a topology with a different edge
  // count only needs the bitmap resized.
  const std::size_t words = (topo.num_edges() + 63) / 64;
  if (edge_bits_.size() != words) edge_bits_.assign(words, 0);
  touched_.clear();
  // Set the bit of every edge with at least one buffering endpoint.
  buffers_.for_each_active_node([&](graph::NodeId v) {
    for (const graph::Half& h : topo.neighbors(v)) {
      std::uint64_t& word = edge_bits_[h.edge / 64];
      if (word == 0) touched_.push_back(h.edge / 64);
      word |= std::uint64_t{1} << (h.edge % 64);
    }
  });
  // Active-node order is arbitrary; sweeping the touched words in index
  // order, low bit first, restores the canonical ascending-edge-id plan
  // order (and with it cross-thread bit-identity) while sorting only W
  // word indices instead of the candidate ids themselves.
  std::sort(touched_.begin(), touched_.end());
  candidates_.clear();
  for (const std::uint32_t w : touched_) {
    for (std::uint64_t bits = edge_bits_[w]; bits != 0; bits &= bits - 1)
      candidates_.push_back(
          w * 64 + static_cast<graph::EdgeId>(std::countr_zero(bits)));
    edge_bits_[w] = 0;
  }
  return candidates_;
}

void BalancingRouter::plan_all_edges_into(const graph::Graph& topo,
                                          std::span<const double> costs,
                                          std::vector<PlannedTx>& out) const {
  // An edge whose endpoints both buffer nothing has h = 0 on every
  // destination, so no benefit can exceed T (plan() would emit nothing for
  // it); restricting to buffer-incident edges is therefore exact. That holds
  // at every quantum: the sender's own height is always live.
  const std::span<const graph::EdgeId> candidates = candidate_edges(topo);
  plan_into(topo, candidates, costs, out);
  // Every candidate has a buffering endpoint; the ones that planned nothing
  // are frozen (best benefit <= T), the gradient-ramp stall signal.
  TN_OBS_COUNT("router.frozen_edges", candidates.size() - out.size());
}

void BalancingRouter::execute(std::span<const PlannedTx> txs,
                              const std::vector<bool>& failed,
                              std::span<const double> costs, route::Time now,
                              RunMetrics& m) {
  TN_ASSERT(failed.empty() || failed.size() == txs.size());
  // Registry tallies mirror the RunMetrics deltas of this call and flush
  // once at the end — one registry touch per step, not per packet. Deltas
  // are accumulated locally (no RunMetrics snapshot copy per step).
  std::uint64_t attempted = 0;
  std::uint64_t failed_cnt = 0;
  std::uint64_t skipped = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;
  // Phase 1 — departures. Planned txs operate on the step-start snapshot; a
  // buffer can be drained by an earlier tx of the same step, in which case
  // the later tx is skipped (a real node would simply not transmit).
  in_air_.clear();
  for (std::size_t i = 0; i < txs.size(); ++i) {
    const PlannedTx& tx = txs[i];
    const double cost = costs[tx.edge];
    if (!failed.empty() && failed[i]) {
      // Collision: the sender transmitted (energy burnt) but the receiver
      // got nothing; the packet never left the buffer.
      ++attempted;
      ++failed_cnt;
      m.wasted_energy += cost;
      continue;
    }
    // The packet leaves Q(from, d) by pool slot and is charged in place.
    const std::uint32_t slot = buffers_.unlink(tx.from, tx.dest);
    if (slot == route::BufferBank::kNoSlot) {
      ++skipped;
      continue;
    }
    ++attempted;
    m.total_energy += cost;
    Packet& p = buffers_.packet(slot);
    p.cost_spent += cost;
    ++p.hops;
    in_air_.push_back(InAir{slot, tx.to, tx.dest});
  }

  // Phase 2 — arrivals: absorb at destinations (releasing the slot), relink
  // the slot onto Q(to, d) elsewhere, delete on overflow (cannot happen for
  // in-transit packets once T is set per Theorem 3.1; the metric keeps us
  // honest). The unicast fast path skips the std::function indirection.
  const auto deliver = [&](std::uint32_t slot) {
    const Packet& p = buffers_.packet(slot);
    ++delivered;
    m.delivered_cost += p.cost_spent;
    m.total_hops_delivered += p.hops;
    m.sum_latency += now >= p.injected_at ? now - p.injected_at : 0;
    buffers_.release(slot);
  };
  if (!is_dest_) {
    for (const InAir& a : in_air_) {
      if (a.to == a.dest) {
        deliver(a.slot);
      } else if (!buffers_.relink(a.to, a.dest, a.slot)) {
        ++dropped;
      }
    }
  } else {
    for (const InAir& a : in_air_) {
      if (is_dest_(a.to, a.dest)) {
        deliver(a.slot);
      } else if (!buffers_.relink(a.to, a.dest, a.slot)) {
        ++dropped;
      }
    }
  }

  m.attempted_tx += attempted;
  m.failed_tx += failed_cnt;
  m.skipped_tx += skipped;
  m.deliveries += delivered;
  m.dropped_in_transit += dropped;

  TN_OBS_COUNT("router.attempted_tx", attempted);
  TN_OBS_COUNT("router.failed_tx", failed_cnt);
  TN_OBS_COUNT("router.skipped_tx", skipped);
  TN_OBS_COUNT("router.delivered", delivered);
  TN_OBS_COUNT("router.dropped_in_transit", dropped);
  TN_OBS_SERIES_ADD("router.tx_attempted", round_, attempted);
  TN_OBS_SERIES_ADD("router.tx_failed", round_, failed_cnt);
  TN_OBS_SERIES_ADD("router.tx_skipped", round_, skipped);
  TN_OBS_SERIES_ADD("router.deliveries", round_, delivered);
  TN_OBS_SERIES_ADD("router.dropped_in_transit", round_, dropped);
}

void BalancingRouter::inject(const Packet& p, RunMetrics& m) {
  TN_ASSERT_MSG(!is_destination(p.src, p.dst),
                "cannot inject a packet at its own destination");
  ++m.injected_offered;
  TN_OBS_COUNT("router.injected", 1);
  TN_OBS_SERIES_ADD("router.injections", round_, 1);
  if (buffers_.push(p.src, p)) {
    ++m.injected_accepted;
    TN_OBS_COUNT("router.accepted", 1);
  } else {
    ++m.dropped_at_injection;
    TN_OBS_COUNT("router.dropped_at_injection", 1);
  }
}

void BalancingRouter::advertise() {
  std::uint64_t messages = 0;
  std::uint64_t bytes = 0;
  for (graph::NodeId v = 0; v < advertised_.size(); ++v) {
    AdvNode& adv = advertised_[v];
    if (buffers_.live_destinations(v) == 0 && adv.dests.empty()) continue;
    const std::span<const route::BufferBank::Entry> be = buffers_.entries(v);
    const std::uint64_t messages_before = messages;
    adv_dests_.clear();
    adv_heights_.clear();
    // One rule over the union of live and advertised destinations, in
    // ascending order (an absent side, or a tombstone, reads 0): keep the
    // advertisement unless the live height drifted by >= quantum, in which
    // case advertise the live height — or retire the entry when it is 0.
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < be.size() || j < adv.dests.size()) {
      const bool in_bank =
          i < be.size() &&
          (j == adv.dests.size() || be[i].dest <= adv.dests[j]);
      const bool in_adv =
          j < adv.dests.size() &&
          (i == be.size() || adv.dests[j] <= be[i].dest);
      const DestId d = in_bank ? be[i].dest : adv.dests[j];
      const std::uint32_t h = in_bank ? be[i++].height : 0;
      const std::uint32_t a = in_adv ? adv.heights[j++] : 0;
      const std::uint32_t drift = h > a ? h - a : a - h;
      const std::uint32_t kept = drift >= quantum_ ? h : a;
      if (kept != a) {
        ++messages;
        bytes += h > 0 ? kAdvertiseBytes : kRetireBytes;
      }
      if (kept != 0) {
        adv_dests_.push_back(d);
        adv_heights_.push_back(kept);
      }
    }
    // The table is rebuilt only when a message fired.
    if (messages != messages_before) {
      adv.dests.assign(adv_dests_.begin(), adv_dests_.end());
      adv.heights.assign(adv_heights_.begin(), adv_heights_.end());
    }
  }
  control_messages_ += messages;
  control_bytes_ += bytes;
  TN_OBS_COUNT("router.control_messages", messages);
  TN_OBS_COUNT("router.control_bytes", bytes);
  TN_OBS_SERIES_ADD("router.control_messages", round_, messages);
  TN_OBS_SERIES_ADD("router.control_bytes", round_, bytes);
}

void BalancingRouter::end_step(RunMetrics& m) {
  // Before the round clock advances, so the control traffic of step t lands
  // on round t like the other series.
  if (quantum_ != 0) advertise();
  // The single bookkeeping path for the §3 backlog bound: the per-round
  // peak is computed once here and feeds the telemetry distribution, the
  // peak_buffer series, AND RunMetrics::peak_buffer (which
  // check_router_bounds consumes). By construction m.peak_buffer equals
  // the max of the recorded series at any downsampling level (max-of-window
  // folds are lossless for the overall max). peak_height / total_packets
  // are O(1) in the SoA bank, so end_step no longer scans the bank.
  const std::size_t h = buffers_.peak_height();
  TN_OBS_RECORD("router.round_peak_buffer", h);
  TN_OBS_COUNT("router.rounds", 1);
  TN_OBS_SERIES_MAX("router.peak_buffer", round_, h);
  TN_OBS_SERIES_MAX("router.total_buffer", round_, buffers_.total_packets());
  m.peak_buffer = std::max(m.peak_buffer, h);
  ++round_;
}

}  // namespace thetanet::core
