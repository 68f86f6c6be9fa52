#pragma once
// The (T, gamma)-balancing algorithm of Section 3.2 — the paper's local
// routing rule. Per step, for every usable edge e = (v, w), the router finds
// the destination d maximizing the *benefit*
//
//     h_{(v,d)} - h_{(w,d)} - gamma * c(e)
//
// over both orientations of e, and moves one packet of that destination
// across e when the benefit exceeds the threshold T. Packets reaching their
// destination buffer are absorbed; a packet arriving at a full buffer is
// deleted (with T >= B + 2*(delta-1), Theorem 3.1, only newly injected
// packets are ever deleted — the experiments verify this).
//
// The router is MAC-agnostic: callers supply the usable edges each step
// (adversarial sets for Section 3.2, randomized interference-aware
// activation for Section 3.3, honeycomb contestants for Section 3.4) and
// report back which planned transmissions the medium actually carried.
//
// The step loop is allocation-free at steady state: `plan_into` evaluates
// edges serially in `active` order into a caller-owned vector (so the plan
// is bit-identical for any TN_NUM_THREADS), `execute` moves packets by pool
// slot — every departure unlinks its packet's slot from Q(from, d) and
// charges cost and hop in place, then every arrival relinks the slot onto
// Q(to, d) or releases it on delivery or a full buffer, with the in-flight
// (slot, receiver, destination) triples staged in a member scratch vector —
// and the sparse entry point `plan_all_edges_into` derives the candidate
// edge set from the buffer bank's active nodes instead of scanning every
// edge of a large graph. That
// set is a bitmap sweep: the adjacency walk sets one bit per edge, and
// reading the touched words in ascending index order, each from its low bit
// up, emits edge ids in ascending order. The plan order is therefore the
// canonical edge-id order whatever order the bank lists its active nodes
// in, with no sort over edge ids.
//
// Quantized height advertisement — the practical-implementation remark of
// Section 3.2: "we assume that nodes continuously exchange the buffer height
// values. In a practical implementation, we can reduce the amount of control
// information exchange for this purpose." With quantum q >= 1 the *remote*
// side of every benefit reads the neighbour's last advertised height instead
// of its live one (the local side stays live: that knowledge is free). A
// node re-advertises a buffer only once its height drifted by at least q
// since the last advertisement, one control message each. Heights are
// integers, so q = 1 advertises every change and plans exactly what the
// live router (q = 0) plans; larger quanta trade staleness for fewer control
// messages (bench E15 sweeps the trade-off).

#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.h"
#include "graph/graph.h"
#include "routing/adversary.h"
#include "routing/buffers.h"
#include "routing/metrics.h"
#include "routing/packet.h"

namespace thetanet::core {

/// Absorption test: is node v a valid delivery point for destination d?
/// Defaults to v == d (unicast). Anycast installs a group-membership test
/// (routing/anycast.h) — the balancing rule itself is unchanged, exactly as
/// in the anycasting framework [10] the paper builds on.
using DestinationPredicate =
    std::function<bool(graph::NodeId, route::DestId)>;

struct BalancingParams {
  double threshold = 1.0;      ///< T
  double gamma = 0.0;          ///< cost weight (gamma = 0: cost-blind variant)
  std::size_t max_height = 64; ///< H, the buffer capacity
};

/// One transmission the balancing rule decided to make.
struct PlannedTx {
  graph::EdgeId edge = graph::kInvalidEdge;
  graph::NodeId from = graph::kInvalidNode;
  graph::NodeId to = graph::kInvalidNode;
  route::DestId dest = graph::kInvalidNode;
  double benefit = 0.0;

  bool operator==(const PlannedTx&) const = default;
};

/// Parameter recipes from the theorems, given a certified trace's exact
/// optimum (B = opt.max_buffer, L-bar, C-bar):
///
///   Theorem 3.1 (MAC given):  T >= B + 2*(delta - 1),
///                             gamma >= (T + B + delta) * Lbar / Cbar,
///                             H = (1 + 2*(1 + (T+delta)/B) * Lbar / eps) * B.
BalancingParams theorem31_params(const route::OptStats& opt, double eps,
                                 double delta = 1.0);

///   Theorem 3.3 (randomized MAC): T >= 2B + 1,
///                                 gamma >= (T + B) * Lbar / Cbar,
///                                 H = (1 + 2*(1 + T/B) * Lbar / eps) * B.
BalancingParams theorem33_params(const route::OptStats& opt, double eps);

class BalancingRouter {
 public:
  /// quantum = 0: remote heights are live. quantum >= 1: remote heights are
  /// the last advertised ones, refreshed by end_step after a drift >= quantum.
  BalancingRouter(std::size_t num_nodes, const BalancingParams& params,
                  std::size_t quantum = 0)
      : params_(params),
        buffers_(num_nodes, params.max_height),
        advertised_(quantum == 0 ? 0 : num_nodes),
        quantum_(quantum) {}

  /// Install an anycast-style absorption test (default: v == d).
  void set_destination_predicate(DestinationPredicate pred) {
    is_dest_ = std::move(pred);
  }

  const BalancingParams& params() const { return params_; }
  const route::BufferBank& buffers() const { return buffers_; }

  /// Advertisements and retirements sent so far (0 when quantum = 0).
  std::uint64_t control_messages() const { return control_messages_; }

  /// Control-plane bytes on the wire, under the fixed encoding of
  /// kAdvertiseBytes/kRetireBytes below. Deterministic — a pure function of
  /// the message sequence — so it can sit in telemetry dumps and power the
  /// flat-bandwidth-per-node gate of bench_compare.
  std::uint64_t control_bytes() const { return control_bytes_; }

  /// Deterministic wire-size model for the budget ledger: an advertisement
  /// carries (header, dest, height), a retirement (header, dest), 4 bytes
  /// each. A real MAC frame adds per-link overhead, but a *constant* one —
  /// flatness per node is what the gate checks, so the model only has to be
  /// proportional.
  static constexpr std::uint64_t kAdvertiseBytes = 12;
  static constexpr std::uint64_t kRetireBytes = 8;

  /// Mutable bank access for fault-injection harnesses (the soak watchdog's
  /// planted-leak mutation plants BufferBank::plant_pool_leak through it).
  /// Production code must use the const accessor.
  route::BufferBank& buffers_for_fault_injection() { return buffers_; }

  /// The (T, gamma) rule over `active` edges with per-edge costs `costs`
  /// (indexed by edge id of `topo`). Returns at most one transmission per
  /// edge, deterministically. Allocating convenience wrapper of plan_into.
  std::vector<PlannedTx> plan(const graph::Graph& topo,
                              std::span<const graph::EdgeId> active,
                              std::span<const double> costs) const;

  /// Allocation-free plan: evaluates `active` edges into `out` (cleared,
  /// then filled in ascending `active` order — reuse `out` across rounds to
  /// amortize its capacity away). One serial scan, so the planned
  /// transmissions are bit-identical for every TN_NUM_THREADS value.
  void plan_into(const graph::Graph& topo,
                 std::span<const graph::EdgeId> active,
                 std::span<const double> costs,
                 std::vector<PlannedTx>& out) const;

  /// Sustained-load fast path: plan over every edge of `topo` without
  /// touching the empty part of the graph. The candidate set — all edges
  /// incident to a node that currently buffers packets, ascending by edge
  /// id — provably plans the same transmissions as passing all edges, since
  /// an edge with both endpoint banks empty never clears benefit > T >= 0.
  /// The router.active_edges telemetry series records the candidate count.
  void plan_all_edges_into(const graph::Graph& topo,
                           std::span<const double> costs,
                           std::vector<PlannedTx>& out) const;

  /// The candidate edge set used by plan_all_edges_into (exposed for
  /// tests): edges incident to buffer-active nodes, deduplicated, ascending.
  /// Costs O(active adjacency + W log W) for W touched 64-edge words, with
  /// no O(E) term. Valid until the next call.
  std::span<const graph::EdgeId> candidate_edges(
      const graph::Graph& topo) const;

  /// Benefit evaluation for one directed pair (used by the honeycomb MAC of
  /// Section 3.4, where contestants are sender-receiver pairs rather than
  /// pre-activated edges). nullopt when no destination clears benefit > T.
  /// Reads live heights, so it is for quantum = 0 routers only. Defined in
  /// this header so that the honeycomb's per-round pair loop inlines it.
  std::optional<PlannedTx> best_for_pair(graph::NodeId from, graph::NodeId to,
                                         graph::EdgeId edge, double cost) const {
    TN_DCHECK(quantum_ == 0);
    std::optional<PlannedTx> best;
    buffers_.for_each_pair(
        from, to,
        [&](route::DestId d, std::uint32_t h_from, std::uint32_t h_to) {
          if (h_from == 0) return;  // nothing to send toward d
          const double benefit = static_cast<double>(h_from) -
                                 static_cast<double>(h_to) -
                                 params_.gamma * cost;
          if (benefit <= params_.threshold) return;
          // Deterministic argmax: strictly larger benefit wins; ties keep
          // the first (smallest) destination from the sorted scan.
          if (!best || benefit > best->benefit)
            best = PlannedTx{edge, from, to, d, benefit};
        });
    return best;
  }

  /// Execute planned transmissions. failed[i] == true means the MAC reports
  /// a collision: the packet stays put and the transmission energy is
  /// wasted. Deliveries, drops and energy are accumulated into `m`.
  void execute(std::span<const PlannedTx> txs, const std::vector<bool>& failed,
               std::span<const double> costs, route::Time now,
               route::RunMetrics& m);

  /// Offer a newly injected packet to its source buffer (step 2 of the
  /// algorithm: stored if space remains, deleted otherwise).
  void inject(const route::Packet& p, route::RunMetrics& m);

  /// End of step: with quantum >= 1, first re-advertise every buffer whose
  /// height drifted by at least the quantum (the control ledger); then
  /// record space metrics and advance the round clock.
  void end_step(route::RunMetrics& m);

  /// Rounds completed (end_step calls). Events recorded by plan / execute /
  /// inject during a step are attributed to this round index, so the
  /// per-round telemetry series line up with the step loop.
  std::uint64_t round() const { return round_; }

  /// Packets still buffered (typically evaluated at the end of a run).
  std::size_t packets_in_flight() const { return buffers_.total_packets(); }

 private:
  // Sorted advertised-height table for one node. Heights are always >= 1:
  // retiring a drained buffer's advertisement removes the entry, so presence
  // in the array IS the advertisement.
  struct AdvNode {
    std::vector<route::DestId> dests;
    std::vector<std::uint32_t> heights;
  };

  // Both orientations of one edge in a single merged buffer scan; the
  // winning direction, if any, is appended to `out`. kAdvertised reads the
  // remote heights from advertised_ instead of the live bank.
  template <bool kAdvertised>
  void eval_edge(const graph::Graph& topo, graph::EdgeId e, double cost,
                 std::vector<PlannedTx>& out) const;

  // Reconcile every node's advertisements with its live heights, counting
  // the control messages (quantum >= 1 only).
  void advertise();

  bool is_destination(graph::NodeId v, route::DestId d) const {
    return is_dest_ ? is_dest_(v, d) : v == d;
  }

  BalancingParams params_;
  route::BufferBank buffers_;
  DestinationPredicate is_dest_;
  std::vector<AdvNode> advertised_;  // empty when quantum_ == 0
  std::size_t quantum_;
  std::uint64_t control_messages_ = 0;
  std::uint64_t control_bytes_ = 0;
  std::uint64_t round_ = 0;
  // Reusable scratch (candidate edges, the candidate bitmap, in-air
  // staging). Mutable: plan is logically const; scratch reuse is what
  // makes the steady-state loop allocation-free. Not thread-safe.
  struct InAir {
    std::uint32_t slot;  // the packet's pool slot, unlinked from Q(from, d)
    graph::NodeId to;
    route::DestId dest;
  };
  mutable std::vector<graph::EdgeId> candidates_;
  // One bit per edge of the last topology seen, all zero between calls
  // (the sweep clears every word it reads), and the indices of the words
  // the current walk made non-zero.
  mutable std::vector<std::uint64_t> edge_bits_;
  mutable std::vector<std::uint32_t> touched_;
  std::vector<InAir> in_air_;
  // advertise() rebuild scratch.
  std::vector<route::DestId> adv_dests_;
  std::vector<std::uint32_t> adv_heights_;
};

}  // namespace thetanet::core
