#pragma once
// Per-destination buffers Q_{v,d} (Section 3.1). Every node v keeps one
// buffer per destination d; h_{(v,d)} is its height, capped at H. A packet
// reaching Q_{d,d} is absorbed (the destination buffer always has height 0).
// Buffers are LIFO — the balancing analysis depends only on heights, never
// on which packet of a buffer moves.
//
// Storage is struct-of-arrays, sized for sustained heavy traffic (10^6+
// rounds, millions of packets):
//
//   * per node, the live destinations sit in a SORTED flat array with a
//     parallel height array — h_{(v,d)} is a branch-light binary probe, and
//     the balancing rule's benefit scan over a node pair is a single merged
//     two-pointer pass (`for_each_pair`) instead of one red-black-tree probe
//     per destination;
//   * packets live in a pooled slot arena with an intrusive freelist: each
//     buffer is a linked LIFO stack threaded through the pool, so pushes and
//     pops are pointer swings and ZERO per-packet heap allocations happen at
//     steady state (the pool grows geometrically and recycles forever);
//   * total_packets() and peak_height() are O(1): a running total plus a
//     height histogram (buffers move between adjacent height buckets, so the
//     current max is maintained incrementally);
//   * a node whose last buffer drains leaves a height-0 tombstone entry
//     (probes read 0, scans skip it); tombstones are compacted away once
//     they outnumber live entries, keeping scans dense without per-pop
//     memmoves.
//
// The bank also tracks which nodes currently buffer anything
// (`for_each_active_node`), which is what lets the router's sustained-load
// plan skip the empty region of a large graph entirely.
//
// Not thread-safe: all mutation (and the active-node list compaction) is
// serial; concurrent *reads* (height probes, pair scans) are safe once
// mutation stops, which is the contract the parallel plan scan relies on.

#include <cstdint>
#include <optional>
#include <span>
#include <vector>

#include "common/assert.h"
#include "routing/packet.h"

namespace thetanet::route {

class BufferBank {
 public:
  BufferBank(std::size_t num_nodes, std::size_t max_height)
      : nodes_(num_nodes),
        in_active_list_(num_nodes, 0),
        max_height_(max_height) {}

  std::size_t num_nodes() const { return nodes_.size(); }
  std::size_t max_height() const { return max_height_; }

  /// h_{(v,d)}: current height of buffer Q_{v,d}.
  std::size_t height(graph::NodeId v, DestId d) const {
    const Node& node = nodes_[v];
    const std::size_t i = lower_bound(node.dests, d);
    return (i < node.dests.size() && node.dests[i] == d) ? node.heights[i] : 0;
  }

  bool has_space(graph::NodeId v, DestId d) const {
    return height(v, d) < max_height_;
  }

  /// Store a packet; fails (returns false) when the buffer is full.
  /// Deliveries are absorbed by the caller before push (under anycast the
  /// destination id is a group id, so no node-id comparison is made here).
  bool push(graph::NodeId v, const Packet& p) {
    Node& node = nodes_[v];
    std::size_t i = lower_bound(node.dests, p.dst);
    const bool found = i < node.dests.size() && node.dests[i] == p.dst;
    const std::uint32_t h = found ? node.heights[i] : 0;
    if (h >= max_height_) return false;
    if (!found) {
      node.dests.insert(node.dests.begin() + static_cast<std::ptrdiff_t>(i),
                        p.dst);
      node.heights.insert(node.heights.begin() + static_cast<std::ptrdiff_t>(i),
                          0);
      node.heads.insert(node.heads.begin() + static_cast<std::ptrdiff_t>(i),
                        kNil);
    }
    // Slot from the freelist, or grow the pool (amortized; recycled forever).
    std::uint32_t s;
    if (free_head_ != kNil) {
      s = free_head_;
      free_head_ = pool_next_[s];
    } else {
      s = static_cast<std::uint32_t>(pool_.size());
      pool_.emplace_back();
      pool_next_.push_back(kNil);
    }
    pool_[s] = p;
    pool_next_[s] = node.heads[i];
    node.heads[i] = s;
    node.heights[i] = h + 1;
    if (h == 0) {
      ++node.live;
      if (!in_active_list_[v]) {
        in_active_list_[v] = 1;
        active_nodes_.push_back(v);
      }
    }
    ++total_;
    raise_height(h + 1);
    return true;
  }

  /// Remove and return the top packet of Q_{v,d}; nullopt when empty.
  std::optional<Packet> pop(graph::NodeId v, DestId d) {
    Node& node = nodes_[v];
    const std::size_t i = lower_bound(node.dests, d);
    if (i >= node.dests.size() || node.dests[i] != d || node.heights[i] == 0)
      return std::nullopt;
    const std::uint32_t s = node.heads[i];
    Packet p = pool_[s];
    node.heads[i] = pool_next_[s];
    if (!leak_pool_slots_) {
      pool_next_[s] = free_head_;
      free_head_ = s;
    }
    const std::uint32_t h = node.heights[i]--;
    --total_;
    lower_height(h);
    if (h == 1) {
      --node.live;
      maybe_compact(node);
    }
    return p;
  }

  /// Allocation-free scan of (destination, height) pairs at v, ascending by
  /// destination — the deterministic iteration order the balancing rule
  /// scans. Tombstone (drained) entries are skipped.
  template <typename Fn>
  void for_each_destination(graph::NodeId v, const Fn& fn) const {
    const Node& node = nodes_[v];
    for (std::size_t i = 0; i < node.dests.size(); ++i)
      if (node.heights[i] != 0)
        fn(node.dests[i], static_cast<std::size_t>(node.heights[i]));
  }

  /// Merged scan over the sorted destination arrays of two nodes: fn(d,
  /// h_from, h_to) for every destination buffered at either endpoint, in
  /// ascending destination order. This is the hot path of the balancing
  /// rule's benefit argmax — one linear pass instead of a probe per
  /// destination. Destinations with zero height on both sides (tombstones)
  /// are skipped.
  template <typename Fn>
  void for_each_pair(graph::NodeId from, graph::NodeId to,
                     const Fn& fn) const {
    const Node& a = nodes_[from];
    const Node& b = nodes_[to];
    const std::size_t na = a.dests.size();
    const std::size_t nb = b.dests.size();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < na && j < nb) {
      const DestId da = a.dests[i];
      const DestId db = b.dests[j];
      if (da < db) {
        if (a.heights[i] != 0) fn(da, a.heights[i], std::uint32_t{0});
        ++i;
      } else if (db < da) {
        if (b.heights[j] != 0) fn(db, std::uint32_t{0}, b.heights[j]);
        ++j;
      } else {
        if ((a.heights[i] | b.heights[j]) != 0)
          fn(da, a.heights[i], b.heights[j]);
        ++i;
        ++j;
      }
    }
    for (; i < na; ++i)
      if (a.heights[i] != 0) fn(a.dests[i], a.heights[i], std::uint32_t{0});
    for (; j < nb; ++j)
      if (b.heights[j] != 0) fn(b.dests[j], std::uint32_t{0}, b.heights[j]);
  }

  /// Raw sorted views for external merged scans (e.g. the router's
  /// advertised-height table). Parallel arrays; entries with height 0 are
  /// tombstones and must be treated as absent.
  std::span<const DestId> dests(graph::NodeId v) const {
    return nodes_[v].dests;
  }
  std::span<const std::uint32_t> heights(graph::NodeId v) const {
    return nodes_[v].heights;
  }
  /// Number of non-empty buffers at v (live entries, excluding tombstones).
  std::uint32_t live_destinations(graph::NodeId v) const {
    return nodes_[v].live;
  }

  /// Visit every node currently buffering at least one packet (order is an
  /// implementation detail — callers needing determinism must sort what they
  /// derive). Nodes that drained since the last visit are dropped from the
  /// list in passing, so the walk stays O(#active).
  template <typename Fn>
  void for_each_active_node(const Fn& fn) const {
    std::size_t w = 0;
    for (std::size_t r = 0; r < active_nodes_.size(); ++r) {
      const graph::NodeId v = active_nodes_[r];
      if (nodes_[v].live == 0) {
        in_active_list_[v] = 0;
        continue;
      }
      active_nodes_[w++] = v;
      fn(v);
    }
    active_nodes_.resize(w);
  }

  /// Total packets currently buffered anywhere. O(1).
  std::size_t total_packets() const { return total_; }

  /// Packet-arena slots ever allocated (live + freelist). Flat at steady
  /// state once the pool warmed up — the working-set figure the soak
  /// watchdog's memory envelope tracks.
  std::size_t pool_slots() const { return pool_.size(); }

  /// FAULT INJECTION (soak_watchdog_mutation): stop recycling popped slots
  /// into the freelist, so the arena grows by one slot per push forever —
  /// the planted steady-state leak the drift watchdog must catch via its
  /// RSS envelope. Never set in production code.
  void plant_pool_leak(bool on) { leak_pool_slots_ = on; }

  /// Highest buffer currently in the bank (space-overhead metric). O(1):
  /// maintained incrementally from the height histogram.
  std::size_t peak_height() const { return cur_max_; }

 private:
  static constexpr std::uint32_t kNil = 0xffffffffu;

  struct Node {
    std::vector<DestId> dests;            // sorted ascending
    std::vector<std::uint32_t> heights;   // parallel; 0 = tombstone
    std::vector<std::uint32_t> heads;     // parallel; top-of-stack pool slot
    std::uint32_t live = 0;               // entries with height > 0
  };

  /// Branch-light lower bound over a sorted destination array.
  static std::size_t lower_bound(const std::vector<DestId>& a, DestId d) {
    const DestId* base = a.data();
    std::size_t n = a.size();
    if (n == 0) return 0;
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (base[half - 1] < d) ? half : 0;
      n -= half;
    }
    return static_cast<std::size_t>(base - a.data()) + (*base < d ? 1 : 0);
  }

  // A buffer moved from height h-1 to h / from h to h-1: shift it between
  // adjacent histogram buckets and maintain the running max.
  void raise_height(std::uint32_t h) {
    if (h >= counts_.size()) counts_.resize(h + 1, 0);
    if (h > 1) --counts_[h - 1];
    ++counts_[h];
    if (h > cur_max_) cur_max_ = h;
  }
  void lower_height(std::uint32_t h) {
    --counts_[h];
    if (h > 1) ++counts_[h - 1];
    while (cur_max_ > 0 && counts_[cur_max_] == 0) --cur_max_;
  }

  // Erase tombstones once they outnumber live entries (amortized O(1) per
  // drain; keeps scans dense). Entry order is preserved.
  static void maybe_compact(Node& node) {
    const std::size_t dead = node.dests.size() - node.live;
    if (dead <= node.live + 8) return;
    std::size_t w = 0;
    for (std::size_t r = 0; r < node.dests.size(); ++r) {
      if (node.heights[r] == 0) continue;
      node.dests[w] = node.dests[r];
      node.heights[w] = node.heights[r];
      node.heads[w] = node.heads[r];
      ++w;
    }
    node.dests.resize(w);
    node.heights.resize(w);
    node.heads.resize(w);
  }

  std::vector<Node> nodes_;
  // Packet pool (index = slot id) with the intrusive LIFO links alongside.
  std::vector<Packet> pool_;
  std::vector<std::uint32_t> pool_next_;
  std::uint32_t free_head_ = kNil;
  bool leak_pool_slots_ = false;  // fault injection; see plant_pool_leak
  // Active-node bookkeeping (mutable: compacted lazily from const scans).
  mutable std::vector<graph::NodeId> active_nodes_;
  mutable std::vector<std::uint8_t> in_active_list_;
  // Height histogram: counts_[h] = #buffers at height h (h >= 1).
  std::vector<std::uint32_t> counts_;
  std::uint32_t cur_max_ = 0;
  std::size_t total_ = 0;
  std::size_t max_height_;
};

}  // namespace thetanet::route
