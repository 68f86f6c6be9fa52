#pragma once
// Per-destination buffers Q_{v,d} (Section 3.1). Every node v keeps one
// buffer per destination d; h_{(v,d)} is its height, capped at H. A packet
// reaching Q_{d,d} is absorbed (the destination buffer always has height 0).
// Buffers are LIFO — the balancing analysis depends only on heights, never
// on which packet of a buffer moves.
//
// Storage is sized for sustained heavy traffic (10^6+ rounds, millions of
// packets):
//
//   * each node's buffers are ONE sorted array of {dest, height, head}
//     entries (`entries(v)`): h_{(v,d)} is a branch-light binary probe, and
//     the balancing rule's benefit scan over a node pair is a single merged
//     two-pointer pass (`for_each_pair`);
//   * packets live in a pooled slot arena with an intrusive freelist: each
//     buffer is a linked LIFO stack threaded through the pool from its
//     entry's head, so pushes and pops are pointer swings and ZERO
//     per-packet heap allocations happen at steady state (the pool grows
//     geometrically and recycles forever);
//   * a packet moves between buffers by pool slot, never by copy: `unlink`
//     takes the top slot off Q_{v,d}, the caller edits the packet in place
//     (`packet(slot)`), and `relink` puts the slot on top of Q_{w,d} — or
//     `release` frees it once the packet is delivered. A relink into a full
//     buffer releases the slot. `push` and `pop` copy a packet in or out and
//     serve injection and tests;
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
// Content stamp: `stamp()` names the bank's current heights. It is drawn
// lazily from one process-wide counter, so it is never 0 and two banks
// (or two states of one bank) never share a value unless one is a copy of
// the other with no height change since. Every height change goes through
// `link` or `unlink`, which reset it to 0 (drawn afresh on the next call).
// Equal stamps therefore mean equal heights everywhere; a caller may cache
// anything computed from the heights under the stamp (the honeycomb MAC's
// contestant set does).
//
// Change journal: a caller that cached something under a stamp can ask
// which nodes' heights changed since (`for_each_change_since`), and redo
// only the work that reads those nodes. The journal is a ring of
// kJournalSize entries, allocated the first time stamp() is read, so a bank
// whose stamp is never read (the router's) pays one predictable test per
// link/unlink and nothing else. While it exists, link and unlink append
// the node id, preceded by a checkpoint holding the replaced stamp when one
// was drawn for the state they leave. A stamp plus the journal position
// read with it (`journal_position()`) then locate that state's checkpoint:
// the nodes after it are exactly the nodes changed since, for this bank and
// for every copy that descends from that state. A position the ring no
// longer reaches, or one whose entry is not that checkpoint (an unrelated
// bank, or a copy taken before that state), answers false.
//
// Not thread-safe, not even for concurrent reads: for_each_active_node
// compacts its (mutable) active-node list in passing.

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
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

  /// One buffer of a node: destination, height and top-of-stack pool slot.
  /// Height 0 marks a tombstone (a drained buffer not yet compacted away).
  struct Entry {
    DestId dest;
    std::uint32_t height;
    std::uint32_t head;
  };

  /// h_{(v,d)}: current height of buffer Q_{v,d}.
  std::size_t height(graph::NodeId v, DestId d) const {
    const std::vector<Entry>& es = nodes_[v].entries;
    const std::size_t i = lower_bound(es, d);
    return (i < es.size() && es[i].dest == d) ? es[i].height : 0;
  }

  bool has_space(graph::NodeId v, DestId d) const {
    return height(v, d) < max_height_;
  }

  /// "No pool slot": unlink's result for an empty buffer, and the end of
  /// every slot list.
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  /// Store a copy of `p` in Q_{v,p.dst}; fails (returns false, allocating
  /// nothing) when the buffer is full. Deliveries are absorbed by the caller
  /// before push (under anycast the destination id is a group id, so no
  /// node-id comparison is made here).
  bool push(graph::NodeId v, const Packet& p) {
    Node& node = nodes_[v];
    const std::size_t i = entry_with_room(node, p.dst);
    if (i == kFull) return false;
    const std::uint32_t s = acquire();
    pool_[s] = p;
    link(v, node, i, s);
    return true;
  }

  /// Remove and return the top packet of Q_{v,d}; nullopt when empty. The
  /// router moves packets by slot (unlink/relink); pop is kept for tests.
  std::optional<Packet> pop(graph::NodeId v, DestId d) {
    const std::uint32_t s = unlink(v, d);
    if (s == kNoSlot) return std::nullopt;
    const Packet p = pool_[s];
    release(s);
    return p;
  }

  /// Take the top packet of Q_{v,d} off its stack without copying it: the
  /// slot stays allocated, its packet reachable through packet(slot), until
  /// relink or release. kNoSlot when the buffer is empty.
  std::uint32_t unlink(graph::NodeId v, DestId d) {
    Node& node = nodes_[v];
    const std::size_t i = lower_bound(node.entries, d);
    if (i >= node.entries.size() || node.entries[i].dest != d ||
        node.entries[i].height == 0)
      return kNoSlot;
    Entry& e = node.entries[i];
    const std::uint32_t s = e.head;
    e.head = pool_next_[s];
    const std::uint32_t h = e.height--;
    --total_;
    if (journal_) journal(v);
    lower_height(h);
    if (h == 1) {
      --node.live;
      maybe_compact(node);
    }
    return s;
  }

  /// The packet held by an unlinked slot.
  Packet& packet(std::uint32_t slot) { return pool_[slot]; }

  /// Put an unlinked slot on top of Q_{v,d}, where d is its packet's
  /// destination. When the buffer is full the slot is released and relink
  /// returns false.
  bool relink(graph::NodeId v, DestId d, std::uint32_t slot) {
    Node& node = nodes_[v];
    const std::size_t i = entry_with_room(node, d);
    if (i == kFull) {
      release(slot);
      return false;
    }
    if (leak_pool_slots_) {
      // The planted leak abandons the slot and moves the packet to a fresh
      // one, as a pop followed by a push would.
      const std::uint32_t s = acquire();
      pool_[s] = pool_[slot];
      slot = s;
    }
    link(v, node, i, slot);
    return true;
  }

  /// Return an unlinked slot to the freelist (a delivered packet).
  void release(std::uint32_t slot) {
    if (leak_pool_slots_) return;
    pool_next_[slot] = free_head_;
    free_head_ = slot;
  }

  /// Allocation-free scan of (destination, height) pairs at v, ascending by
  /// destination — the deterministic iteration order the balancing rule
  /// scans. Tombstone (drained) entries are skipped.
  template <typename Fn>
  void for_each_destination(graph::NodeId v, const Fn& fn) const {
    for (const Entry& e : nodes_[v].entries)
      if (e.height != 0) fn(e.dest, static_cast<std::size_t>(e.height));
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
    const std::vector<Entry>& a = nodes_[from].entries;
    const std::vector<Entry>& b = nodes_[to].entries;
    const std::size_t na = a.size();
    const std::size_t nb = b.size();
    std::size_t i = 0;
    std::size_t j = 0;
    while (i < na && j < nb) {
      const Entry& ea = a[i];
      const Entry& eb = b[j];
      if (ea.dest < eb.dest) {
        if (ea.height != 0) fn(ea.dest, ea.height, std::uint32_t{0});
        ++i;
      } else if (eb.dest < ea.dest) {
        if (eb.height != 0) fn(eb.dest, std::uint32_t{0}, eb.height);
        ++j;
      } else {
        if ((ea.height | eb.height) != 0) fn(ea.dest, ea.height, eb.height);
        ++i;
        ++j;
      }
    }
    for (; i < na; ++i)
      if (a[i].height != 0) fn(a[i].dest, a[i].height, std::uint32_t{0});
    for (; j < nb; ++j)
      if (b[j].height != 0) fn(b[j].dest, std::uint32_t{0}, b[j].height);
  }

  /// v's buffers, ascending by destination, for external scans (the
  /// router's advertised-height table, the honeycomb's tallest-buffer
  /// prune). Entries with height 0 are tombstones and must be treated as
  /// absent.
  std::span<const Entry> entries(graph::NodeId v) const {
    return nodes_[v].entries;
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

  /// FAULT INJECTION (soak_watchdog_mutation): stop recycling released
  /// slots into the freelist and give every relinked packet a fresh slot, so
  /// the arena grows by one slot per push or relink forever — the planted
  /// steady-state leak the drift watchdog must catch via its RSS envelope.
  /// Never set in production code.
  void plant_pool_leak(bool on) { leak_pool_slots_ = on; }

  /// Highest buffer currently in the bank (space-overhead metric). O(1):
  /// maintained incrementally from the height histogram.
  std::size_t peak_height() const { return cur_max_; }

  /// Content stamp of the current heights (never 0): equal stamps mean equal
  /// heights at every (node, destination). Const scans, a push into a full
  /// buffer and an unlink of an empty one keep it; every push, pop, unlink
  /// and relink that moves a packet changes it. A copy shares its source's
  /// stamp until either side changes a height.
  std::uint64_t stamp() const {
    if (stamp_ == 0) {
      if (!journal_) journal_.allocate();
      stamp_ = next_stamp_.fetch_add(1, std::memory_order_relaxed);
    }
    return stamp_;
  }

  /// Entries the change journal keeps: changed-node ids plus one checkpoint
  /// per stamped state left.
  static constexpr std::size_t kJournalSize = 256;

  /// The journal position of the current state: read it together with
  /// stamp() and pass both to for_each_change_since later. 0 before the
  /// first stamp() read.
  std::uint64_t journal_position() const {
    return journal_ ? journal_->end : 0;
  }

  /// fn(v) for every node whose heights changed since the bank (or the bank
  /// this one was copied from) was in the state named by `stamp`, read at
  /// journal position `position`; a node changed several times may be listed
  /// several times, in no promised order. Returns false, calling fn for
  /// nothing, when the journal no longer reaches back that far or this bank
  /// does not descend from that state; then the caller must redo its work
  /// from scratch. True with no calls when `stamp` is the current stamp.
  template <typename Fn>
  bool for_each_change_since(std::uint64_t stamp, std::uint64_t position,
                             const Fn& fn) const {
    if (stamp == 0) return false;
    if (stamp == stamp_) return true;
    const Journal* j = journal_.get();
    if (j == nullptr || position >= j->end ||
        j->end - position > kJournalSize ||
        j->ring[position % kJournalSize] != checkpoint(stamp))
      return false;
    for (std::uint64_t p = position + 1; p < j->end; ++p) {
      const std::uint64_t x = j->ring[p % kJournalSize];
      if ((x & 1) == 0) fn(static_cast<graph::NodeId>(x >> 1));
    }
    return true;
  }

 private:
  static constexpr std::size_t kFull = ~std::size_t{0};

  // The change journal's ring: node ids as id << 1, checkpoints as
  // stamp << 1 | 1, entry p at ring[p % kJournalSize].
  struct Journal {
    std::array<std::uint64_t, kJournalSize> ring{};
    std::uint64_t end = 0;  // entries ever written
  };
  // Owning pointer that deep-copies, so a bank's copy carries its journal.
  class JournalPtr {
   public:
    JournalPtr() = default;
    JournalPtr(const JournalPtr& o)
        : p_(o.p_ ? std::make_unique<Journal>(*o.p_) : nullptr) {}
    JournalPtr(JournalPtr&&) noexcept = default;
    JournalPtr& operator=(const JournalPtr& o) {
      if (this != &o) p_ = o.p_ ? std::make_unique<Journal>(*o.p_) : nullptr;
      return *this;
    }
    JournalPtr& operator=(JournalPtr&&) noexcept = default;
    void allocate() { p_ = std::make_unique<Journal>(); }
    explicit operator bool() const { return p_ != nullptr; }
    Journal* operator->() const { return p_.get(); }
    Journal* get() const { return p_.get(); }

   private:
    std::unique_ptr<Journal> p_;
  };

  static std::uint64_t checkpoint(std::uint64_t stamp) {
    return (stamp << 1) | 1;
  }

  // A height of node v changes: leave the stamped state (a checkpoint, so
  // for_each_change_since can find it) and record v.
  void journal(graph::NodeId v) {
    Journal& j = *journal_.get();
    if (stamp_ != 0) {
      j.ring[j.end++ % kJournalSize] = checkpoint(stamp_);
      stamp_ = 0;
    }
    j.ring[j.end++ % kJournalSize] = std::uint64_t{v} << 1;
  }

  struct Node {
    std::vector<Entry> entries;  // sorted by dest
    std::uint32_t live = 0;      // entries with height > 0
  };

  /// Branch-light lower bound over a sorted entry array.
  static std::size_t lower_bound(const std::vector<Entry>& a, DestId d) {
    const Entry* base = a.data();
    std::size_t n = a.size();
    if (n == 0) return 0;
    while (n > 1) {
      const std::size_t half = n / 2;
      base += (base[half - 1].dest < d) ? half : 0;
      n -= half;
    }
    return static_cast<std::size_t>(base - a.data()) + (base->dest < d ? 1 : 0);
  }

  // Index of node's entry for d with room for one more packet, inserting a
  // tombstone entry when d is absent; kFull when Q_{v,d} is at H.
  std::size_t entry_with_room(Node& node, DestId d) {
    std::vector<Entry>& es = node.entries;
    const std::size_t i = lower_bound(es, d);
    const bool found = i < es.size() && es[i].dest == d;
    if ((found ? es[i].height : 0) >= max_height_) return kFull;
    if (!found)
      es.insert(es.begin() + static_cast<std::ptrdiff_t>(i),
                Entry{d, 0, kNoSlot});
    return i;
  }

  // A slot from the freelist, or a new one (the pool grows geometrically and
  // recycles forever).
  std::uint32_t acquire() {
    if (free_head_ != kNoSlot) {
      const std::uint32_t s = free_head_;
      free_head_ = pool_next_[s];
      return s;
    }
    pool_.emplace_back();
    pool_next_.push_back(kNoSlot);
    return static_cast<std::uint32_t>(pool_.size() - 1);
  }

  // Put slot s on top of node v's entry i (which has room).
  void link(graph::NodeId v, Node& node, std::size_t i, std::uint32_t s) {
    Entry& e = node.entries[i];
    const std::uint32_t h = e.height;
    pool_next_[s] = e.head;
    e.head = s;
    e.height = h + 1;
    if (h == 0) {
      ++node.live;
      if (!in_active_list_[v]) {
        in_active_list_[v] = 1;
        active_nodes_.push_back(v);
      }
    }
    ++total_;
    if (journal_) journal(v);
    raise_height(h + 1);
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
    const std::size_t dead = node.entries.size() - node.live;
    if (dead <= node.live + 8) return;
    std::erase_if(node.entries, [](const Entry& e) { return e.height == 0; });
  }

  std::vector<Node> nodes_;
  // Packet pool (index = slot id) with the intrusive LIFO links alongside.
  std::vector<Packet> pool_;
  std::vector<std::uint32_t> pool_next_;
  std::uint32_t free_head_ = kNoSlot;
  bool leak_pool_slots_ = false;  // fault injection; see plant_pool_leak
  // Active-node bookkeeping (mutable: compacted lazily from const scans).
  mutable std::vector<graph::NodeId> active_nodes_;
  mutable std::vector<std::uint8_t> in_active_list_;
  // Height histogram: counts_[h] = #buffers at height h (h >= 1).
  std::vector<std::uint32_t> counts_;
  std::uint32_t cur_max_ = 0;
  std::size_t total_ = 0;
  std::size_t max_height_;
  // Content stamp (see stamp()); 0 until drawn after the last height change.
  // Nonzero only once the journal exists.
  mutable std::uint64_t stamp_ = 0;
  mutable JournalPtr journal_;  // null until stamp() is first read
  static inline std::atomic<std::uint64_t> next_stamp_{1};
};

}  // namespace thetanet::route
