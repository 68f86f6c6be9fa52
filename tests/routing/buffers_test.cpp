#include "routing/buffers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <set>
#include <tuple>
#include <vector>

#include "geom/rng.h"

namespace thetanet::route {
namespace {

Packet mk(std::uint64_t id, graph::NodeId src, DestId dst) {
  return Packet{id, src, dst, 0, 0.0, 0};
}

TEST(BufferBank, StartsEmpty) {
  const BufferBank b(4, 8);
  EXPECT_EQ(b.height(0, 1), 0U);
  EXPECT_EQ(b.total_packets(), 0U);
  EXPECT_EQ(b.peak_height(), 0U);
  EXPECT_TRUE(b.has_space(0, 1));
}

TEST(BufferBank, PushPopLifo) {
  BufferBank b(4, 8);
  EXPECT_TRUE(b.push(0, mk(1, 0, 3)));
  EXPECT_TRUE(b.push(0, mk(2, 0, 3)));
  EXPECT_EQ(b.height(0, 3), 2U);
  const auto p = b.pop(0, 3);
  ASSERT_TRUE(p.has_value());
  EXPECT_EQ(p->id, 2U);  // LIFO
  EXPECT_EQ(b.height(0, 3), 1U);
}

TEST(BufferBank, PopEmptyReturnsNullopt) {
  BufferBank b(2, 4);
  EXPECT_FALSE(b.pop(0, 1).has_value());
  b.push(0, mk(1, 0, 1));
  b.pop(0, 1);
  EXPECT_FALSE(b.pop(0, 1).has_value());
}

TEST(BufferBank, CapacityEnforced) {
  BufferBank b(2, 2);
  EXPECT_TRUE(b.push(0, mk(1, 0, 1)));
  EXPECT_TRUE(b.push(0, mk(2, 0, 1)));
  EXPECT_FALSE(b.has_space(0, 1));
  EXPECT_FALSE(b.push(0, mk(3, 0, 1)));  // full: the "delete" of step 2
  EXPECT_EQ(b.height(0, 1), 2U);
}

TEST(BufferBank, PerDestinationIsolation) {
  BufferBank b(3, 2);
  EXPECT_TRUE(b.push(0, mk(1, 0, 1)));
  EXPECT_TRUE(b.push(0, mk(2, 0, 2)));
  EXPECT_TRUE(b.push(0, mk(3, 0, 1)));
  EXPECT_FALSE(b.push(0, mk(4, 0, 1)));  // dest-1 buffer full
  EXPECT_TRUE(b.push(0, mk(5, 0, 2)));   // dest-2 buffer still has room
  EXPECT_EQ(b.height(0, 1), 2U);
  EXPECT_EQ(b.height(0, 2), 2U);
}

std::vector<DestId> live_dests(const BufferBank& b, graph::NodeId v) {
  std::vector<DestId> out;
  b.for_each_destination(v, [&](DestId d, std::size_t) { out.push_back(d); });
  return out;
}

TEST(BufferBank, DestinationScanSortedAndLive) {
  BufferBank b(2, 8);
  b.push(0, mk(1, 0, 5));
  b.push(0, mk(2, 0, 1));
  b.push(0, mk(3, 0, 3));
  EXPECT_EQ(live_dests(b, 0), (std::vector<DestId>{1, 3, 5}));
  b.pop(0, 3);  // leaves a tombstone entry — scans must skip it
  EXPECT_EQ(live_dests(b, 0), (std::vector<DestId>{1, 5}));
  EXPECT_EQ(b.height(0, 3), 0U);
  EXPECT_EQ(b.live_destinations(0), 2U);
}

TEST(BufferBank, MergedPairScan) {
  BufferBank b(3, 8);
  b.push(0, mk(1, 0, 1));
  b.push(0, mk(2, 0, 1));
  b.push(0, mk(3, 0, 4));
  b.push(1, mk(4, 1, 2));
  b.push(1, mk(5, 1, 4));
  b.push(1, mk(6, 1, 4));
  b.push(1, mk(7, 1, 6));
  b.pop(1, 6);  // tombstone on the right side
  std::vector<std::tuple<DestId, std::uint32_t, std::uint32_t>> seen;
  b.for_each_pair(0, 1, [&](DestId d, std::uint32_t hf, std::uint32_t ht) {
    seen.push_back({d, hf, ht});
  });
  const std::vector<std::tuple<DestId, std::uint32_t, std::uint32_t>> want = {
      {1, 2, 0}, {2, 0, 1}, {4, 1, 2}};
  EXPECT_EQ(seen, want);
}

TEST(BufferBank, PeakTracksPops) {
  BufferBank b(2, 8);
  for (std::uint64_t i = 0; i < 5; ++i) b.push(0, mk(10 + i, 0, 1));
  b.push(0, mk(20, 0, 3));
  EXPECT_EQ(b.peak_height(), 5U);
  b.pop(0, 1);
  b.pop(0, 1);
  EXPECT_EQ(b.peak_height(), 3U);
  b.pop(0, 1);
  b.pop(0, 1);
  b.pop(0, 1);
  EXPECT_EQ(b.peak_height(), 1U);  // dest 3 still holds one packet
  b.pop(0, 3);
  EXPECT_EQ(b.peak_height(), 0U);
  EXPECT_EQ(b.total_packets(), 0U);
}

TEST(BufferBank, PoolRecyclesSlots) {
  BufferBank b(2, 64);
  // Churn one buffer: after warm-up, pushes must reuse freed slots, so the
  // bank's pool stays bounded by the live packet count, not the churn.
  for (int round = 0; round < 100; ++round) {
    for (int i = 0; i < 8; ++i)
      ASSERT_TRUE(b.push(0, mk(static_cast<std::uint64_t>(round * 8 + i), 0,
                               static_cast<DestId>(1 + (i % 3)))));
    for (int i = 0; i < 8; ++i) {
      const DestId d = static_cast<DestId>(1 + (i % 3));
      if (b.height(0, d) > 0) {
        ASSERT_TRUE(b.pop(0, d).has_value());
      }
    }
  }
  EXPECT_EQ(b.total_packets(), 0U);
  // LIFO identity survives recycling.
  ASSERT_TRUE(b.push(0, mk(9001, 0, 1)));
  ASSERT_TRUE(b.push(0, mk(9002, 0, 1)));
  EXPECT_EQ(b.pop(0, 1)->id, 9002U);
  EXPECT_EQ(b.pop(0, 1)->id, 9001U);
}

TEST(BufferBank, TombstoneCompaction) {
  BufferBank b(2, 4);
  // Fill many one-packet buffers, drain most of them: the node's entry
  // array must compact (observable via correct scans; heights stay exact).
  for (DestId d = 1; d <= 40; ++d) ASSERT_TRUE(b.push(0, mk(d, 0, d)));
  for (DestId d = 1; d <= 40; ++d)
    if (d % 10 != 0) {
      ASSERT_TRUE(b.pop(0, d).has_value());
    }
  EXPECT_EQ(live_dests(b, 0), (std::vector<DestId>{10, 20, 30, 40}));
  EXPECT_EQ(b.live_destinations(0), 4U);
  for (DestId d = 1; d <= 40; ++d)
    EXPECT_EQ(b.height(0, d), d % 10 == 0 ? 1U : 0U);
  // Re-inserting a compacted destination works.
  ASSERT_TRUE(b.push(0, mk(99, 0, 5)));
  EXPECT_EQ(b.height(0, 5), 1U);
  EXPECT_EQ(live_dests(b, 0), (std::vector<DestId>{5, 10, 20, 30, 40}));
}

TEST(BufferBank, ActiveNodeTracking) {
  BufferBank b(5, 4);
  b.push(3, mk(1, 3, 0));
  b.push(1, mk(2, 1, 0));
  std::vector<graph::NodeId> active;
  b.for_each_active_node([&](graph::NodeId v) { active.push_back(v); });
  std::sort(active.begin(), active.end());
  EXPECT_EQ(active, (std::vector<graph::NodeId>{1, 3}));
  b.pop(3, 0);
  active.clear();
  b.for_each_active_node([&](graph::NodeId v) { active.push_back(v); });
  EXPECT_EQ(active, (std::vector<graph::NodeId>{1}));
  // A drained node that refills is re-reported exactly once.
  b.push(3, mk(3, 3, 0));
  active.clear();
  b.for_each_active_node([&](graph::NodeId v) { active.push_back(v); });
  std::sort(active.begin(), active.end());
  EXPECT_EQ(active, (std::vector<graph::NodeId>{1, 3}));
}

TEST(BufferBank, ForEachDestinationMatches) {
  BufferBank b(2, 8);
  b.push(1, mk(1, 1, 0));
  b.push(1, mk(2, 1, 0));
  b.push(1, mk(3, 1, 4));
  std::vector<std::pair<DestId, std::size_t>> seen;
  b.for_each_destination(1, [&](DestId d, std::size_t h) {
    seen.push_back({d, h});
  });
  ASSERT_EQ(seen.size(), 2U);
  EXPECT_EQ(seen[0], (std::pair<DestId, std::size_t>{0, 2}));
  EXPECT_EQ(seen[1], (std::pair<DestId, std::size_t>{4, 1}));
}

TEST(BufferBank, TotalsAndPeak) {
  BufferBank b(3, 8);
  b.push(0, mk(1, 0, 2));
  b.push(0, mk(2, 0, 2));
  b.push(1, mk(3, 1, 2));
  EXPECT_EQ(b.total_packets(), 3U);
  EXPECT_EQ(b.peak_height(), 2U);
}

using PairVisit = std::tuple<DestId, std::uint32_t, std::uint32_t>;

/// Fills node v with `entries` distinct destinations drawn from [0, 8),
/// each 1-3 packets high, then drains some of them whole: the entry array
/// keeps those as tombstones (too few to trigger compaction). Returns the
/// live heights the node should report.
std::map<DestId, std::uint32_t> fill_with_tombstones(BufferBank& b,
                                                     graph::NodeId v,
                                                     std::size_t entries,
                                                     geom::Rng& rng) {
  std::set<DestId> dests;
  while (dests.size() < entries)
    dests.insert(static_cast<DestId>(rng.uniform_index(8)));
  std::map<DestId, std::uint32_t> live;
  std::uint64_t id = 0;
  for (const DestId d : dests) {
    const auto h = static_cast<std::uint32_t>(1 + rng.uniform_index(3));
    for (std::uint32_t k = 0; k < h; ++k) b.push(v, mk(++id, v, d));
    if (rng.bernoulli(0.35)) {
      while (b.pop(v, d)) {
      }
    } else {
      live[d] = h;
    }
  }
  return live;
}

TEST(BufferBank, PairScanMatchesBruteForceMerge) {
  // for_each_pair against an independently written merge, over every
  // combination of 0, 1, 2 and 5 entries per side, tombstones included.
  geom::Rng rng(0xb0f);
  const std::size_t sizes[] = {0, 1, 2, 5};
  std::size_t tombstones = 0;
  for (const std::size_t na : sizes)
    for (const std::size_t nb : sizes)
      for (int trial = 0; trial < 60; ++trial) {
        SCOPED_TRACE(::testing::Message() << na << "x" << nb << " #" << trial);
        BufferBank b(2, 8);
        const auto live_a = fill_with_tombstones(b, 0, na, rng);
        const auto live_b = fill_with_tombstones(b, 1, nb, rng);
        ASSERT_EQ(b.entries(0).size(), na);
        ASSERT_EQ(b.entries(1).size(), nb);
        tombstones += (na - live_a.size()) + (nb - live_b.size());
        std::set<DestId> all;
        for (const auto& [d, h] : live_a) all.insert(d);
        for (const auto& [d, h] : live_b) all.insert(d);
        std::vector<PairVisit> want;
        for (const DestId d : all) {
          const auto ia = live_a.find(d);
          const auto ib = live_b.find(d);
          want.emplace_back(d, ia == live_a.end() ? 0 : ia->second,
                            ib == live_b.end() ? 0 : ib->second);
        }
        std::vector<PairVisit> seen;
        b.for_each_pair(0, 1,
                        [&](DestId d, std::uint32_t hf, std::uint32_t ht) {
                          seen.emplace_back(d, hf, ht);
                        });
        EXPECT_EQ(seen, want);
      }
  EXPECT_GT(tombstones, 100U);
}

TEST(BufferBank, SlotMoveKeepsPacketAndOrder) {
  BufferBank b(3, 2);
  ASSERT_TRUE(b.push(0, mk(1, 0, 2)));
  ASSERT_TRUE(b.push(0, mk(2, 0, 2)));
  EXPECT_EQ(b.unlink(1, 2), BufferBank::kNoSlot);  // empty buffer
  const std::uint32_t s = b.unlink(0, 2);
  ASSERT_NE(s, BufferBank::kNoSlot);
  EXPECT_EQ(b.packet(s).id, 2U);  // LIFO top
  EXPECT_EQ(b.total_packets(), 1U);
  b.packet(s).hops = 7;
  ASSERT_TRUE(b.relink(1, 2, s));
  ASSERT_TRUE(b.push(1, mk(3, 1, 2)));
  EXPECT_EQ(b.height(1, 2), 2U);
  EXPECT_EQ(b.pop(1, 2)->id, 3U);
  const std::optional<Packet> moved = b.pop(1, 2);
  ASSERT_TRUE(moved.has_value());
  EXPECT_EQ(moved->id, 2U);
  EXPECT_EQ(moved->hops, 7U);  // edited in place, not copied
  // A relink into a full buffer fails and frees the slot for reuse.
  ASSERT_TRUE(b.push(1, mk(4, 1, 2)));
  ASSERT_TRUE(b.push(1, mk(5, 1, 2)));
  const std::size_t slots = b.pool_slots();
  const std::uint32_t t = b.unlink(0, 2);
  EXPECT_FALSE(b.relink(1, 2, t));
  EXPECT_EQ(b.total_packets(), 2U);
  ASSERT_TRUE(b.push(2, mk(6, 2, 0)));
  EXPECT_EQ(b.pool_slots(), slots);
}

TEST(BufferBank, PlantedLeakTakesOneFreshSlotPerPushAndRelink) {
  BufferBank b(3, 4);
  b.plant_pool_leak(true);
  std::size_t slots = b.pool_slots();
  for (std::uint64_t i = 0; i < 3; ++i) {
    ASSERT_TRUE(b.push(0, mk(i, 0, 2)));
    EXPECT_EQ(b.pool_slots(), ++slots);
  }
  // Relinked packets leak too: each move lands in a fresh slot.
  for (int i = 0; i < 3; ++i) {
    const std::uint32_t s = b.unlink(0, 2);
    ASSERT_NE(s, BufferBank::kNoSlot);
    ASSERT_TRUE(b.relink(1, 2, s));
    EXPECT_EQ(b.pool_slots(), ++slots);
  }
  // Popping, releasing and failed moves allocate nothing, and nothing they
  // free is reused: the next push grows the pool again.
  ASSERT_TRUE(b.pop(1, 2).has_value());
  b.release(b.unlink(1, 2));
  for (std::uint64_t i = 0; i < 4; ++i)
    ASSERT_TRUE(b.push(2, mk(10 + i, 0, 2)));
  slots += 4;
  EXPECT_FALSE(b.relink(2, 2, b.unlink(1, 2)));  // Q(2, 2) is full
  EXPECT_FALSE(b.push(2, mk(20, 0, 2)));
  EXPECT_EQ(b.pool_slots(), slots);
  ASSERT_TRUE(b.push(0, mk(21, 0, 1)));
  EXPECT_EQ(b.pool_slots(), slots + 1);
  // The packets themselves are intact.
  EXPECT_EQ(b.height(1, 2), 0U);
  EXPECT_EQ(b.pop(0, 1)->id, 21U);
}

// --- content stamp ------------------------------------------------------

TEST(BufferBank, StampKeptByReadsAndNoOps) {
  BufferBank b(4, 2);
  ASSERT_TRUE(b.push(0, mk(1, 0, 3)));
  ASSERT_TRUE(b.push(0, mk(2, 0, 3)));  // Q(0, 3) is full
  ASSERT_TRUE(b.push(1, mk(3, 1, 2)));
  ASSERT_TRUE(b.push(2, mk(4, 2, 1)));
  ASSERT_TRUE(b.pop(2, 1).has_value());  // node 2 drains: a tombstone and a
                                         // stale active-list entry remain
  const std::uint64_t s = b.stamp();
  EXPECT_NE(s, 0U);
  EXPECT_EQ(b.stamp(), s);
  EXPECT_EQ(b.height(0, 3), 2U);
  std::size_t visits = 0;
  b.for_each_pair(0, 1, [&](DestId, std::uint32_t, std::uint32_t) {
    ++visits;
  });
  EXPECT_EQ(visits, 2U);
  EXPECT_EQ(live_dests(b, 0), (std::vector<DestId>{3}));
  std::vector<graph::NodeId> active;
  b.for_each_active_node([&](graph::NodeId v) { active.push_back(v); });
  std::sort(active.begin(), active.end());
  EXPECT_EQ(active, (std::vector<graph::NodeId>{0, 1}));  // 2 compacted away
  EXPECT_EQ(b.stamp(), s);
  EXPECT_FALSE(b.push(0, mk(5, 0, 3)));                 // full buffer
  EXPECT_EQ(b.unlink(3, 1), BufferBank::kNoSlot);       // no entries
  EXPECT_EQ(b.unlink(2, 1), BufferBank::kNoSlot);       // tombstone
  EXPECT_EQ(b.unlink(0, 1), BufferBank::kNoSlot);       // absent destination
  EXPECT_FALSE(b.pop(1, 3).has_value());
  EXPECT_EQ(b.stamp(), s);
}

TEST(BufferBank, StampChangesOnEveryHeightChange) {
  BufferBank b(3, 2);
  std::set<std::uint64_t> seen{b.stamp()};
  const auto fresh = [&] { return seen.insert(b.stamp()).second; };
  ASSERT_TRUE(b.push(0, mk(1, 0, 2)));
  EXPECT_TRUE(fresh()) << "push";
  ASSERT_TRUE(b.push(0, mk(2, 0, 2)));
  EXPECT_TRUE(fresh()) << "push";
  ASSERT_TRUE(b.pop(0, 2).has_value());
  EXPECT_TRUE(fresh()) << "pop";
  const std::uint32_t slot = b.unlink(0, 2);
  ASSERT_NE(slot, BufferBank::kNoSlot);
  EXPECT_TRUE(fresh()) << "unlink";
  ASSERT_TRUE(b.relink(1, 2, slot));
  EXPECT_TRUE(fresh()) << "relink";
  // Back to an earlier content (Q(1, 2) empty again) is still a new stamp:
  // the stamp names a state, it does not hash the heights.
  b.release(b.unlink(1, 2));
  EXPECT_TRUE(fresh()) << "unlink";
  // A relink into a full buffer releases the slot and changes no height.
  ASSERT_TRUE(b.push(1, mk(3, 1, 2)));
  ASSERT_TRUE(b.push(1, mk(4, 1, 2)));
  ASSERT_TRUE(b.push(0, mk(5, 0, 2)));
  const std::uint32_t moving = b.unlink(0, 2);
  const std::uint64_t before = b.stamp();
  EXPECT_FALSE(b.relink(1, 2, moving));
  EXPECT_EQ(b.stamp(), before);
}

TEST(BufferBank, StampCopySharedUntilEitherSideChanges) {
  BufferBank src(3, 4);
  ASSERT_TRUE(src.push(0, mk(1, 0, 2)));
  const std::uint64_t s = src.stamp();
  BufferBank copy = src;
  EXPECT_EQ(copy.stamp(), s);
  ASSERT_TRUE(copy.push(1, mk(2, 1, 2)));  // the copy changes
  EXPECT_NE(copy.stamp(), s);
  EXPECT_EQ(src.stamp(), s);
  BufferBank other = src;
  ASSERT_TRUE(src.pop(0, 2).has_value());  // the source changes
  EXPECT_NE(src.stamp(), s);
  EXPECT_NE(src.stamp(), copy.stamp());
  EXPECT_EQ(other.stamp(), s);
  EXPECT_EQ(other.height(0, 2), 1U);
}

TEST(BufferBank, FreshBanksNeverShareAStamp) {
  std::set<std::uint64_t> stamps;
  for (int i = 0; i < 64; ++i) {
    const BufferBank b(2, 4);  // identical (empty) content every time
    EXPECT_TRUE(stamps.insert(b.stamp()).second);
  }
}

// --- change journal -----------------------------------------------------

// The nodes for_each_change_since lists, as a set; nullopt when it answers
// false.
std::optional<std::set<graph::NodeId>> changes_since(const BufferBank& b,
                                                     std::uint64_t stamp,
                                                     std::uint64_t position) {
  std::set<graph::NodeId> nodes;
  bool called = false;
  const bool ok = b.for_each_change_since(stamp, position,
                                          [&](graph::NodeId v) {
                                            nodes.insert(v);
                                            called = true;
                                          });
  if (!ok) {
    EXPECT_FALSE(called) << "fn called on a false answer";
    return std::nullopt;
  }
  return nodes;
}

using Nodes = std::set<graph::NodeId>;

TEST(BufferBank, JournalListsTheNodesChangedSinceAStamp) {
  BufferBank b(8, 4);
  EXPECT_EQ(b.journal_position(), 0U);
  ASSERT_TRUE(b.push(0, mk(1, 0, 7)));  // before any stamp: nothing kept
  const std::uint64_t s0 = b.stamp();
  const std::uint64_t p0 = b.journal_position();
  EXPECT_EQ(changes_since(b, s0, p0), Nodes{});  // the current state
  ASSERT_TRUE(b.push(1, mk(2, 1, 7)));           // push
  ASSERT_TRUE(b.push(3, mk(3, 3, 6)));
  ASSERT_TRUE(b.pop(0, 7).has_value());          // pop
  EXPECT_EQ(changes_since(b, s0, p0), (Nodes{0, 1, 3}));
  const std::uint64_t s1 = b.stamp();
  const std::uint64_t p1 = b.journal_position();
  const std::uint32_t slot = b.unlink(3, 6);     // unlink
  ASSERT_NE(slot, BufferBank::kNoSlot);
  EXPECT_EQ(changes_since(b, s1, p1), (Nodes{3}));
  ASSERT_TRUE(b.relink(5, 6, slot));             // relink
  EXPECT_EQ(changes_since(b, s1, p1), (Nodes{3, 5}));
  EXPECT_EQ(changes_since(b, s0, p0), (Nodes{0, 1, 3, 5}));
  // A state that was never stamped leaves no checkpoint behind: the next
  // stamp's changes start after it.
  ASSERT_TRUE(b.push(2, mk(4, 2, 7)));
  const std::uint64_t s2 = b.stamp();
  const std::uint64_t p2 = b.journal_position();
  b.release(b.unlink(1, 7));
  EXPECT_EQ(changes_since(b, s2, p2), (Nodes{1}));
  EXPECT_EQ(changes_since(b, s1, p1), (Nodes{1, 2, 3, 5}));
  // A stamp with the wrong position is not found.
  EXPECT_EQ(changes_since(b, s1, p2), std::nullopt);
  EXPECT_EQ(changes_since(b, 0, 0), std::nullopt);
}

TEST(BufferBank, JournalKeepsNoOps) {
  BufferBank b(4, 1);
  ASSERT_TRUE(b.push(0, mk(1, 0, 3)));  // Q(0, 3) is full
  ASSERT_TRUE(b.push(1, mk(2, 1, 3)));
  ASSERT_TRUE(b.push(2, mk(3, 2, 1)));
  const std::uint32_t moving = b.unlink(2, 1);
  const std::uint64_t s = b.stamp();
  const std::uint64_t p = b.journal_position();
  EXPECT_FALSE(b.push(0, mk(4, 0, 3)));            // full buffer
  EXPECT_EQ(b.unlink(3, 1), BufferBank::kNoSlot);  // no entries
  EXPECT_EQ(b.unlink(2, 1), BufferBank::kNoSlot);  // drained: a tombstone
  EXPECT_EQ(b.unlink(0, 2), BufferBank::kNoSlot);  // absent destination
  EXPECT_FALSE(b.pop(1, 2).has_value());
  EXPECT_FALSE(b.relink(1, 3, moving));             // full: slot released
  EXPECT_EQ(b.journal_position(), p);
  EXPECT_EQ(b.stamp(), s);
  EXPECT_EQ(changes_since(b, s, p), Nodes{});
}

TEST(BufferBank, JournalFollowsACopyDivergingOnBothSides) {
  BufferBank src(6, 8);
  ASSERT_TRUE(src.push(0, mk(1, 0, 5)));
  BufferBank before = src;  // taken before the stamped state
  ASSERT_TRUE(before.push(4, mk(9, 4, 5)));
  const std::uint64_t s = src.stamp();
  const std::uint64_t p = src.journal_position();
  BufferBank copy = src;
  ASSERT_TRUE(src.push(1, mk(2, 1, 5)));  // the source changes
  ASSERT_TRUE(copy.push(2, mk(3, 2, 5)));  // the copy changes
  ASSERT_TRUE(copy.pop(0, 5).has_value());
  EXPECT_EQ(changes_since(src, s, p), (Nodes{1}));
  EXPECT_EQ(changes_since(copy, s, p), (Nodes{0, 2}));
  EXPECT_EQ(changes_since(before, s, p), std::nullopt);
  // Each side's later states are its own: the other does not descend from
  // them, although both journals sit at the same position.
  const std::uint64_t ss = src.stamp();
  const std::uint64_t sp = src.journal_position();
  const std::uint64_t cs = copy.stamp();
  const std::uint64_t cp = copy.journal_position();
  ASSERT_TRUE(src.push(3, mk(4, 3, 5)));
  ASSERT_TRUE(copy.push(3, mk(5, 3, 5)));
  EXPECT_EQ(changes_since(src, ss, sp), (Nodes{3}));
  EXPECT_EQ(changes_since(copy, cs, cp), (Nodes{3}));
  EXPECT_EQ(changes_since(copy, ss, sp), std::nullopt);
  EXPECT_EQ(changes_since(src, cs, cp), std::nullopt);
  // Assignment carries the journal as copy construction does.
  BufferBank assigned(1, 1);
  assigned = src;
  EXPECT_EQ(changes_since(assigned, ss, sp), (Nodes{3}));
}

TEST(BufferBank, JournalAnswersFalseOnceItNoLongerReachesTheStamp) {
  BufferBank b(300, 4);
  const std::uint64_t s = b.stamp();
  const std::uint64_t p = b.journal_position();
  // One checkpoint plus one entry per change: kJournalSize - 1 changes
  // still fit, one more overwrites the checkpoint.
  Nodes pushed;
  for (graph::NodeId v = 0; v + 1 < BufferBank::kJournalSize; ++v) {
    ASSERT_TRUE(b.push(v, mk(v, v, 299)));
    pushed.insert(v);
  }
  EXPECT_EQ(changes_since(b, s, p), pushed);
  ASSERT_TRUE(b.push(298, mk(1000, 298, 299)));
  EXPECT_EQ(changes_since(b, s, p), std::nullopt);
  // A stamp drawn after the overflow is found again.
  const std::uint64_t s2 = b.stamp();
  const std::uint64_t p2 = b.journal_position();
  ASSERT_TRUE(b.pop(7, 299).has_value());
  EXPECT_EQ(changes_since(b, s2, p2), (Nodes{7}));
}

TEST(BufferBank, JournalOfAnUnrelatedBankAnswersFalse) {
  // Two banks with the same operations sit at the same journal position;
  // only the stamps tell them apart.
  BufferBank a(4, 4);
  BufferBank b(4, 4);
  for (BufferBank* bank : {&a, &b}) {
    bank->stamp();
    ASSERT_TRUE(bank->push(0, mk(1, 0, 3)));
  }
  const std::uint64_t s = a.stamp();
  const std::uint64_t p = a.journal_position();
  b.stamp();
  ASSERT_EQ(b.journal_position(), p);
  for (BufferBank* bank : {&a, &b}) ASSERT_TRUE(bank->push(1, mk(2, 1, 3)));
  EXPECT_EQ(changes_since(a, s, p), (Nodes{1}));
  EXPECT_EQ(changes_since(b, s, p), std::nullopt);
  const BufferBank never_stamped(4, 4);
  EXPECT_EQ(never_stamped.journal_position(), 0U);
  EXPECT_EQ(changes_since(never_stamped, s, p), std::nullopt);
}

}  // namespace
}  // namespace thetanet::route
