#include "routing/buffers.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

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

}  // namespace
}  // namespace thetanet::route
