#include "obs/timeseries.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

namespace thetanet::obs {
namespace {

/// The registry is global; every test uses its own series names and resets
/// samples up front so ordering cannot leak state between tests.
class TimeseriesTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_recording(true);
    SeriesRegistry::global().reset();
    saved_capacity_ = SeriesRegistry::global().capacity();
  }
  void TearDown() override {
    SeriesRegistry::global().set_capacity(saved_capacity_);
    SeriesRegistry::global().reset();
  }

  static const SeriesSnapshot* find(const std::vector<SeriesSnapshot>& all,
                                    std::string_view name) {
    for (const SeriesSnapshot& s : all)
      if (s.name == name) return &s;
    return nullptr;
  }

 private:
  std::size_t saved_capacity_ = 0;
};

TEST_F(TimeseriesTest, SumSeriesRecordsPerRound) {
  auto& reg = SeriesRegistry::global();
  const std::uint32_t id =
      reg.register_series("t.sum_basic", SeriesKind::kU64, SeriesAgg::kSum);
  reg.record_u64(id, 0, 2);
  reg.record_u64(id, 0, 3);  // same round folds
  reg.record_u64(id, 2, 7);  // round 1 left at the identity
  const auto all = reg.snapshot();
  const SeriesSnapshot* s = find(all, "t.sum_basic");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->stride, 1U);
  EXPECT_EQ(s->rounds, 3U);
  EXPECT_EQ(s->upoints, (std::vector<std::uint64_t>{5, 0, 7}));
}

TEST_F(TimeseriesTest, MaxSeriesKeepsPerRoundPeak) {
  auto& reg = SeriesRegistry::global();
  const std::uint32_t id =
      reg.register_series("t.max_basic", SeriesKind::kU64, SeriesAgg::kMax);
  reg.record_u64(id, 0, 4);
  reg.record_u64(id, 0, 9);
  reg.record_u64(id, 0, 2);
  const auto all = reg.snapshot();
  const SeriesSnapshot* s = find(all, "t.max_basic");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->upoints, (std::vector<std::uint64_t>{9}));
}

TEST_F(TimeseriesTest, ReRegisteringReturnsTheSameId) {
  auto& reg = SeriesRegistry::global();
  const std::uint32_t a =
      reg.register_series("t.reregister", SeriesKind::kU64, SeriesAgg::kSum);
  const std::uint32_t b =
      reg.register_series("t.reregister", SeriesKind::kU64, SeriesAgg::kSum);
  EXPECT_EQ(a, b);
}

TEST_F(TimeseriesTest, DownsamplingPreservesSumAndMaxExactly) {
  auto& reg = SeriesRegistry::global();
  reg.set_capacity(8);
  const std::uint32_t sum_id =
      reg.register_series("t.ds_sum", SeriesKind::kU64, SeriesAgg::kSum);
  const std::uint32_t max_id =
      reg.register_series("t.ds_max", SeriesKind::kU64, SeriesAgg::kMax);
  const std::uint64_t rounds = 1000;
  std::uint64_t expect_total = 0, expect_peak = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    const std::uint64_t v = (r * 37) % 101;
    reg.record_u64(sum_id, r, v);
    reg.record_u64(max_id, r, v);
    expect_total += v;
    expect_peak = std::max(expect_peak, v);
  }
  const auto all = reg.snapshot();
  const SeriesSnapshot* sum_s = find(all, "t.ds_sum");
  const SeriesSnapshot* max_s = find(all, "t.ds_max");
  ASSERT_NE(sum_s, nullptr);
  ASSERT_NE(max_s, nullptr);
  // Memory stayed within capacity; stride is the smallest power of two that
  // fits the rounds into it.
  EXPECT_LE(sum_s->upoints.size(), 8U);
  EXPECT_EQ(sum_s->stride, 128U);
  EXPECT_EQ(sum_s->rounds, rounds);
  // Sum-of-windows and max-of-windows survive downsampling losslessly.
  EXPECT_EQ(std::accumulate(sum_s->upoints.begin(), sum_s->upoints.end(),
                            std::uint64_t{0}),
            expect_total);
  EXPECT_EQ(*std::max_element(max_s->upoints.begin(), max_s->upoints.end()),
            expect_peak);
  // Each window holds exactly the fold of its rounds.
  for (std::size_t i = 0; i < sum_s->upoints.size(); ++i) {
    std::uint64_t want = 0;
    for (std::uint64_t r = i * sum_s->stride;
         r < std::min(rounds, (i + 1) * sum_s->stride); ++r)
      want += (r * 37) % 101;
    EXPECT_EQ(sum_s->upoints[i], want) << "window " << i;
  }
}

TEST_F(TimeseriesTest, CapacityHasAFloorOfTwo) {
  auto& reg = SeriesRegistry::global();
  reg.set_capacity(0);
  EXPECT_EQ(reg.capacity(), 2U);
  const std::uint32_t id =
      reg.register_series("t.cap_floor", SeriesKind::kU64, SeriesAgg::kSum);
  for (std::uint64_t r = 0; r < 100; ++r) reg.record_u64(id, r, 1);
  const auto all = reg.snapshot();
  const SeriesSnapshot* s = find(all, "t.cap_floor");
  ASSERT_NE(s, nullptr);
  EXPECT_LE(s->upoints.size(), 2U);
  EXPECT_EQ(std::accumulate(s->upoints.begin(), s->upoints.end(),
                            std::uint64_t{0}),
            100U);
}

TEST_F(TimeseriesTest, CrossThreadMergeMatchesSingleThreadRun) {
  // The same (round, value) multiset recorded by 4 threads must merge to
  // the exact snapshot a single-thread run produces — the in-process
  // version of the TN_NUM_THREADS golden-dump fixtures.
  auto& reg = SeriesRegistry::global();
  reg.set_capacity(16);
  const std::uint32_t sum_id =
      reg.register_series("t.mt_sum", SeriesKind::kU64, SeriesAgg::kSum);
  const std::uint32_t max_id =
      reg.register_series("t.mt_max", SeriesKind::kU64, SeriesAgg::kMax);
  const std::uint64_t rounds = 500;
  const auto value = [](std::uint64_t r) { return (r * 13) % 97; };

  std::vector<std::thread> workers;
  for (unsigned w = 0; w < 4; ++w) {
    workers.emplace_back([&, w] {
      for (std::uint64_t r = w; r < rounds; r += 4) {
        reg.record_u64(sum_id, r, value(r));
        reg.record_u64(max_id, r, value(r));
      }
    });
  }
  for (std::thread& t : workers) t.join();
  const auto threaded = reg.snapshot();

  reg.reset();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    reg.record_u64(sum_id, r, value(r));
    reg.record_u64(max_id, r, value(r));
  }
  const auto single = reg.snapshot();

  for (const char* name : {"t.mt_sum", "t.mt_max"}) {
    const SeriesSnapshot* a = find(threaded, name);
    const SeriesSnapshot* b = find(single, name);
    ASSERT_NE(a, nullptr) << name;
    ASSERT_NE(b, nullptr) << name;
    EXPECT_EQ(a->stride, b->stride) << name;
    EXPECT_EQ(a->rounds, b->rounds) << name;
    EXPECT_EQ(a->upoints, b->upoints) << name;
  }
}

TEST_F(TimeseriesTest, F64SeriesRecordsAndSnapshots) {
  auto& reg = SeriesRegistry::global();
  const std::uint32_t id =
      reg.register_series("t.f64", SeriesKind::kF64, SeriesAgg::kSum);
  reg.record_f64(id, 0, 1.5);
  reg.record_f64(id, 1, 0.25);
  reg.record_f64(id, 1, 0.25);
  const auto all = reg.snapshot();
  const SeriesSnapshot* s = find(all, "t.f64");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, SeriesKind::kF64);
  EXPECT_EQ(s->fpoints, (std::vector<double>{1.5, 0.5}));
  EXPECT_TRUE(s->upoints.empty());
}

TEST_F(TimeseriesTest, ResetDropsSamplesButKeepsRegistrations) {
  auto& reg = SeriesRegistry::global();
  const std::uint32_t id =
      reg.register_series("t.reset", SeriesKind::kU64, SeriesAgg::kSum);
  reg.record_u64(id, 5, 9);
  reg.reset();
  const auto all = reg.snapshot();
  const SeriesSnapshot* s = find(all, "t.reset");
  ASSERT_NE(s, nullptr);  // registration survives
  EXPECT_EQ(s->rounds, 0U);
  EXPECT_TRUE(s->upoints.empty());
}

TEST_F(TimeseriesTest, MacrosRecordWhenEnabledAndHonourRecordingSwitch) {
  TN_OBS_SERIES_ADD("t.macro_add", 0, 4);
  TN_OBS_SERIES_MAX("t.macro_max", 0, 7);
  TN_OBS_SERIES_ADD_F64("t.macro_f64", 0, 2.5);
  set_recording(false);
  TN_OBS_SERIES_ADD("t.macro_add", 1, 100);
  set_recording(true);

  const auto all = SeriesRegistry::global().snapshot();
  const SeriesSnapshot* add_s = find(all, "t.macro_add");
  ASSERT_NE(add_s, nullptr);
  EXPECT_EQ(add_s->upoints, (std::vector<std::uint64_t>{4}));
  const SeriesSnapshot* max_s = find(all, "t.macro_max");
  ASSERT_NE(max_s, nullptr);
  EXPECT_EQ(max_s->upoints, (std::vector<std::uint64_t>{7}));
  const SeriesSnapshot* f_s = find(all, "t.macro_f64");
  ASSERT_NE(f_s, nullptr);
  EXPECT_EQ(f_s->fpoints, (std::vector<double>{2.5}));
}

TEST_F(TimeseriesTest, SnapshotIsSortedByName) {
  auto& reg = SeriesRegistry::global();
  reg.register_series("t.zzz", SeriesKind::kU64, SeriesAgg::kSum);
  reg.register_series("t.aaa", SeriesKind::kU64, SeriesAgg::kSum);
  const auto all = reg.snapshot();
  ASSERT_GE(all.size(), 2U);
  EXPECT_TRUE(std::is_sorted(all.begin(), all.end(),
                             [](const SeriesSnapshot& a,
                                const SeriesSnapshot& b) {
                               return a.name < b.name;
                             }));
}

}  // namespace
}  // namespace thetanet::obs
