#include "obs/metrics.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <thread>
#include <vector>

namespace thetanet::obs {
namespace {

class MetricsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_recording(true);
    MetricsRegistry::global().reset();
  }
};

const CounterSnapshot* find_counter(const MetricsSnapshot& s,
                                    std::string_view name) {
  for (const CounterSnapshot& c : s.counters)
    if (c.name == name) return &c;
  return nullptr;
}

const DistributionSnapshot* find_dist(const MetricsSnapshot& s,
                                      std::string_view name) {
  for (const DistributionSnapshot& d : s.distributions)
    if (d.name == name) return &d;
  return nullptr;
}
// The result points into `s`, so `s` must outlive it.
const DistributionSnapshot* find_dist(MetricsSnapshot&&,
                                      std::string_view) = delete;

TEST_F(MetricsTest, CounterAccumulatesAndResets) {
  const Counter c("test.counter_a");
  c.add();
  c.add(41);
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.counter_a"), 42U);
  MetricsRegistry::global().reset();
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.counter_a"), 0U);
}

TEST_F(MetricsTest, UnknownCounterReadsZero) {
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.never_registered"),
            0U);
}

TEST_F(MetricsTest, ReRegistrationSharesTheSlot) {
  const Counter a("test.shared");
  const Counter b("test.shared");
  a.add(1);
  b.add(2);
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.shared"), 3U);
}

TEST_F(MetricsTest, MacrosRecordIntoTheRegistry) {
  TN_OBS_COUNT("test.macro_counter", 5);
  TN_OBS_COUNT("test.macro_counter", 7);
  TN_OBS_RECORD("test.macro_dist", 3);
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  ASSERT_NE(find_counter(s, "test.macro_counter"), nullptr);
  EXPECT_EQ(find_counter(s, "test.macro_counter")->value, 12U);
  ASSERT_NE(find_dist(s, "test.macro_dist"), nullptr);
  EXPECT_EQ(find_dist(s, "test.macro_dist")->count, 1U);
}

TEST_F(MetricsTest, RecordingToggleGatesUpdates) {
  const Counter c("test.gated");
  set_recording(false);
  c.add(100);
  set_recording(true);
  c.add(1);
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.gated"), 1U);
}

TEST_F(MetricsTest, DistributionStatsAreExactForCountMinMaxSum) {
  const Distribution d("test.dist_exact");
  for (const std::uint64_t v : {5ull, 1ull, 9ull, 3ull}) d.record(v);
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const DistributionSnapshot* ds = find_dist(s, "test.dist_exact");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->count, 4U);
  EXPECT_EQ(ds->min, 1U);
  EXPECT_EQ(ds->max, 9U);
  EXPECT_EQ(ds->sum, 18U);
}

TEST_F(MetricsTest, EmptyDistributionReportsZeros) {
  const Distribution d("test.dist_empty");
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const DistributionSnapshot* ds = find_dist(s, "test.dist_empty");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->count, 0U);
  EXPECT_EQ(ds->min, 0U);
  EXPECT_EQ(ds->max, 0U);
  EXPECT_EQ(ds->p50, 0U);
  EXPECT_EQ(ds->p99, 0U);
}

TEST_F(MetricsTest, QuantilesAreBucketUpperBounds) {
  const Distribution d("test.dist_q");
  // 99 samples of 1 and one of 1000: p50 lands in the bit_width(1)=1 bucket
  // (upper bound 1); p99 has rank ceil(0.99*100)=99, still in the 1-bucket.
  for (int i = 0; i < 99; ++i) d.record(1);
  d.record(1000);
  MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const DistributionSnapshot* ds = find_dist(s, "test.dist_q");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->p50, 1U);
  EXPECT_EQ(ds->p99, 1U);
  EXPECT_EQ(ds->max, 1000U);

  // All mass on one value: every quantile reports that value's bucket
  // upper bound — for 1000 (bit_width 10) that is 1023.
  MetricsRegistry::global().reset();
  for (int i = 0; i < 10; ++i) d.record(1000);
  s = MetricsRegistry::global().snapshot();
  ds = find_dist(s, "test.dist_q");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->p50, 1023U);
  EXPECT_EQ(ds->p99, 1023U);
}

TEST_F(MetricsTest, ZeroValueSamplesLandInTheZeroBucket) {
  const Distribution d("test.dist_zero");
  d.record(0);
  d.record(0);
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const DistributionSnapshot* ds = find_dist(s, "test.dist_zero");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->min, 0U);
  EXPECT_EQ(ds->p50, 0U);
  EXPECT_EQ(ds->p99, 0U);
}

TEST_F(MetricsTest, SnapshotIsSortedByName) {
  const Counter b("test.sort_b");
  const Counter a("test.sort_a");
  b.add(1);
  a.add(1);
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  EXPECT_TRUE(std::is_sorted(
      s.counters.begin(), s.counters.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
  EXPECT_TRUE(std::is_sorted(
      s.distributions.begin(), s.distributions.end(),
      [](const auto& x, const auto& y) { return x.name < y.name; }));
}

TEST_F(MetricsTest, CrossThreadCountsMergeExactly) {
  const Counter c("test.cross_thread");
  const Distribution d("test.cross_thread_dist");
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        d.record(i % 7);
      }
    });
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(MetricsRegistry::global().counter_value("test.cross_thread"),
            kThreads * kPerThread);
  const MetricsSnapshot s = MetricsRegistry::global().snapshot();
  const DistributionSnapshot* ds = find_dist(s, "test.cross_thread_dist");
  ASSERT_NE(ds, nullptr);
  EXPECT_EQ(ds->count, kThreads * kPerThread);
}

}  // namespace
}  // namespace thetanet::obs
