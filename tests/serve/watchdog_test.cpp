// DriftWatchdog unit tests: the three soak invariants (flat memory,
// same-seed determinism, flat control-plane rate) tripped and not tripped.

#include "serve/watchdog.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "common/fnv.h"
#include "obs/metrics.h"

namespace thetanet::serve {
namespace {

class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { obs::MetricsRegistry::global().reset(); }
  void TearDown() override { obs::MetricsRegistry::global().reset(); }

  static WatchdogConfig config_for(const std::string& counter) {
    WatchdogConfig cfg;
    cfg.rate_counters = {counter};
    cfg.rate_slack_per_round = 0.0;  // tests control the rates exactly
    return cfg;
  }
};

TEST_F(WatchdogTest, QuietRunPassesAllChecks) {
  DriftWatchdog w(config_for("wd.flat"), 1000);
  const std::vector<std::uint64_t> sums = {7, 7, 7};
  for (std::uint64_t r = 100; r <= 1000; r += 100) {
    TN_OBS_COUNT("wd.flat", 500);  // 5/round, every window
    w.sample(r, 20.0, sums);
  }
  w.finish();
  EXPECT_FALSE(w.tripped()) << w.violations()[0];
}

TEST_F(WatchdogTest, RssBeyondEnvelopeTrips) {
  WatchdogConfig cfg = config_for("wd.rss");
  cfg.rss_allowance_mb = 4.0;
  cfg.rss_growth_frac = 0.10;
  DriftWatchdog w(cfg, 1000);
  const std::vector<std::uint64_t> sums = {1};
  w.sample(250, 40.0, sums);  // warm-up sample arms the envelope at 40 MiB
  w.sample(500, 43.0, sums);  // inside 40 + max(4, 4) = 44
  EXPECT_FALSE(w.tripped());
  w.sample(750, 80.0, sums);  // way outside
  ASSERT_TRUE(w.tripped());
  EXPECT_NE(w.violations()[0].find("flat-memory envelope"), std::string::npos);
  EXPECT_DOUBLE_EQ(w.warm_rss_mb(), 40.0);
}

TEST_F(WatchdogTest, RssGrowthInsideWarmupIsFree) {
  WatchdogConfig cfg = config_for("wd.warm");
  cfg.rss_allowance_mb = 1.0;
  cfg.rss_growth_frac = 0.0;
  DriftWatchdog w(cfg, 1000);
  const std::vector<std::uint64_t> sums = {1};
  w.sample(100, 10.0, sums);   // pre-warm-up: pool growth is expected
  w.sample(200, 90.0, sums);   // still pre-warm-up (warmup = 250 rounds)
  w.sample(300, 90.5, sums);   // arms at 90.5
  w.sample(1000, 91.0, sums);  // inside 90.5 + 1.0
  w.finish();
  EXPECT_FALSE(w.tripped()) << w.violations()[0];
}

TEST_F(WatchdogTest, ShardChecksumDivergenceNamesRoundAndShard) {
  DriftWatchdog w(config_for("wd.drift"), 1000);
  w.sample(250, 10.0, std::vector<std::uint64_t>{5, 5, 5});
  EXPECT_FALSE(w.tripped());
  w.sample(500, 10.0, std::vector<std::uint64_t>{5, 5, 9});
  ASSERT_TRUE(w.tripped());
  const std::string& v = w.violations()[0];
  EXPECT_NE(v.find("determinism drift at round 500"), std::string::npos) << v;
  EXPECT_NE(v.find("shard 2"), std::string::npos) << v;
  // Later divergent samples must not flood the list.
  w.sample(750, 10.0, std::vector<std::uint64_t>{5, 5, 9});
  EXPECT_EQ(w.violations().size(), 1u);
}

TEST_F(WatchdogTest, GrowingCounterRateTripsAtFinish) {
  DriftWatchdog w(config_for("wd.grow"), 1000);
  const std::vector<std::uint64_t> sums = {1};
  std::uint64_t add = 100;
  for (std::uint64_t r = 100; r <= 1000; r += 100) {
    TN_OBS_COUNT("wd.grow", add);
    add += 100;  // rate climbs every window: 1, 2, 3, ... per round
    w.sample(r, 10.0, sums);
  }
  EXPECT_FALSE(w.tripped());  // trend is judged at finish, not per sample
  w.finish();
  ASSERT_TRUE(w.tripped());
  EXPECT_NE(w.violations()[0].find("wd.grow rate grew"), std::string::npos)
      << w.violations()[0];
}

TEST_F(WatchdogTest, SlackForgivesNearSilentCounters) {
  WatchdogConfig cfg = config_for("wd.silent");
  cfg.rate_slack_per_round = 1.0;
  DriftWatchdog w(cfg, 1000);
  const std::vector<std::uint64_t> sums = {1};
  for (std::uint64_t r = 100; r <= 1000; r += 100) {
    // 0/round early, 0.5/round late: 8x relative growth but tiny absolute.
    if (r > 500) TN_OBS_COUNT("wd.silent", 50);
    w.sample(r, 10.0, sums);
  }
  w.finish();
  EXPECT_FALSE(w.tripped()) << w.violations()[0];
}

TEST_F(WatchdogTest, MissingCounterReadsZeroAndNeverTrips) {
  DriftWatchdog w(config_for("wd.never_registered"), 1000);
  const std::vector<std::uint64_t> sums = {1};
  for (std::uint64_t r = 100; r <= 1000; r += 100) w.sample(r, 10.0, sums);
  w.finish();
  EXPECT_FALSE(w.tripped());
}

TEST_F(WatchdogTest, FnvIsOrderSensitiveAndDeterministic) {
  tn::Fnv a, b, c;
  a.mix(1);
  a.mix(2);
  b.mix(1);
  b.mix(2);
  c.mix(2);
  c.mix(1);
  EXPECT_EQ(a.h, b.h);
  EXPECT_NE(a.h, c.h);
  tn::Fnv d, e;
  d.mix_double(0.5);
  e.mix_double(-0.5);
  EXPECT_NE(d.h, e.h);
}

}  // namespace
}  // namespace thetanet::serve
