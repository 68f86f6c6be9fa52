#include "serve/watchdog.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <numeric>
#include <utility>

#include "obs/metrics.h"

namespace thetanet::serve {

double peak_rss_mb() {
  rusage u{};
  getrusage(RUSAGE_SELF, &u);
  return static_cast<double>(u.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

DriftWatchdog::DriftWatchdog(WatchdogConfig cfg, std::uint64_t total_rounds)
    : cfg_(std::move(cfg)), total_rounds_(total_rounds) {
  warmup_rounds_ = std::max<std::uint64_t>(
      1, static_cast<std::uint64_t>(cfg_.warmup_frac *
                                    static_cast<double>(total_rounds_)));
  for (const std::string& name : cfg_.rate_counters)
    rates_.push_back({name, {}, 0});
}

void DriftWatchdog::sample(std::uint64_t rounds_done, double rss_mb,
                           std::span<const std::uint64_t> shard_checksums) {
  // Determinism: every same-seed shard must report the same planned-tx
  // checksum. Report the first divergence only — one drifting shard would
  // otherwise flood the violation list at every later sample.
  if (!drift_tripped_) {
    for (std::size_t i = 1; i < shard_checksums.size(); ++i) {
      if (shard_checksums[i] != shard_checksums[0]) {
        drift_tripped_ = true;
        violations_.push_back(
            "determinism drift at round " + std::to_string(rounds_done) +
            ": shard " + std::to_string(i) + " checksum " +
            std::to_string(shard_checksums[i]) + " != shard 0 checksum " +
            std::to_string(shard_checksums[0]));
        break;
      }
    }
  }

  // Flat-memory envelope, armed at the first post-warm-up sample.
  if (!rss_armed_ && rounds_done >= warmup_rounds_) {
    rss_armed_ = true;
    warm_rss_mb_ = rss_mb;
  } else if (rss_armed_ && !rss_tripped_) {
    const double envelope =
        warm_rss_mb_ +
        std::max(cfg_.rss_allowance_mb, cfg_.rss_growth_frac * warm_rss_mb_);
    if (rss_mb > envelope) {
      rss_tripped_ = true;
      char line[160];
      std::snprintf(line, sizeof line,
                    "rss grew past the flat-memory envelope at round %llu: "
                    "%.1f MiB > %.1f MiB (warm %.1f MiB)",
                    static_cast<unsigned long long>(rounds_done), rss_mb,
                    envelope, warm_rss_mb_);
      violations_.push_back(line);
    }
  }

  // Counter rates: record the per-round rate of each configured counter over
  // the window since the previous sample; only post-warm-up windows feed the
  // trend check in finish().
  const std::uint64_t window =
      rounds_done > last_sample_round_ ? rounds_done - last_sample_round_ : 0;
  for (RateTrack& t : rates_) {
    const std::uint64_t value =
        obs::MetricsRegistry::global().counter_value(t.counter);
    if (window > 0 && last_sample_round_ >= warmup_rounds_)
      t.window_rates.push_back(static_cast<double>(value - t.last_value) /
                               static_cast<double>(window));
    t.last_value = value;
  }
  last_sample_round_ = rounds_done;
}

void DriftWatchdog::finish() {
  // A growing per-round rate at fixed n is the in-run half of the
  // flat-control-plane claim; compare the mean of the last half of the
  // post-warm-up windows against the first half.
  for (const RateTrack& t : rates_) {
    const std::size_t k = t.window_rates.size();
    if (k < 4) continue;  // too few windows for a trend
    const std::size_t half = k / 2;
    const double early =
        std::accumulate(t.window_rates.begin(),
                        t.window_rates.begin() + static_cast<long>(half),
                        0.0) /
        static_cast<double>(half);
    const double late =
        std::accumulate(t.window_rates.begin() + static_cast<long>(half),
                        t.window_rates.end(), 0.0) /
        static_cast<double>(k - half);
    const double bound =
        early * (1.0 + cfg_.rate_growth_tol) + cfg_.rate_slack_per_round;
    if (late > bound) {
      char line[200];
      std::snprintf(line, sizeof line,
                    "%s rate grew over the run: late mean %.2f/round > "
                    "%.2f/round (early mean %.2f, tol %.0f%%)",
                    t.counter.c_str(), late, bound, early,
                    cfg_.rate_growth_tol * 100.0);
      violations_.push_back(line);
    }
  }
}

}  // namespace thetanet::serve
