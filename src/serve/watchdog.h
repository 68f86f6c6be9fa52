#pragma once
// In-process drift watchdog for long soak runs. Sampled once per snapshot
// interval, it guards the three invariants a healthy steady-state run must
// keep (ROADMAP item 5: "assert no memory or determinism drift"):
//
//   * flat memory — after a warm-up fraction of the run, peak RSS must stay
//     inside a fixed envelope above the warm-up figure (the same criterion
//     as bench_router's rss_flat, but checked continuously);
//   * determinism — same-seed replica shards stepped in lockstep must agree
//     on a rolling FNV-1a checksum of the planned-transmission stream at
//     every sample (the first divergent sample names the round);
//   * flat control plane — per-round rates of the configured counters
//     (router.control_messages / router.control_bytes by default) must not
//     grow over the run: the late-window mean rate is compared against the
//     early post-warm-up mean at finish(). The companion check — that the
//     *per-node* rate stays flat as n grows — spans multiple runs and lives
//     in tools/bench_compare.py's control_plane gate.
//
// The watchdog only observes: it never writes telemetry (RSS is
// nondeterministic and must stay out of the frame stream), and violations
// are collected rather than thrown so a soak can report all of them.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

namespace thetanet::serve {

/// Current peak RSS of the process in MiB (getrusage; monotone).
double peak_rss_mb();

struct WatchdogConfig {
  /// Flat-memory envelope: peak RSS may exceed the warm-up peak by at most
  /// max(rss_allowance_mb, rss_growth_frac * warm). Matches bench_router's
  /// rss_flat shape; the soak mutation test tightens allowance to make the
  /// planted leak trip fast.
  double rss_allowance_mb = 48.0;
  double rss_growth_frac = 0.10;

  /// Fraction of the run treated as warm-up: pool growth, stride doubling,
  /// and allocator steady-stating are all expected before this point.
  double warmup_frac = 0.25;

  /// Rate-growth tolerance: late mean per-round rate may exceed the early
  /// post-warm-up mean by at most this fraction (plus an absolute slack of
  /// rate_slack_per_round, so near-silent counters never trip).
  double rate_growth_tol = 0.25;
  double rate_slack_per_round = 1.0;

  /// Counters whose per-round rate must stay flat. Missing counters (e.g.
  /// control ledgers when the run uses the plain balancing router) read 0
  /// and never trip.
  std::vector<std::string> rate_counters = {"router.control_messages",
                                            "router.control_bytes"};
};

class DriftWatchdog {
 public:
  DriftWatchdog(WatchdogConfig cfg, std::uint64_t total_rounds);

  /// One sample at `rounds_done` completed rounds: process RSS, the current
  /// merged values of the configured rate counters, and the per-shard
  /// planned-tx checksums (all shards must agree). RSS and drift violations
  /// are detected immediately; rate trends are judged at finish().
  void sample(std::uint64_t rounds_done, double rss_mb,
              std::span<const std::uint64_t> shard_checksums);

  /// End-of-run checks (counter-rate growth). Call exactly once.
  void finish();

  bool tripped() const { return !violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }

  double warm_rss_mb() const { return warm_rss_mb_; }

 private:
  struct RateTrack {
    std::string counter;
    std::vector<double> window_rates;  ///< post-warm-up per-round rates
    std::uint64_t last_value = 0;
  };

  WatchdogConfig cfg_;
  std::uint64_t total_rounds_;
  std::uint64_t warmup_rounds_;
  std::uint64_t last_sample_round_ = 0;
  double warm_rss_mb_ = 0.0;
  bool rss_armed_ = false;
  bool rss_tripped_ = false;
  bool drift_tripped_ = false;
  std::vector<RateTrack> rates_;
  std::vector<std::string> violations_;
};

}  // namespace thetanet::serve
