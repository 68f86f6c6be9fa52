#pragma once
// Deterministic per-round time series: the dynamics companion to the
// endpoint counters of obs/metrics.h. A series is a named sequence of
// samples indexed by *round* (a simulation step, a maintenance move, a
// mobility tick — any caller-supplied monotone index), aggregated per round
// with a commutative fold (sum for event counts, max for gauges). Section 3
// of the paper makes statements about evolution across rounds under an
// adversary — the (T, gamma) gradient ramp, the Theorem 3.1 peak-buffer
// bound — and a series is exactly the artifact that makes those dynamics
// inspectable after the run.
//
// Determinism contract (same as MetricsRegistry):
//   * A sample is (round, value); the per-round fold is sum or max, both
//     commutative and associative, so the merged series cannot depend on
//     which thread recorded which sample or in what order.
//   * Each thread owns a private shard, registered in creation order and
//     merged in that order at snapshot time.
//   * Downsampling is a pure function of (capacity, highest round seen):
//     each retained point covers a window of `stride` consecutive rounds,
//     and when a round index would land past the capacity the stride
//     doubles and adjacent points merge pairwise. Sum-of-window and
//     max-of-window survive the merge losslessly, so e.g. the max over the
//     `router.peak_buffer` series equals RunMetrics::peak_buffer at ANY
//     downsampling level, and memory stays O(capacity) for million-round
//     runs.
//
// Values are u64 (counts, heights) or f64 (energies, displacements). f64
// series are deterministic for a fixed seed when recorded from one logical
// site per round — the repo's convention; see docs/observability.md.
//
// Instrumentation sites use the TN_OBS_SERIES_* macros below.

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace thetanet::obs {

/// Per-round fold applied to samples sharing a round, to window contents
/// under downsampling, and to the cross-shard merge. Both are commutative
/// with identity 0 (series values are non-negative by convention).
enum class SeriesAgg : std::uint8_t {
  kSum,  ///< event counts: injections, transmissions, deliveries
  kMax,  ///< gauges: buffer heights, queue depths
};

/// Sample type declared at registration.
enum class SeriesKind : std::uint8_t { kU64, kF64 };

/// Merged view of one series. points[i] aggregates rounds
/// [i * stride, (i + 1) * stride); exactly one of upoints/fpoints is
/// populated, by kind. rounds == highest recorded round + 1 (0: empty).
struct SeriesSnapshot {
  std::string name;
  SeriesAgg agg = SeriesAgg::kSum;
  SeriesKind kind = SeriesKind::kU64;
  std::uint64_t stride = 1;
  std::uint64_t rounds = 0;
  std::vector<std::uint64_t> upoints;
  std::vector<double> fpoints;
};

class SeriesRegistry {
 public:
  static SeriesRegistry& global();

  /// Register (or look up) a series. Re-registering an existing name
  /// returns the same id; kind/agg of the first registration win (a
  /// mismatch asserts — one name, one meaning).
  std::uint32_t register_series(std::string_view name, SeriesKind kind,
                                SeriesAgg agg);

  /// Fold `value` into `round` of the series on the calling thread's shard.
  void record_u64(std::uint32_t id, std::uint64_t round, std::uint64_t value);
  void record_f64(std::uint32_t id, std::uint64_t round, double value);

  /// Merge all shards (creation order) into per-series snapshots, sorted by
  /// name. Every shard is normalized to the common final stride first, so
  /// the result is a pure function of the recorded (round, value) multiset.
  std::vector<SeriesSnapshot> snapshot() const;

  /// Retained points per series before the stride doubles. Applies to
  /// samples recorded after the call; set it before the run (the stream
  /// and series tests shrink it to force stride growth). Minimum 2.
  void set_capacity(std::size_t points);
  std::size_t capacity() const;

  /// Drop all recorded samples (registrations survive). Only call between
  /// runs, like MetricsRegistry::reset().
  void reset();

 private:
  SeriesRegistry() = default;
  struct Impl;
  Impl& impl() const;
};

/// Cheap registered handle, typically a function-local static — the series
/// analogue of obs::Counter. Recording honours the global recording switch.
class Series {
 public:
  Series(std::string_view name, SeriesKind kind, SeriesAgg agg)
      : id_(SeriesRegistry::global().register_series(name, kind, agg)) {}

  void add(std::uint64_t round, std::uint64_t delta) const {
    if (!detail::recording()) return;
    SeriesRegistry::global().record_u64(id_, round, delta);
  }
  void max(std::uint64_t round, std::uint64_t value) const {
    if (!detail::recording()) return;
    SeriesRegistry::global().record_u64(id_, round, value);
  }
  void add_f64(std::uint64_t round, double value) const {
    if (!detail::recording()) return;
    SeriesRegistry::global().record_f64(id_, round, value);
  }

 private:
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Instrumentation macros.

/// Add `delta` to round `round` of the u64 sum-series `name`.
#define TN_OBS_SERIES_ADD(name, round, delta)                          \
  do {                                                                 \
    static const ::thetanet::obs::Series tn_obs_series_{               \
        name, ::thetanet::obs::SeriesKind::kU64,                       \
        ::thetanet::obs::SeriesAgg::kSum};                             \
    tn_obs_series_.add(static_cast<std::uint64_t>(round),              \
                       static_cast<std::uint64_t>(delta));             \
  } while (0)

/// Fold `value` into round `round` of the u64 max-series `name`.
#define TN_OBS_SERIES_MAX(name, round, value)                          \
  do {                                                                 \
    static const ::thetanet::obs::Series tn_obs_series_{               \
        name, ::thetanet::obs::SeriesKind::kU64,                       \
        ::thetanet::obs::SeriesAgg::kMax};                             \
    tn_obs_series_.max(static_cast<std::uint64_t>(round),              \
                       static_cast<std::uint64_t>(value));             \
  } while (0)

/// Add `value` to round `round` of the f64 sum-series `name`.
#define TN_OBS_SERIES_ADD_F64(name, round, value)                      \
  do {                                                                 \
    static const ::thetanet::obs::Series tn_obs_series_{               \
        name, ::thetanet::obs::SeriesKind::kF64,                       \
        ::thetanet::obs::SeriesAgg::kSum};                             \
    tn_obs_series_.add_f64(static_cast<std::uint64_t>(round),          \
                           static_cast<double>(value));                \
  } while (0)

}  // namespace thetanet::obs
