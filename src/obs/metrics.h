#pragma once
// Deterministic, thread-aware telemetry: a process-wide MetricsRegistry of
// named monotonic counters and value distributions. The design goal is the
// same bit-determinism contract the parallel layer gives kernels: for a
// deterministic workload, the merged telemetry values are identical for any
// TN_NUM_THREADS — so a telemetry dump can sit next to a conformance report
// in a byte-for-byte thread-diff test.
//
// How determinism is achieved
// ---------------------------
//   * Every metric value is an unsigned 64-bit integer (counts, not wall
//     time — wall time lives in obs::Span and never reaches the dump or the
//     stream). Integer addition commutes, so the merge over threads cannot
//     depend on scheduling.
//   * Each thread owns a private shard (plain relaxed atomics, written only
//     by the owner — no contention, no RMW). Shards are registered in
//     creation order and merged in that order at snapshot time.
//   * Every registered metric promises a thread-count-invariant value
//     (per-item counts accumulated under the parallel layer's fixed
//     chunking), so every one of them is in the dump and the stream.
//     Scheduling-dependent quantities (chunks per thread, steals) are not
//     recorded at all.
//
// Distributions use fixed power-of-two buckets (bucket = bit_width(value)),
// exposing count/min/max/sum plus p50/p99 estimated as the upper bound of
// the bucket holding the quantile rank — all integers, all deterministic.
//
// Instrumentation sites use the TN_OBS_* macros below; with recording off
// (obs::set_recording(false)) every one of them returns before touching a
// shard.

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace thetanet::obs {

namespace detail {

// Fixed shard capacities: registration asserts against them. Generous for
// the repo's catalogue (see docs/observability.md) without making shards
// large enough to matter (one shard is ~40 KiB).
inline constexpr std::size_t kMaxCounters = 256;
inline constexpr std::size_t kMaxDistributions = 64;
// Bucket index is bit_width(value): 0 for 0, else 1..64.
inline constexpr std::size_t kNumBuckets = 65;

/// Per-thread metric storage. Written only by the owning thread (relaxed
/// load+store, no RMW); read by snapshotting threads with relaxed loads.
struct Shard {
  std::array<std::atomic<std::uint64_t>, kMaxCounters> counters{};
  struct Dist {
    std::atomic<std::uint64_t> count{0};
    std::atomic<std::uint64_t> sum{0};
    std::atomic<std::uint64_t> min{~0ull};
    std::atomic<std::uint64_t> max{0};
    std::array<std::atomic<std::uint64_t>, kNumBuckets> buckets{};
  };
  std::array<Dist, kMaxDistributions> dists{};

  void add(std::uint32_t id, std::uint64_t delta) {
    auto& c = counters[id];
    c.store(c.load(std::memory_order_relaxed) + delta,
            std::memory_order_relaxed);
  }
  void record(std::uint32_t id, std::uint64_t value) {
    Dist& d = dists[id];
    const auto bump = [](std::atomic<std::uint64_t>& a, std::uint64_t by) {
      a.store(a.load(std::memory_order_relaxed) + by,
              std::memory_order_relaxed);
    };
    bump(d.count, 1);
    bump(d.sum, value);
    if (value < d.min.load(std::memory_order_relaxed))
      d.min.store(value, std::memory_order_relaxed);
    if (value > d.max.load(std::memory_order_relaxed))
      d.max.store(value, std::memory_order_relaxed);
    bump(d.buckets[static_cast<std::size_t>(std::bit_width(value))], 1);
  }
};

/// The calling thread's shard, registered with the global registry on first
/// use (shards persist for the process lifetime; a thread that exits leaves
/// its final values behind for the merge).
Shard& local_shard();

/// Global recording switch (on at start; togglable at runtime for overhead
/// measurement). Checked on every record.
extern std::atomic<bool> g_recording;
inline bool recording() {
  return g_recording.load(std::memory_order_relaxed);
}

}  // namespace detail

/// Enable/disable metric recording at runtime (spans and series honour it
/// too). With recording off every instrumented site early-returns, which is
/// what the telemetry overhead bench compares against.
void set_recording(bool on);

/// A registered monotonic counter. Construction registers (or looks up) the
/// name; instances are cheap handles and typically function-local statics —
/// see TN_OBS_COUNT.
class Counter {
 public:
  explicit Counter(std::string_view name);
  void add(std::uint64_t delta = 1) const {
    if (!detail::recording()) return;
    detail::local_shard().add(id_, delta);
  }

 private:
  std::uint32_t id_;
};

/// A registered value distribution (u64 samples into power-of-two buckets).
class Distribution {
 public:
  explicit Distribution(std::string_view name);
  void record(std::uint64_t value) const {
    if (!detail::recording()) return;
    detail::local_shard().record(id_, value);
  }

 private:
  std::uint32_t id_;
};

// ---------------------------------------------------------------------------
// Snapshot types (plain data; also constructible by tests and sinks).

struct CounterSnapshot {
  std::string name;
  std::uint64_t value = 0;
};

struct DistributionSnapshot {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t min = 0;  ///< 0 when count == 0
  std::uint64_t max = 0;
  std::uint64_t sum = 0;
  std::uint64_t p50 = 0;  ///< bucket-resolution upper-bound estimate
  std::uint64_t p99 = 0;
};

struct MetricsSnapshot {
  std::vector<CounterSnapshot> counters;            ///< sorted by name
  std::vector<DistributionSnapshot> distributions;  ///< sorted by name
};

class MetricsRegistry {
 public:
  static MetricsRegistry& global();

  /// Register (or look up) a metric. Re-registering an existing name
  /// returns the same id. Asserts when the shard capacity is exhausted.
  std::uint32_t register_counter(std::string_view name);
  std::uint32_t register_distribution(std::string_view name);

  /// Merged value of one counter (0 when the name was never registered).
  std::uint64_t counter_value(std::string_view name) const;

  /// Merge all shards in creation (thread-registration) order into one
  /// snapshot, sorted by metric name.
  MetricsSnapshot snapshot() const;

  /// Zero every shard (counters, distributions). Only call while no other
  /// thread is recording — between runs, not during them.
  void reset();

  // Internal: called by detail::local_shard on a thread's first record.
  detail::Shard* create_shard();

  struct Impl;  // defined in metrics.cpp; the public name keeps it reachable
                // from the implementation's file-local helpers

 private:
  MetricsRegistry() = default;
  Impl& impl() const;
};

// ---------------------------------------------------------------------------
// Instrumentation macros.

/// Add `delta` to the counter `name` (a string literal).
#define TN_OBS_COUNT(name, delta)                                 \
  do {                                                            \
    static const ::thetanet::obs::Counter tn_obs_counter_{name};  \
    tn_obs_counter_.add(static_cast<std::uint64_t>(delta));       \
  } while (0)

/// Record one sample into the distribution `name`.
#define TN_OBS_RECORD(name, value)                                \
  do {                                                            \
    static const ::thetanet::obs::Distribution tn_obs_dist_{name}; \
    tn_obs_dist_.record(static_cast<std::uint64_t>(value));       \
  } while (0)

}  // namespace thetanet::obs
