#include "obs/metrics.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <mutex>

#include "common/assert.h"

namespace thetanet::obs {

namespace detail {

std::atomic<bool> g_recording{true};

Shard& local_shard() {
  thread_local Shard* shard = MetricsRegistry::global().create_shard();
  return *shard;
}

}  // namespace detail

void set_recording(bool on) {
  detail::g_recording.store(on, std::memory_order_relaxed);
}

namespace {

enum class Kind : std::uint8_t { kCounter, kDistribution };

struct MetricDesc {
  std::string name;
  Kind kind;
  std::uint32_t slot;  ///< index into the per-kind shard arrays
};

/// Deterministic quantile estimate: the upper bound of the power-of-two
/// bucket containing the rank-th sample (rank = ceil(q * count)). Exact for
/// values 0 and 1, bucket-resolution above.
std::uint64_t bucket_quantile(const std::uint64_t (&buckets)[detail::kNumBuckets],
                              std::uint64_t count, double q) {
  if (count == 0) return 0;
  const auto rank = static_cast<std::uint64_t>(
      std::max<double>(1.0, std::ceil(q * static_cast<double>(count))));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < detail::kNumBuckets; ++b) {
    seen += buckets[b];
    if (seen >= rank) {
      if (b == 0) return 0;
      if (b >= 64) return ~0ull;
      return (1ull << b) - 1;
    }
  }
  return ~0ull;  // unreachable when buckets sum to count
}

}  // namespace

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  std::vector<MetricDesc> metrics;          // registration order
  std::uint32_t num_counters = 0;
  std::uint32_t num_dists = 0;
  // Shards in creation (thread-registration) order; never removed, so a
  // finished thread's final values stay in the merge.
  std::vector<std::unique_ptr<detail::Shard>> shards;
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  static Impl instance;
  return instance;
}

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

detail::Shard* MetricsRegistry::create_shard() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  im.shards.push_back(std::make_unique<detail::Shard>());
  return im.shards.back().get();
}

namespace {

std::uint32_t register_metric(MetricsRegistry::Impl& im, std::string_view name,
                              Kind kind, std::uint32_t& next_slot,
                              std::size_t capacity) {
  std::lock_guard<std::mutex> lk(im.mu);
  for (const MetricDesc& m : im.metrics)
    if (m.name == name) {
      TN_ASSERT_MSG(m.kind == kind,
                    "metric re-registered with a different kind");
      return m.slot;
    }
  TN_ASSERT_MSG(next_slot < capacity, "telemetry metric capacity exhausted");
  im.metrics.push_back({std::string(name), kind, next_slot});
  return next_slot++;
}

}  // namespace

std::uint32_t MetricsRegistry::register_counter(std::string_view name) {
  Impl& im = impl();
  return register_metric(im, name, Kind::kCounter, im.num_counters,
                         detail::kMaxCounters);
}

std::uint32_t MetricsRegistry::register_distribution(std::string_view name) {
  Impl& im = impl();
  return register_metric(im, name, Kind::kDistribution, im.num_dists,
                         detail::kMaxDistributions);
}

std::uint64_t MetricsRegistry::counter_value(std::string_view name) const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (const MetricDesc& m : im.metrics) {
    if (m.kind != Kind::kCounter || m.name != name) continue;
    std::uint64_t total = 0;
    for (const auto& shard : im.shards)
      total += shard->counters[m.slot].load(std::memory_order_relaxed);
    return total;
  }
  return 0;
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  MetricsSnapshot out;
  for (const MetricDesc& m : im.metrics) {
    if (m.kind == Kind::kCounter) {
      std::uint64_t total = 0;
      for (const auto& shard : im.shards)
        total += shard->counters[m.slot].load(std::memory_order_relaxed);
      out.counters.push_back({m.name, total});
      continue;
    }
    // Distribution: merge shards in creation order (all integer folds, so
    // the order is immaterial to the value — it is fixed anyway).
    DistributionSnapshot d;
    d.name = m.name;
    std::uint64_t min = ~0ull;
    std::uint64_t buckets[detail::kNumBuckets] = {};
    for (const auto& shard : im.shards) {
      const detail::Shard::Dist& sd = shard->dists[m.slot];
      d.count += sd.count.load(std::memory_order_relaxed);
      d.sum += sd.sum.load(std::memory_order_relaxed);
      min = std::min(min, sd.min.load(std::memory_order_relaxed));
      d.max = std::max(d.max, sd.max.load(std::memory_order_relaxed));
      for (std::size_t b = 0; b < detail::kNumBuckets; ++b)
        buckets[b] += sd.buckets[b].load(std::memory_order_relaxed);
    }
    d.min = d.count == 0 ? 0 : min;
    d.p50 = bucket_quantile(buckets, d.count, 0.50);
    d.p99 = bucket_quantile(buckets, d.count, 0.99);
    out.distributions.push_back(d);
  }
  const auto by_name = [](const auto& a, const auto& b) {
    return a.name < b.name;
  };
  std::sort(out.counters.begin(), out.counters.end(), by_name);
  std::sort(out.distributions.begin(), out.distributions.end(), by_name);
  return out;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (const auto& shard : im.shards) {
    for (auto& c : shard->counters) c.store(0, std::memory_order_relaxed);
    for (auto& d : shard->dists) {
      d.count.store(0, std::memory_order_relaxed);
      d.sum.store(0, std::memory_order_relaxed);
      d.min.store(~0ull, std::memory_order_relaxed);
      d.max.store(0, std::memory_order_relaxed);
      for (auto& b : d.buckets) b.store(0, std::memory_order_relaxed);
    }
  }
}

Counter::Counter(std::string_view name)
    : id_(MetricsRegistry::global().register_counter(name)) {}

Distribution::Distribution(std::string_view name)
    : id_(MetricsRegistry::global().register_distribution(name)) {}

}  // namespace thetanet::obs
