#include "obs/timeseries.h"

#include <algorithm>
#include <memory>
#include <mutex>

#include "common/assert.h"

namespace thetanet::obs {

namespace {

constexpr std::size_t kDefaultCapacity = 512;

struct SeriesDesc {
  std::string name;
  SeriesKind kind;
  SeriesAgg agg;
};

template <typename T>
T fold(SeriesAgg agg, T a, T b) {
  return agg == SeriesAgg::kSum ? a + b : std::max(a, b);
}

/// One series' storage on one shard. pts[i] covers rounds
/// [i * stride, (i + 1) * stride); unrecorded windows hold the identity 0.
template <typename T>
struct Buf {
  std::uint64_t stride = 1;
  std::uint64_t rounds = 0;  ///< highest recorded round + 1
  std::vector<T> pts;

  void record(std::uint64_t round, T value, SeriesAgg agg, std::size_t cap) {
    while (round / stride >= cap) halve(agg);
    const std::size_t idx = static_cast<std::size_t>(round / stride);
    if (idx >= pts.size()) pts.resize(idx + 1, T{});
    pts[idx] = fold(agg, pts[idx], value);
    rounds = std::max(rounds, round + 1);
  }

  /// Double the stride: adjacent windows merge pairwise. Sum-of-window and
  /// max-of-window are preserved exactly, which is what makes downsampling
  /// invisible to the series' aggregate claims (total, peak).
  void halve(SeriesAgg agg) {
    std::vector<T> merged((pts.size() + 1) / 2, T{});
    for (std::size_t i = 0; i < pts.size(); ++i)
      merged[i / 2] = fold(agg, merged[i / 2], pts[i]);
    pts = std::move(merged);
    stride *= 2;
  }

  /// This buf's points re-windowed to `stride_out` (a multiple of stride).
  std::vector<T> at_stride(std::uint64_t stride_out, SeriesAgg agg) const {
    TN_ASSERT(stride_out % stride == 0);
    const std::uint64_t factor = stride_out / stride;
    std::vector<T> out(
        static_cast<std::size_t>((pts.size() + factor - 1) / factor), T{});
    for (std::size_t i = 0; i < pts.size(); ++i)
      out[i / factor] = fold(agg, out[i / factor], pts[i]);
    return out;
  }
};

/// Per-thread storage: one Buf per registered series, allocated on first
/// record. Guarded by a shard-local mutex — series record at per-round
/// granularity (not per item), so the uncontended lock is noise next to
/// the round's work, and it lets snapshots read live shards safely.
struct SeriesShard {
  std::mutex mu;
  std::vector<Buf<std::uint64_t>> ubufs;
  std::vector<Buf<double>> fbufs;
};

}  // namespace

struct SeriesRegistry::Impl {
  mutable std::mutex mu;
  std::vector<SeriesDesc> series;  // registration order; index == id
  std::size_t cap = kDefaultCapacity;
  // Creation (thread-registration) order, like MetricsRegistry's shards.
  std::vector<std::unique_ptr<SeriesShard>> shards;

  SeriesShard* create_shard() {
    std::lock_guard<std::mutex> lk(mu);
    shards.push_back(std::make_unique<SeriesShard>());
    return shards.back().get();
  }
};

SeriesRegistry::Impl& SeriesRegistry::impl() const {
  static Impl instance;
  return instance;
}

SeriesRegistry& SeriesRegistry::global() {
  static SeriesRegistry registry;
  return registry;
}

std::uint32_t SeriesRegistry::register_series(std::string_view name,
                                              SeriesKind kind, SeriesAgg agg) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (std::uint32_t id = 0; id < im.series.size(); ++id) {
    const SeriesDesc& d = im.series[id];
    if (d.name != name) continue;
    TN_ASSERT_MSG(d.kind == kind && d.agg == agg,
                  "series re-registered with a different kind or fold");
    return id;
  }
  im.series.push_back({std::string(name), kind, agg});
  return static_cast<std::uint32_t>(im.series.size() - 1);
}

namespace {

// The calling thread's shard, created on first record and owned by the
// registry so a finished thread's samples stay in the merge.
thread_local SeriesShard* t_shard = nullptr;

}  // namespace

void SeriesRegistry::record_u64(std::uint32_t id, std::uint64_t round,
                                std::uint64_t value) {
  Impl& im = impl();
  if (t_shard == nullptr) t_shard = im.create_shard();
  SeriesAgg agg;
  std::size_t cap;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    agg = im.series[id].agg;
    cap = im.cap;
  }
  std::lock_guard<std::mutex> lk(t_shard->mu);
  if (id >= t_shard->ubufs.size()) t_shard->ubufs.resize(id + 1);
  t_shard->ubufs[id].record(round, value, agg, cap);
}

void SeriesRegistry::record_f64(std::uint32_t id, std::uint64_t round,
                                double value) {
  Impl& im = impl();
  if (t_shard == nullptr) t_shard = im.create_shard();
  SeriesAgg agg;
  std::size_t cap;
  {
    std::lock_guard<std::mutex> lk(im.mu);
    agg = im.series[id].agg;
    cap = im.cap;
  }
  std::lock_guard<std::mutex> lk(t_shard->mu);
  if (id >= t_shard->fbufs.size()) t_shard->fbufs.resize(id + 1);
  t_shard->fbufs[id].record(round, value, agg, cap);
}

void SeriesRegistry::set_capacity(std::size_t points) {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  im.cap = std::max<std::size_t>(2, points);
}

std::size_t SeriesRegistry::capacity() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  return im.cap;
}

namespace {

/// Merge one series across shards: normalize every shard to the common
/// final stride (the smallest power of two fitting the global round count
/// into the capacity — the same stride a single-thread run would reach),
/// then fold pointwise. The result depends only on the recorded
/// (round, value) multiset, never on which shard holds which sample.
template <typename T>
void merge_series(const std::vector<std::unique_ptr<SeriesShard>>& shards,
                  std::uint32_t id, SeriesAgg agg, std::size_t cap,
                  std::vector<Buf<T>> SeriesShard::* member,
                  std::uint64_t& stride_out, std::uint64_t& rounds_out,
                  std::vector<T>& pts_out) {
  std::uint64_t rounds = 0;
  std::uint64_t stride = 1;
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lk(shard->mu);
    const auto& bufs = (*shard).*member;
    if (id >= bufs.size()) continue;
    rounds = std::max(rounds, bufs[id].rounds);
    stride = std::max(stride, bufs[id].stride);
  }
  if (rounds == 0) {
    stride_out = 1;
    rounds_out = 0;
    pts_out.clear();
    return;
  }
  while ((rounds - 1) / stride >= cap) stride *= 2;
  std::vector<T> merged(static_cast<std::size_t>((rounds - 1) / stride) + 1,
                        T{});
  for (const auto& shard : shards) {
    std::lock_guard<std::mutex> lk(shard->mu);
    const auto& bufs = (*shard).*member;
    if (id >= bufs.size() || bufs[id].rounds == 0) continue;
    const std::vector<T> norm = bufs[id].at_stride(stride, agg);
    for (std::size_t i = 0; i < norm.size(); ++i)
      merged[i] = fold(agg, merged[i], norm[i]);
  }
  stride_out = stride;
  rounds_out = rounds;
  pts_out = std::move(merged);
}

}  // namespace

std::vector<SeriesSnapshot> SeriesRegistry::snapshot() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  std::vector<SeriesSnapshot> out;
  out.reserve(im.series.size());
  for (std::uint32_t id = 0; id < im.series.size(); ++id) {
    const SeriesDesc& d = im.series[id];
    SeriesSnapshot s;
    s.name = d.name;
    s.agg = d.agg;
    s.kind = d.kind;
    if (d.kind == SeriesKind::kU64) {
      merge_series(im.shards, id, d.agg, im.cap, &SeriesShard::ubufs,
                   s.stride, s.rounds, s.upoints);
    } else {
      merge_series(im.shards, id, d.agg, im.cap, &SeriesShard::fbufs,
                   s.stride, s.rounds, s.fpoints);
    }
    out.push_back(std::move(s));
  }
  std::sort(out.begin(), out.end(),
            [](const SeriesSnapshot& a, const SeriesSnapshot& b) {
              return a.name < b.name;
            });
  return out;
}

void SeriesRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lk(im.mu);
  for (const auto& shard : im.shards) {
    std::lock_guard<std::mutex> slk(shard->mu);
    shard->ubufs.clear();
    shard->fbufs.clear();
  }
}

}  // namespace thetanet::obs
