#pragma once
// Measurement helpers of the stack benchmark: the per-layer probe that wraps
// each call into a ThetaNet layer, the planned-transmission checksum, and
// the process's peak resident memory.
//
// The probe has two modes. Untraced, every wrapper just calls through, so
// the run window measures the libraries and nothing else. Traced, each call
// opens an obs::Span named after its layer (the span tree supplies the
// per-layer wall time) and also stores that call's duration in ns, so the
// per-layer table can give p50 / p99 per call. Samples are kept in memory,
// one per call up to kMaxSamples per layer; past that the buffer keeps every
// other sample and halves its sampling rate, so memory stays bounded on
// windows of millions of rounds.

#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <span>
#include <vector>

#include "core/balancing_router.h"
#include "obs/span.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// Peak resident set size of this process image so far: VmHWM, which
/// (unlike ru_maxrss) starts afresh at exec and so excludes the launcher.
inline double peak_rss_mb() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0.0;
  char line[256];
  long kib = 0;
  while (std::fgets(line, sizeof line, f) != nullptr)
    if (std::sscanf(line, "VmHWM: %ld kB", &kib) == 1) break;
  std::fclose(f);
  return static_cast<double>(kib) / 1024.0;
}

/// Per-round layer calls, one sample vector each in traced mode.
enum Layer : std::size_t {
  kMacActivate,
  kMacResolve,
  kHoneycombSelect,
  kHoneycombResolve,
  kRouterPlan,
  kRouterExecute,
  kRouterInject,
  kRouterEndStep,
  kInjectionStep,
  kNumLayers,
};

inline constexpr std::array<const char*, kNumLayers> kLayerNames = {
    "mac.activate",     "mac.resolve",    "honeycomb.select",
    "honeycomb.resolve", "router.plan",   "router.execute",
    "router.inject",    "router.end_step", "injection.step",
};

/// Name of the span that encloses a traced run window.
inline constexpr const char* kWindowSpan = "window";
/// Name of the span that encloses a traced set-up.
inline constexpr const char* kSetupSpan = "setup";

class Probe {
 public:
  /// One set-up call: its span name and the peak-RSS growth across it.
  struct SetupRow {
    const char* name;
    double rss_mb;
  };

  explicit Probe(bool traced) : traced_(traced) {}

  /// Wrap one set-up call. Traced: a span plus the peak-RSS delta across
  /// the call; consecutive rows therefore tile the process's peak RSS.
  template <typename F>
  void setup(const char* name, F&& f) {
    if (!traced_) {
      f();
      return;
    }
    const double before = peak_rss_mb();
    {
      thetanet::obs::Span span(name);
      f();
    }
    setup_rows_.push_back({name, peak_rss_mb() - before});
  }

  /// Wrap one per-round layer call.
  template <typename F>
  void call(Layer layer, F&& f) {
    if (!traced_) {
      f();
      return;
    }
    thetanet::obs::Span span(kLayerNames[layer]);
    const Clock::time_point t0 = Clock::now();
    f();
    const auto ns = std::chrono::duration_cast<std::chrono::nanoseconds>(
                        Clock::now() - t0)
                        .count();
    record(layer, static_cast<std::uint64_t>(ns));
  }

  const std::vector<SetupRow>& setup_rows() const { return setup_rows_; }
  const std::vector<std::uint32_t>& samples(Layer layer) const {
    return layers_[layer].samples;
  }
  /// Sum of every call's ns (not just the kept samples).
  std::uint64_t total_ns(Layer layer) const { return layers_[layer].total_ns; }

 private:
  static constexpr std::size_t kMaxSamples = std::size_t{1} << 18;

  struct Samples {
    std::vector<std::uint32_t> samples;
    std::uint64_t total_ns = 0;
    std::uint64_t calls = 0;
    std::uint64_t stride = 1;  ///< keep one call in `stride`
  };

  void record(Layer layer, std::uint64_t ns) {
    Samples& s = layers_[layer];
    s.total_ns += ns;
    if (s.calls++ % s.stride != 0) return;
    s.samples.push_back(
        static_cast<std::uint32_t>(std::min<std::uint64_t>(ns, UINT32_MAX)));
    if (s.samples.size() == kMaxSamples) {
      for (std::size_t i = 0; i < kMaxSamples / 2; ++i)
        s.samples[i] = s.samples[2 * i];
      s.samples.resize(kMaxSamples / 2);
      s.stride *= 2;
    }
  }

  bool traced_;
  std::vector<SetupRow> setup_rows_;
  std::array<Samples, kNumLayers> layers_;
};

/// q-quantile (0..1) of a sample vector by nth_element; 0 when empty.
template <typename T>
double quantile(std::vector<T> v, double q) {
  if (v.empty()) return 0.0;
  const auto k =
      static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return static_cast<double>(v[k]);
}

/// FNV-1a over 64-bit words of the planned-transmission stream.
struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    h ^= x;
    h *= 1099511628211ull;
  }
  void mix_txs(std::span<const thetanet::core::PlannedTx> txs) {
    mix(txs.size());
    for (const thetanet::core::PlannedTx& tx : txs) {
      mix(tx.edge);
      mix(tx.from);
      mix(tx.to);
      mix(tx.dest);
      std::uint64_t bits = 0;
      std::memcpy(&bits, &tx.benefit, sizeof bits);
      mix(bits);
    }
  }
};

}  // namespace perfbench
