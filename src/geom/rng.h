#pragma once
// Deterministic random number generation. Every stochastic element of the
// library (node placement, randomized MAC coin flips, adversarial traces,
// Monte-Carlo repetitions) draws from this engine so that every experiment
// table is reproducible bit-for-bit from its seed. We implement the
// distributions ourselves because std::uniform_real_distribution et al. are
// implementation-defined and would break cross-platform reproducibility.

#include <array>
#include <cmath>
#include <cstdint>

#include "common/assert.h"

namespace thetanet::geom {

/// xoshiro256** by Blackman & Vigna, seeded via splitmix64. Satisfies
/// UniformRandomBitGenerator.
class Rng {
 public:
  using result_type = std::uint64_t;

  explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ULL) { reseed(seed); }

  void reseed(std::uint64_t seed) {
    // splitmix64 expansion of the seed into the 256-bit state.
    std::uint64_t x = seed;
    for (auto& s : state_) {
      x += 0x9e3779b97f4a7c15ULL;
      std::uint64_t z = x;
      z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
      z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
      s = z ^ (z >> 31);
    }
  }

  static constexpr result_type min() { return 0; }
  static constexpr result_type max() { return ~0ULL; }

  result_type operator()() {
    const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
    const std::uint64_t t = state_[1] << 17;
    state_[2] ^= state_[0];
    state_[3] ^= state_[1];
    state_[1] ^= state_[2];
    state_[0] ^= state_[3];
    state_[2] ^= t;
    state_[3] = rotl(state_[3], 45);
    return result;
  }

  /// Uniform double in [0, 1).
  double uniform() { return static_cast<double>((*this)() >> 11) * 0x1.0p-53; }

  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

  /// Uniform integer in [0, n) with rejection to avoid modulo bias.
  std::uint64_t uniform_index(std::uint64_t n) {
    TN_ASSERT(n > 0);
    const std::uint64_t threshold = (~n + 1) % n;  // = 2^64 mod n
    for (;;) {
      const std::uint64_t r = (*this)();
      if (r >= threshold) return r % n;
    }
  }

  /// Uniform integer in [lo, hi] inclusive.
  std::int64_t uniform_int(std::int64_t lo, std::int64_t hi) {
    TN_ASSERT(lo <= hi);
    return lo + static_cast<std::int64_t>(
                    uniform_index(static_cast<std::uint64_t>(hi - lo) + 1));
  }

  /// Bernoulli trial with success probability p.
  bool bernoulli(double p) { return uniform() < p; }

  /// The integer cut that lets bernoulli_below(cut) replay bernoulli(p)
  /// draw for draw. bernoulli compares k * 2^-53 < p for the 53-bit draw
  /// k = r >> 11. Scaling by 2^53 is exact, and k is an integer, so that is
  /// k < p * 2^53, which is k < ceil(p * 2^53). The cut is 0 for p <= 0 and
  /// for NaN (bernoulli never succeeds) and 2^53 for p >= 1 (it always does).
  static std::uint64_t bernoulli_cut(double p) {
    constexpr double kScale = 0x1.0p53;
    const double cut = std::ceil(p * kScale);
    if (!(cut > 0.0)) return 0;
    if (cut >= kScale) return std::uint64_t{1} << 53;
    return static_cast<std::uint64_t>(cut);
  }

  /// bernoulli(p) for cut = bernoulli_cut(p): the same draw and the same
  /// outcome, with one integer compare in place of the conversion.
  bool bernoulli_below(std::uint64_t cut) { return ((*this)() >> 11) < cut; }

  /// Standard normal via Marsaglia's polar method (deterministic, no std::).
  double normal() {
    if (have_spare_) {
      have_spare_ = false;
      return spare_;
    }
    double u, v, s;
    do {
      u = uniform(-1.0, 1.0);
      v = uniform(-1.0, 1.0);
      s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double m = std::sqrt(-2.0 * std::log(s) / s);
    spare_ = v * m;
    have_spare_ = true;
    return u * m;
  }

  double normal(double mean, double stddev) { return mean + stddev * normal(); }

  /// Derive an independent child stream (for per-trial / per-thread use).
  Rng fork() { return Rng((*this)() ^ 0xd1b54a32d192ed03ULL); }

 private:
  static constexpr std::uint64_t rotl(std::uint64_t v, int k) {
    return (v << k) | (v >> (64 - k));
  }

  std::array<std::uint64_t, 4> state_{};
  double spare_ = 0.0;
  bool have_spare_ = false;
};

}  // namespace thetanet::geom
