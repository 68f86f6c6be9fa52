#include "geom/rng.h"

#include <gtest/gtest.h>

#include <cmath>
#include <set>
#include <vector>

namespace thetanet::geom {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(42), b(42);
  for (int i = 0; i < 1000; ++i) ASSERT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1), b(2);
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (a() == b()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

TEST(Rng, ReseedRestartsTheStream) {
  Rng a(99);
  std::vector<std::uint64_t> first;
  for (int i = 0; i < 16; ++i) first.push_back(a());
  a.reseed(99);
  for (int i = 0; i < 16; ++i) ASSERT_EQ(a(), first[static_cast<std::size_t>(i)]);
}

TEST(Rng, UniformInUnitInterval) {
  Rng rng(3);
  double lo = 1.0, hi = 0.0, sum = 0.0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) {
    const double u = rng.uniform();
    ASSERT_GE(u, 0.0);
    ASSERT_LT(u, 1.0);
    lo = std::min(lo, u);
    hi = std::max(hi, u);
    sum += u;
  }
  EXPECT_LT(lo, 0.001);
  EXPECT_GT(hi, 0.999);
  EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, UniformRangeRespectsBounds) {
  Rng rng(4);
  for (int i = 0; i < 10000; ++i) {
    const double u = rng.uniform(-3.0, 7.0);
    ASSERT_GE(u, -3.0);
    ASSERT_LT(u, 7.0);
  }
}

TEST(Rng, UniformIndexCoversAllValues) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 1000; ++i) seen.insert(rng.uniform_index(7));
  EXPECT_EQ(seen.size(), 7U);
  EXPECT_EQ(*seen.begin(), 0U);
  EXPECT_EQ(*seen.rbegin(), 6U);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng rng(6);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 1000; ++i) {
    const std::int64_t v = rng.uniform_int(-2, 2);
    ASSERT_GE(v, -2);
    ASSERT_LE(v, 2);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 5U);
}

TEST(Rng, BernoulliFrequency) {
  Rng rng(7);
  int hits = 0;
  const int n = 100000;
  for (int i = 0; i < n; ++i) hits += rng.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / n, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerateProbabilities) {
  Rng rng(8);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(rng.bernoulli(0.0));
    EXPECT_TRUE(rng.bernoulli(1.0));
  }
}

// The uniform() value bernoulli() compares for the 53-bit draw k.
double as_uniform(std::uint64_t k) {
  return static_cast<double>(k) * 0x1.0p-53;
}

// bernoulli_below(bernoulli_cut(p)) must decide every draw as bernoulli(p)
// does; a draw can only disagree next to the cut, so check k = cut - 2 ..
// cut + 1. With floor in place of ceil the cut is one too low whenever
// p * 2^53 is not an integer, and k = cut then disagrees.
testing::AssertionResult cut_agrees(double p) {
  const std::uint64_t cut = Rng::bernoulli_cut(p);
  for (std::uint64_t k = cut < 2 ? 0 : cut - 2; k <= cut + 1; ++k) {
    if ((as_uniform(k) < p) != (k < cut))
      return testing::AssertionFailure()
             << "p=" << p << " cut=" << cut << " disagrees at k=" << k;
  }
  return testing::AssertionSuccess();
}

TEST(Rng, BernoulliCutMatchesTheDoubleCompare) {
  EXPECT_TRUE(cut_agrees(0.5));
  EXPECT_TRUE(cut_agrees(1.0));
  EXPECT_EQ(Rng::bernoulli_cut(0.5), std::uint64_t{1} << 52);
  EXPECT_EQ(Rng::bernoulli_cut(1.0), std::uint64_t{1} << 53);
  // The randomized MAC's 1/(2 I_e) for every bound up to 10^4.
  std::size_t fractional = 0;
  for (int i = 1; i <= 10000; ++i) {
    const double p = 1.0 / (2.0 * static_cast<double>(i));
    ASSERT_TRUE(cut_agrees(p)) << "I=" << i;
    if (std::ceil(p * 0x1.0p53) != std::floor(p * 0x1.0p53)) ++fractional;
  }
  // Most of them are no multiple of 2^-53, where floor and ceil differ.
  EXPECT_GT(fractional, 9000U);
  // p * 2^53 an integer: the draw equal to it must fail, the one below pass.
  for (const std::uint64_t m :
       {std::uint64_t{1}, std::uint64_t{2}, std::uint64_t{3},
        std::uint64_t{12345}, std::uint64_t{1} << 40,
        (std::uint64_t{1} << 53) - 1, (std::uint64_t{3} << 51)}) {
    const double p = as_uniform(m);
    EXPECT_EQ(Rng::bernoulli_cut(p), m);
    EXPECT_TRUE(cut_agrees(p));
  }
  Rng rng(10);
  for (int i = 0; i < 1000; ++i) {
    const std::uint64_t m = rng() >> 11;
    ASSERT_TRUE(cut_agrees(as_uniform(m)));
    ASSERT_TRUE(cut_agrees(rng.uniform() / 3.0));
  }
}

TEST(Rng, BernoulliCutDegenerateProbabilities) {
  EXPECT_EQ(Rng::bernoulli_cut(0.0), 0U);
  EXPECT_EQ(Rng::bernoulli_cut(-0.25), 0U);
  EXPECT_EQ(Rng::bernoulli_cut(std::nan("")), 0U);
  EXPECT_EQ(Rng::bernoulli_cut(2.0), std::uint64_t{1} << 53);
  EXPECT_EQ(Rng::bernoulli_cut(0x1.0p-60), 1U);  // only k = 0 succeeds
  EXPECT_TRUE(cut_agrees(0x1.0p-60));
  EXPECT_TRUE(cut_agrees(1.0 - 0x1.0p-54));
}

TEST(Rng, BernoulliBelowReplaysBernoulli) {
  for (const double p : {0.0, 1e-3, 0.1, 1.0 / 3.0, 0.5, 1.0}) {
    Rng a(11), b(11);
    const std::uint64_t cut = Rng::bernoulli_cut(p);
    for (int i = 0; i < 10000; ++i)
      ASSERT_EQ(a.bernoulli(p), b.bernoulli_below(cut)) << "p=" << p;
    EXPECT_EQ(a(), b());
  }
}

TEST(Rng, NormalMoments) {
  Rng rng(9);
  const int n = 200000;
  double sum = 0.0, sum_sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sum_sq += x * x;
  }
  const double mean = sum / n;
  const double var = sum_sq / n - mean * mean;
  EXPECT_NEAR(mean, 0.0, 0.02);
  EXPECT_NEAR(var, 1.0, 0.03);
}

TEST(Rng, NormalWithParameters) {
  Rng rng(10);
  const int n = 100000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0, 2.0);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(Rng, ForkProducesIndependentStream) {
  Rng parent(11);
  Rng child = parent.fork();
  // Child stream differs from the parent continuation.
  int equal = 0;
  for (int i = 0; i < 1000; ++i) equal += (parent() == child()) ? 1 : 0;
  EXPECT_LT(equal, 5);
}

}  // namespace
}  // namespace thetanet::geom
