// Unit tests for the shared parallel-execution layer (common/parallel.h):
// range coverage, empty ranges, grain > n, serial fallback, fold order and
// partial lifetime, nesting, and exception propagation.

#include "common/parallel.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

namespace thetanet {
namespace {

// Restores the configured thread count after each test so the ambient
// TN_NUM_THREADS (e.g. the ctest TN_NUM_THREADS=4 registration) still
// governs the rest of the binary.
class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { saved_ = tn::num_threads(); }
  void TearDown() override { tn::set_num_threads(saved_); }
  int saved_ = 1;
};

TEST_F(ParallelTest, ThreadCountIsAtLeastOne) {
  EXPECT_GE(tn::num_threads(), 1);
  EXPECT_GE(tn::hardware_threads(), 1);
}

TEST_F(ParallelTest, ForCoversEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 7}) {
    tn::set_num_threads(threads);
    std::vector<std::atomic<int>> hits(1000);
    tn::parallel_for(hits.size(), 13, [&](std::size_t b, std::size_t e) {
      ASSERT_LE(b, e);
      ASSERT_LE(e, hits.size());
      for (std::size_t i = b; i < e; ++i) hits[i].fetch_add(1);
    });
    for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
  }
}

TEST_F(ParallelTest, ForEmptyRangeNeverInvokesBody) {
  for (const int threads : {1, 4}) {
    tn::set_num_threads(threads);
    bool called = false;
    tn::parallel_for(0, 8, [&](std::size_t, std::size_t) { called = true; });
    EXPECT_FALSE(called);
  }
}

TEST_F(ParallelTest, GrainLargerThanRangeIsOneChunk) {
  tn::set_num_threads(4);
  std::vector<std::pair<std::size_t, std::size_t>> chunks;
  tn::parallel_for(5, 1000, [&](std::size_t b, std::size_t e) {
    chunks.emplace_back(b, e);  // single chunk => no concurrent writers
  });
  ASSERT_EQ(chunks.size(), 1u);
  EXPECT_EQ(chunks[0], (std::pair<std::size_t, std::size_t>{0, 5}));
}

TEST_F(ParallelTest, OneThreadRunsInlineOnCaller) {
  tn::set_num_threads(1);
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::thread::id> seen;
  tn::parallel_for(100, 10, [&](std::size_t, std::size_t) {
    seen.push_back(std::this_thread::get_id());
  });
  ASSERT_EQ(seen.size(), 10u);
  for (const auto id : seen) EXPECT_EQ(id, caller);
}

TEST_F(ParallelTest, ReduceEmptyRangeReturnsIdentity) {
  tn::set_num_threads(4);
  const int r = tn::parallel_reduce(
      0, 8, 42, [](std::size_t, std::size_t) { return 7; },
      [](int a, int b) { return a + b; });
  EXPECT_EQ(r, 42);
}

TEST_F(ParallelTest, ReduceSumsMatchSerialForAnyThreadCount) {
  const std::size_t n = 12345;
  std::vector<std::uint64_t> values(n);
  std::iota(values.begin(), values.end(), 1);
  const std::uint64_t expected =
      std::accumulate(values.begin(), values.end(), std::uint64_t{0});
  for (const int threads : {1, 2, 3, 8}) {
    tn::set_num_threads(threads);
    const std::uint64_t sum = tn::parallel_reduce(
        n, 100, std::uint64_t{0},
        [&](std::size_t b, std::size_t e) {
          std::uint64_t s = 0;
          for (std::size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](std::uint64_t a, std::uint64_t b) { return a + b; });
    EXPECT_EQ(sum, expected) << "threads=" << threads;
  }
}

TEST_F(ParallelTest, AutoGrainFloatReduceBitIdenticalAcrossThreadCounts) {
  // Grain 0 picks the chunk size itself; the contract still says chunking
  // depends on (n, grain) alone. A float sum over values of mixed magnitude
  // is not associative, so any thread-dependent chunking shows in its bits.
  const std::size_t n = 10007;
  std::vector<double> values(n);
  for (std::size_t i = 0; i < n; ++i)
    values[i] = (static_cast<double>(i % 97) + 0.1) *
                std::ldexp(1.0, static_cast<int>(i % 61) - 30);
  std::vector<double> sums;
  for (const int threads : {1, 2, 3, 4, 7}) {
    tn::set_num_threads(threads);
    sums.push_back(tn::parallel_reduce(
        n, 0, 0.0,
        [&](std::size_t b, std::size_t e) {
          double s = 0.0;
          for (std::size_t i = b; i < e; ++i) s += values[i];
          return s;
        },
        [](double a, double b) { return a + b; }));
  }
  for (std::size_t k = 1; k < sums.size(); ++k)
    EXPECT_EQ(std::bit_cast<std::uint64_t>(sums[k]),
              std::bit_cast<std::uint64_t>(sums[0]))
        << "thread setting " << k;
}

TEST_F(ParallelTest, ReduceConcatenatesInChunkOrder) {
  // The determinism contract: partials combine in ascending chunk order,
  // so a concatenation yields exactly [0, n) for any thread count.
  for (const int threads : {1, 2, 7}) {
    tn::set_num_threads(threads);
    const std::vector<std::size_t> out = tn::parallel_reduce(
        1000, 7, std::vector<std::size_t>{},
        [](std::size_t b, std::size_t e) {
          std::vector<std::size_t> v;
          for (std::size_t i = b; i < e; ++i) v.push_back(i);
          return v;
        },
        [](std::vector<std::size_t> a, std::vector<std::size_t> b) {
          a.insert(a.end(), b.begin(), b.end());
          return a;
        });
    ASSERT_EQ(out.size(), 1000u);
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], i);
  }
}

TEST_F(ParallelTest, SerialReduceHoldsOnePartialAtATime) {
  // A partial is folded as soon as every earlier chunk's has been, so a
  // serial run never keeps a finished partial while the next chunk maps.
  // Each partial holds a copy of `token`: its use count counts them.
  tn::set_num_threads(1);
  const auto token = std::make_shared<int>(0);
  struct Part {
    std::shared_ptr<int> held;
    std::size_t sum = 0;
  };
  long most = 0;
  const Part total = tn::parallel_reduce(
      1000, 10, Part{},
      [&](std::size_t b, std::size_t e) {
        most = std::max(most, token.use_count());
        Part p{token, 0};
        for (std::size_t i = b; i < e; ++i) p.sum += i;
        return p;
      },
      [](Part acc, Part p) {
        acc.sum += p.sum;
        return acc;
      });
  EXPECT_EQ(total.sum, 999U * 1000U / 2U);
  EXPECT_EQ(most, 1);  // `token` alone: no partial outlived its fold
}

TEST_F(ParallelTest, ExceptionPropagatesToCaller) {
  for (const int threads : {1, 4}) {
    tn::set_num_threads(threads);
    EXPECT_THROW(
        tn::parallel_for(100, 5,
                         [&](std::size_t b, std::size_t) {
                           if (b >= 50) throw std::runtime_error("chunk boom");
                         }),
        std::runtime_error);
    // The pool must stay usable after an exception.
    std::atomic<std::size_t> count{0};
    tn::parallel_for(64, 8, [&](std::size_t b, std::size_t e) {
      count.fetch_add(e - b);
    });
    EXPECT_EQ(count.load(), 64u);
  }
}

TEST_F(ParallelTest, NestedCallsRunInlineWithoutDeadlock) {
  tn::set_num_threads(4);
  std::vector<std::atomic<int>> hits(64 * 64);
  tn::parallel_for(64, 4, [&](std::size_t ob, std::size_t oe) {
    for (std::size_t i = ob; i < oe; ++i) {
      tn::parallel_for(64, 4, [&](std::size_t ib, std::size_t ie) {
        for (std::size_t j = ib; j < ie; ++j) hits[i * 64 + j].fetch_add(1);
      });
    }
  });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

}  // namespace
}  // namespace thetanet
