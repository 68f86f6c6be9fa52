#pragma once
// Shared deterministic parallel-execution layer. One threading model for the
// whole repo: a lazily-initialized persistent thread pool behind two
// primitives, `tn::parallel_for` and `tn::parallel_reduce`.
//
// Determinism contract
// --------------------
// The iteration space [0, n) is split into fixed chunks of `grain` indices.
// The chunking depends only on (n, grain) — never on the thread count — and
// reductions combine per-chunk partials sequentially in ascending chunk
// order on the calling thread. Therefore:
//
//   * parallel_for is bit-deterministic whenever distinct indices write to
//     disjoint state (the per-node / per-edge independence that all the
//     topology-construction kernels have);
//   * parallel_reduce is bit-deterministic unconditionally: the combine
//     order is the same as a serial left fold over the chunks, so even
//     non-associative floating-point accumulations give identical results
//     for any thread count, including 1.
//
// Thread count comes from the TN_NUM_THREADS environment variable (default
// std::thread::hardware_concurrency), overridable at runtime with
// set_num_threads. With 1 thread every chunk runs inline on the calling
// thread and the pool is never touched — a guaranteed serial fallback.
//
// Exceptions thrown by chunk bodies cancel the remaining chunks and are
// rethrown on the calling thread (the recorded exception is the one from
// the lowest-indexed chunk observed to fail).

#include <cstddef>
#include <functional>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace thetanet::tn {

/// Configured worker count (TN_NUM_THREADS env, default hardware
/// concurrency, overridable via set_num_threads). Always >= 1.
int num_threads();

/// Override the thread count for subsequent parallel calls (tests, benches,
/// tools). Must be >= 1. Not safe to call concurrently with a running
/// parallel_for/parallel_reduce.
void set_num_threads(int n);

/// std::thread::hardware_concurrency, clamped to >= 1.
int hardware_threads();

namespace detail {

/// Chunk size actually used: `grain` clamped to >= 1, or an automatic size
/// when grain == 0: n / 32 (at least 1), about 32 chunks whatever the
/// thread count.
std::size_t resolve_grain(std::size_t n, std::size_t grain);

/// Execute chunk(0) .. chunk(num_chunks - 1), each exactly once, across the
/// pool; blocks until all complete. Serial (inline, in ascending order) when
/// the configured thread count is 1, when num_chunks == 1, or when called
/// from inside another run_chunks (no nested parallelism).
void run_chunks(std::size_t num_chunks,
                const std::function<void(std::size_t)>& chunk);

}  // namespace detail

/// Run fn(begin, end) over disjoint subranges covering [0, n). fn may run
/// concurrently on pool threads; writes must be disjoint across indices for
/// a deterministic result (see contract above).
template <typename Fn>
void parallel_for(std::size_t n, std::size_t grain, Fn&& fn) {
  if (n == 0) return;
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * g;
    const std::size_t end = begin + g < n ? begin + g : n;
    fn(begin, end);
  });
}

/// Deterministic map/reduce over [0, n): map(begin, end) -> T per chunk,
/// then acc = combine(std::move(acc), std::move(partial)) left-folded over
/// the chunks in ascending order, starting from `identity`. The fold runs
/// on the calling thread, so combine needs no synchronization and the
/// result is bit-identical for any thread count. The caller folds the
/// finished prefix of chunks after each chunk it maps itself, and frees
/// each partial once folded: a serial run holds one partial at a time, a
/// parallel one roughly one per thread.
template <typename T, typename Map, typename Combine>
T parallel_reduce(std::size_t n, std::size_t grain, T identity, Map&& map,
                  Combine&& combine) {
  if (n == 0) return identity;
  const std::size_t g = detail::resolve_grain(n, grain);
  const std::size_t chunks = (n + g - 1) / g;
  // Default-constructed (not copied from identity): a slot holds a partial
  // only between its map() and its fold, and requiring only default-
  // construction + move lets partials hold move-only types.
  std::vector<T> partials(chunks);
  std::vector<unsigned char> ready(chunks, 0);  // guarded by mu
  std::mutex mu;
  T acc = std::move(identity);
  std::size_t folded = 0;  // chunks [0, folded) are in acc
  const std::thread::id caller = std::this_thread::get_id();
  const auto fold_ready = [&] {
    for (; folded < chunks; ++folded) {
      T part;
      {
        const std::lock_guard<std::mutex> lk(mu);
        if (ready[folded] == 0) return;
        part = std::move(partials[folded]);
        partials[folded] = T{};
      }
      acc = combine(std::move(acc), std::move(part));
    }
  };
  detail::run_chunks(chunks, [&](std::size_t c) {
    const std::size_t begin = c * g;
    const std::size_t end = begin + g < n ? begin + g : n;
    T part = map(begin, end);
    {
      const std::lock_guard<std::mutex> lk(mu);
      partials[c] = std::move(part);
      ready[c] = 1;
    }
    if (std::this_thread::get_id() == caller) fold_ready();
  });
  fold_ready();
  return acc;
}

}  // namespace thetanet::tn
