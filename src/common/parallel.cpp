#include "common/parallel.h"

#include <atomic>
#include <condition_variable>
#include <cstdlib>
#include <exception>
#include <mutex>
#include <thread>

#include "common/assert.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace thetanet::tn {
namespace {

int parse_env_threads() {
  if (const char* s = std::getenv("TN_NUM_THREADS")) {
    char* end = nullptr;
    const long v = std::strtol(s, &end, 10);
    if (end != s && v >= 1) return static_cast<int>(v < 1024 ? v : 1024);
  }
  return hardware_threads();
}

// Each in-flight run() claims chunk indices from a shared atomic counter;
// the calling thread participates alongside the workers. Workers are spawned
// lazily on the first parallel run and persist for the process lifetime
// (resized upward if set_num_threads raises the count; surplus workers
// simply sit out jobs that need fewer).
class Pool {
 public:
  static Pool& instance() {
    static Pool pool;
    return pool;
  }

  int threads() {
    std::lock_guard<std::mutex> lk(mu_);
    return target_threads_;
  }

  void set_threads(int n) {
    TN_ASSERT_MSG(n >= 1, "thread count must be >= 1");
    std::lock_guard<std::mutex> lk(mu_);
    target_threads_ = n;
  }

  void run(std::size_t num_chunks, const std::function<void(std::size_t)>& fn) {
    if (num_chunks == 0) return;
    // One per dispatched loop, independent of the schedule.
    TN_OBS_COUNT("parallel.jobs", 1);
    int nthreads;
    {
      std::lock_guard<std::mutex> lk(mu_);
      nthreads = target_threads_;
    }
    // Serial fallback: one configured thread, a single chunk, or a nested
    // call from inside a chunk body (no nested pools — inner loops run
    // inline, which keeps the chunk schedule flat and deadlock-free).
    if (nthreads == 1 || num_chunks == 1 || in_run_) {
      for (std::size_t c = 0; c < num_chunks; ++c) fn(c);
      return;
    }

    // One job at a time: concurrent top-level callers take turns. (Nested
    // calls never reach here — the in_run_ check above runs them inline.)
    std::lock_guard<std::mutex> run_lk(run_mu_);
    {
      std::unique_lock<std::mutex> lk(mu_);
      const std::size_t want =
          static_cast<std::size_t>(nthreads) - 1;  // caller participates
      while (workers_.size() < want)
        workers_.emplace_back(&Pool::worker, this, job_id_);
      job_fn_ = &fn;
      job_chunks_ = num_chunks;
      // Hand the caller's span context to the workers so spans opened inside
      // chunk bodies nest under the dispatching phase, keeping the span-tree
      // structure identical for any thread count.
      job_span_ = obs::current_span();
      job_next_.store(0, std::memory_order_relaxed);
      job_err_ = nullptr;
      job_err_chunk_ = 0;
      job_participants_ = want < workers_.size() ? want : workers_.size();
      claimed_ = 0;
      workers_running_ = job_participants_;
      ++job_id_;
      cv_work_.notify_all();
    }

    work(fn, num_chunks);

    std::exception_ptr err;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_done_.wait(lk, [&] { return workers_running_ == 0; });
      job_fn_ = nullptr;
      err = job_err_;
    }
    if (err) std::rethrow_exception(err);
  }

  ~Pool() {
    {
      std::lock_guard<std::mutex> lk(mu_);
      shutdown_ = true;
      cv_work_.notify_all();
    }
    for (std::thread& t : workers_) t.join();
  }

 private:
  Pool() : target_threads_(parse_env_threads()) {}

  // Claim and execute chunks until the counter runs out. On an exception the
  // lowest failing chunk index wins (deterministic choice when several
  // chunks fail) and the counter is exhausted to cancel unstarted chunks.
  // Marks the thread as inside a chunk body for the whole loop — on workers
  // and caller alike — so nested parallel calls run inline instead of
  // blocking on the (held) dispatch lock.
  void work(const std::function<void(std::size_t)>& fn, std::size_t chunks) {
    struct InRunGuard {
      InRunGuard() { in_run_ = true; }
      ~InRunGuard() { in_run_ = false; }
    } guard;
    for (;;) {
      const std::size_t c = job_next_.fetch_add(1, std::memory_order_relaxed);
      if (c >= chunks) break;
      try {
        fn(c);
      } catch (...) {
        std::lock_guard<std::mutex> lk(mu_);
        if (!job_err_ || c < job_err_chunk_) {
          job_err_ = std::current_exception();
          job_err_chunk_ = c;
        }
        job_next_.store(chunks, std::memory_order_relaxed);
      }
    }
  }

  void worker(std::uint64_t seen) {
    for (;;) {
      const std::function<void(std::size_t)>* fn = nullptr;
      std::size_t chunks = 0;
      obs::SpanNode* span = nullptr;
      {
        std::unique_lock<std::mutex> lk(mu_);
        cv_work_.wait(lk, [&] { return shutdown_ || job_id_ != seen; });
        if (shutdown_) return;
        seen = job_id_;
        // A slot is claimed for good: claimed_ resets only at the next
        // dispatch, so a straggler waking after the job drained cannot
        // claim (and double-release) an already-finished job.
        if (claimed_ >= job_participants_) continue;  // job needs fewer hands
        ++claimed_;
        fn = job_fn_;
        chunks = job_chunks_;
        span = job_span_;
      }
      {
        obs::SpanContextScope span_scope(span);
        work(*fn, chunks);
      }
      {
        std::lock_guard<std::mutex> lk(mu_);
        if (--workers_running_ == 0) cv_done_.notify_all();
      }
    }
  }

  std::mutex run_mu_;  // serializes top-level run() invocations
  std::mutex mu_;
  std::condition_variable cv_work_;
  std::condition_variable cv_done_;
  std::vector<std::thread> workers_;
  int target_threads_;
  bool shutdown_ = false;

  // Current job (guarded by mu_ except the atomic chunk counter).
  std::uint64_t job_id_ = 0;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::size_t job_chunks_ = 0;
  obs::SpanNode* job_span_ = nullptr;  // dispatcher's span context
  std::size_t job_participants_ = 0;
  std::size_t claimed_ = 0;
  std::size_t workers_running_ = 0;
  std::atomic<std::size_t> job_next_{0};
  std::exception_ptr job_err_;
  std::size_t job_err_chunk_ = 0;

  // True while this thread is inside a chunk body (nested-call detection).
  static thread_local bool in_run_;
};

thread_local bool Pool::in_run_ = false;

}  // namespace

int hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : static_cast<int>(hw);
}

int num_threads() { return Pool::instance().threads(); }

void set_num_threads(int n) { Pool::instance().set_threads(n); }

namespace detail {

std::size_t resolve_grain(std::size_t n, std::size_t grain) {
  if (grain > 0) return grain;
  // About 32 chunks, from n alone: 8 per thread at 4 threads.
  const std::size_t g = n / 32;
  return g > 0 ? g : 1;
}

void run_chunks(std::size_t num_chunks,
                const std::function<void(std::size_t)>& chunk) {
  Pool::instance().run(num_chunks, chunk);
}

}  // namespace detail

}  // namespace thetanet::tn
