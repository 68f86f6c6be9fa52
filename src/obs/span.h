#pragma once
// RAII phase timers forming a process-wide span tree, e.g.
//
//   theta.build
//   ├─ theta.phase1
//   │  └─ grid.build
//   └─ theta.phase2
//
// A Span opened while another is active on the same logical task becomes its
// child; nodes are keyed by (parent, name), so repeated executions of the
// same phase aggregate into one node (count + total wall time). Wall time is
// inherently nondeterministic and is therefore excluded from deterministic
// telemetry dumps; the tree *structure* and the per-node open counts are
// deterministic for a deterministic workload and are included.
//
// Thread-awareness: the current span is thread-local, and the parallel pool
// propagates the dispatching thread's span context to its workers for the
// duration of a job (SpanContextScope), so spans opened inside parallel
// chunks attach under the caller's phase instead of starting parentless
// per-worker trees. Do not open spans *per chunk* when the grain is
// automatic — chunk counts depend on the thread count, which would break
// the deterministic open counts. Per call site is the intended granularity.

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace thetanet::obs {

class SpanNode;  // opaque outside span.cpp
namespace detail {
struct SpanCacheEntry;  // a thread's cached lookup, opaque outside span.cpp
}

/// Aggregated view of one span-tree node.
struct SpanSnapshot {
  std::string name;
  std::uint64_t count = 0;    ///< times a Span opened this node
  std::uint64_t wall_ns = 0;  ///< total closed-span wall time
  std::vector<SpanSnapshot> children;  ///< sorted by name
};

/// Roots of the span tree (sorted by name). Counts and structure are
/// deterministic; wall_ns is not, and no sink writes it (perfbench reads it
/// here). Each thread holds its recent opens and wall time in its own
/// lookup cache until the entry is evicted or the thread exits; the
/// snapshot adds every cache's share, so counts are exact whenever no span
/// opens or closes while it runs (between pool jobs, for instance).
std::vector<SpanSnapshot> span_snapshot();

/// Delete the whole span tree. Only call while no Span is alive anywhere
/// (between runs); live spans would be left dangling otherwise.
void reset_spans();

/// The calling thread's innermost open span (nullptr at root). Opaque;
/// meant for SpanContextScope hand-off across the pool boundary.
SpanNode* current_span();

/// Install a foreign span context on this thread for the current scope —
/// the pool wraps each job's chunk loop in one of these so worker-side
/// spans nest under the dispatcher's phase.
class SpanContextScope {
 public:
  explicit SpanContextScope(SpanNode* context);
  ~SpanContextScope();
  SpanContextScope(const SpanContextScope&) = delete;
  SpanContextScope& operator=(const SpanContextScope&) = delete;

 private:
  SpanNode* prev_;
};

/// RAII span: opening finds/creates the child node of the current span with
/// this name, bumps its count, and makes it current; closing adds the
/// elapsed wall time and restores the parent. When recording is disabled
/// (obs::set_recording(false)) construction is a no-op. `name` must be a
/// string literal (or another string that never changes): each thread
/// caches its lookups by the name's address.
class Span {
 public:
  explicit Span(const char* name);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  SpanNode* node_ = nullptr;  ///< nullptr when recording was off at open
  detail::SpanCacheEntry* entry_ = nullptr;  ///< holds the pending totals
  SpanNode* prev_ = nullptr;
  std::chrono::steady_clock::time_point start_{};
};

#define TN_OBS_SPAN_CAT2(a, b) a##b
#define TN_OBS_SPAN_CAT(a, b) TN_OBS_SPAN_CAT2(a, b)
/// Open a span for the rest of the enclosing scope.
#define TN_OBS_SPAN(name) \
  ::thetanet::obs::Span TN_OBS_SPAN_CAT(tn_obs_span_, __LINE__) { name }

}  // namespace thetanet::obs
