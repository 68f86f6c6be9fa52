#include "obs/span.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>

#include "obs/metrics.h"

namespace thetanet::obs {

// One node of the global span tree. Structure (children) is mutex-guarded —
// touched only when a name is first seen under a parent — while the hot
// per-open/per-close updates are owner-agnostic relaxed atomic adds (counts
// commute; wall time is timing-only so contention-order is irrelevant).
class SpanNode {
 public:
  SpanNode(std::string name, SpanNode* parent)
      : name_(std::move(name)), parent_(parent) {}

  SpanNode* parent() const { return parent_; }
  const std::string& name() const { return name_; }

  SpanNode* child(const char* name) {
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : children_)
      if (c->name() == name) return c.get();
    children_.push_back(std::make_unique<SpanNode>(name, this));
    return children_.back().get();
  }

  void open() { count_.fetch_add(1, std::memory_order_relaxed); }
  void close(std::uint64_t elapsed_ns) {
    wall_ns_.fetch_add(elapsed_ns, std::memory_order_relaxed);
  }

  SpanSnapshot snapshot() const {
    SpanSnapshot out;
    out.name = name_;
    out.count = count_.load(std::memory_order_relaxed);
    out.wall_ns = wall_ns_.load(std::memory_order_relaxed);
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : children_) out.children.push_back(c->snapshot());
    std::sort(out.children.begin(), out.children.end(),
              [](const SpanSnapshot& a, const SpanSnapshot& b) {
                return a.name < b.name;
              });
    return out;
  }

 private:
  const std::string name_;
  SpanNode* const parent_;
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> wall_ns_{0};
  mutable std::mutex mu_;
  std::vector<std::unique_ptr<SpanNode>> children_;
};

namespace {

// A synthetic root holding the top-level phases as children; never appears
// in snapshots itself. reset_spans() swaps in a fresh one.
struct Tree {
  std::mutex mu;
  std::unique_ptr<SpanNode> root = std::make_unique<SpanNode>("", nullptr);
};

Tree& tree() {
  static Tree t;
  return t;
}

SpanNode* root() {
  Tree& t = tree();
  std::lock_guard<std::mutex> lk(t.mu);
  return t.root.get();
}

thread_local SpanNode* t_current = nullptr;

// Bumped by reset_spans(): every thread's cached lookups from an older
// epoch point into a deleted tree.
std::atomic<std::uint64_t> g_epoch{1};

// The calling thread's recent (parent, name) -> child lookups, so that
// reopening a known span takes no mutex and compares no strings. Span names
// are string literals, so a name's address identifies it; a parent of
// nullptr stands for the root. Direct-mapped: a colliding lookup evicts.
struct ChildCache {
  struct Entry {
    const SpanNode* parent = nullptr;
    const char* name = nullptr;
    SpanNode* child = nullptr;
  };
  std::uint64_t epoch = 0;
  std::array<Entry, 64> entries{};
};

thread_local ChildCache t_children;

SpanNode* cached_child(SpanNode* parent, const char* name) {
  ChildCache& cache = t_children;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (cache.epoch != epoch) {
    cache.entries.fill({});
    cache.epoch = epoch;
  }
  const auto key = reinterpret_cast<std::uintptr_t>(parent) * 31 +
                   reinterpret_cast<std::uintptr_t>(name);
  ChildCache::Entry& e = cache.entries[(key >> 3) % cache.entries.size()];
  if (e.parent != parent || e.name != name)
    e = {parent, name, (parent != nullptr ? parent : root())->child(name)};
  return e.child;
}

}  // namespace

SpanNode* current_span() { return t_current; }

SpanContextScope::SpanContextScope(SpanNode* context) : prev_(t_current) {
  t_current = context;
}

SpanContextScope::~SpanContextScope() { t_current = prev_; }

Span::Span(const char* name) {
  if (!detail::recording()) return;
  node_ = cached_child(t_current, name);
  node_->open();
  prev_ = t_current;
  t_current = node_;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (node_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  node_->close(static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count()));
  t_current = prev_;
}

std::vector<SpanSnapshot> span_snapshot() {
  return root()->snapshot().children;
}

void reset_spans() {
  Tree& t = tree();
  std::lock_guard<std::mutex> lk(t.mu);
  t.root = std::make_unique<SpanNode>("", nullptr);
  g_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace thetanet::obs
