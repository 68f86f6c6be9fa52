#include "obs/span.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "obs/metrics.h"

namespace thetanet::obs {

// One node of the global span tree. Structure (children) is mutex-guarded —
// touched only when a name is first seen under a parent. Opens and wall
// time mostly accumulate in the per-thread lookup caches below and reach the
// node's relaxed atomic totals when a cache entry is evicted or its thread
// exits (counts commute; wall time is timing-only so contention order is
// irrelevant); a snapshot adds what the caches still hold.
class SpanNode {
 public:
  // Opens and wall time not yet added to a node, keyed by node.
  using Pending =
      std::unordered_map<const SpanNode*,
                         std::pair<std::uint64_t, std::uint64_t>>;

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

  void add(std::uint64_t opens, std::uint64_t wall_ns) {
    if (opens != 0) count_.fetch_add(opens, std::memory_order_relaxed);
    if (wall_ns != 0) wall_ns_.fetch_add(wall_ns, std::memory_order_relaxed);
  }

  SpanSnapshot snapshot(const Pending& pending) const {
    SpanSnapshot out;
    out.name = name_;
    out.count = count_.load(std::memory_order_relaxed);
    out.wall_ns = wall_ns_.load(std::memory_order_relaxed);
    if (const auto it = pending.find(this); it != pending.end()) {
      out.count += it->second.first;
      out.wall_ns += it->second.second;
    }
    std::lock_guard<std::mutex> lk(mu_);
    for (const auto& c : children_)
      out.children.push_back(c->snapshot(pending));
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

namespace detail {

// One slot of a thread's lookup cache (see ChildCache). parent and name are
// read only by the owning thread; child and the pending opens and wall time
// are also read by span_snapshot(), so they are atomics, but only the owner
// writes them — with plain relaxed stores, no lock-prefixed add.
struct SpanCacheEntry {
  const SpanNode* parent = nullptr;
  const char* name = nullptr;
  std::atomic<SpanNode*> child{nullptr};
  std::atomic<std::uint64_t> opens{0};
  std::atomic<std::uint64_t> wall_ns{0};

  static void bump(std::atomic<std::uint64_t>& a, std::uint64_t d) {
    a.store(a.load(std::memory_order_relaxed) + d, std::memory_order_relaxed);
  }
  // Move the pending totals into the child node.
  void flush() {
    if (SpanNode* c = child.load(std::memory_order_relaxed)) {
      c->add(opens.load(std::memory_order_relaxed),
             wall_ns.load(std::memory_order_relaxed));
    }
    drop();
  }
  void drop() {
    opens.store(0, std::memory_order_relaxed);
    wall_ns.store(0, std::memory_order_relaxed);
  }
};

}  // namespace detail

namespace {

// A synthetic root holding the top-level phases as children; never appears
// in snapshots itself. reset_spans() swaps in a fresh one. Never destroyed:
// pool workers flush their caches into it when they exit, which may be
// after static destruction began.
struct Tree {
  std::mutex mu;
  std::unique_ptr<SpanNode> root = std::make_unique<SpanNode>("", nullptr);
};

Tree& tree() {
  static Tree* t = new Tree;
  return *t;
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
// Each entry also holds the opens and closed wall time this thread recorded
// for its child since the entry was filled: they reach the node when the
// entry is evicted or the thread exits, are dropped with the old tree on a
// reset, and span_snapshot() adds what is still pending.
struct ChildCache {
  std::atomic<std::uint64_t> epoch{0};  // written by the owner only
  bool registered = false;
  std::array<detail::SpanCacheEntry, 64> entries{};
};

thread_local ChildCache t_children;

// Every thread's cache, for span_snapshot(). A thread's cache joins on its
// first lookup and leaves, flushed, when the thread exits.
struct CacheRegistry {
  std::mutex mu;
  std::vector<ChildCache*> caches;
};

CacheRegistry& registry() {
  static CacheRegistry* r = new CacheRegistry;  // outlives exiting workers
  return *r;
}

// Unregisters the thread's cache at thread exit. Separate from ChildCache so
// that the cache itself stays trivially destructible: its accesses on the
// span hot path then need no thread_local initialisation check.
struct CacheOwner {
  ChildCache* cache = nullptr;
  ~CacheOwner() {
    if (cache == nullptr) return;
    CacheRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    if (cache->epoch.load(std::memory_order_relaxed) ==
        g_epoch.load(std::memory_order_acquire))
      for (detail::SpanCacheEntry& e : cache->entries) e.flush();
    std::erase(r.caches, cache);
  }
};

thread_local CacheOwner t_owner;

// The slow paths of cached_entry, kept out of line so that a hit (the span
// hot path) needs no stack frame of its own.
[[gnu::noinline]] void start_epoch(ChildCache& cache, std::uint64_t epoch) {
  if (!cache.registered) {
    CacheRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    r.caches.push_back(&cache);
    cache.registered = true;
    t_owner.cache = &cache;
  }
  // The pending totals belong to the deleted tree: drop them.
  for (detail::SpanCacheEntry& e : cache.entries) {
    e.parent = nullptr;
    e.name = nullptr;
    e.child.store(nullptr, std::memory_order_relaxed);
    e.drop();
  }
  cache.epoch.store(epoch, std::memory_order_relaxed);
}

[[gnu::noinline]] void refill(detail::SpanCacheEntry& e, SpanNode* parent,
                              const char* name) {
  SpanNode* const child = (parent != nullptr ? parent : root())->child(name);
  e.flush();
  e.parent = parent;
  e.name = name;
  e.child.store(child, std::memory_order_relaxed);
}

detail::SpanCacheEntry& cached_entry(SpanNode* parent, const char* name) {
  ChildCache& cache = t_children;
  const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
  if (cache.epoch.load(std::memory_order_relaxed) != epoch) [[unlikely]]
    start_epoch(cache, epoch);
  const auto key = reinterpret_cast<std::uintptr_t>(parent) * 31 +
                   reinterpret_cast<std::uintptr_t>(name);
  detail::SpanCacheEntry& e = cache.entries[(key >> 3) % cache.entries.size()];
  if (e.parent != parent || e.name != name) [[unlikely]]
    refill(e, parent, name);
  return e;
}

}  // namespace

SpanNode* current_span() { return t_current; }

SpanContextScope::SpanContextScope(SpanNode* context) : prev_(t_current) {
  t_current = context;
}

SpanContextScope::~SpanContextScope() { t_current = prev_; }

Span::Span(const char* name) {
  if (!detail::recording()) return;
  detail::SpanCacheEntry& e = cached_entry(t_current, name);
  entry_ = &e;
  node_ = e.child.load(std::memory_order_relaxed);
  detail::SpanCacheEntry::bump(e.opens, 1);
  prev_ = t_current;
  t_current = node_;
  start_ = std::chrono::steady_clock::now();
}

Span::~Span() {
  if (node_ == nullptr) return;
  const auto elapsed = std::chrono::steady_clock::now() - start_;
  const auto ns = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed).count());
  // A span nested inside this one may have evicted its cache entry (and
  // flushed its open into the node): then the time goes to the node.
  if (entry_->child.load(std::memory_order_relaxed) == node_)
    detail::SpanCacheEntry::bump(entry_->wall_ns, ns);
  else
    node_->add(0, ns);
  t_current = prev_;
}

std::vector<SpanSnapshot> span_snapshot() {
  SpanNode::Pending pending;
  {
    CacheRegistry& r = registry();
    std::lock_guard<std::mutex> lk(r.mu);
    const std::uint64_t epoch = g_epoch.load(std::memory_order_acquire);
    for (const ChildCache* cache : r.caches) {
      if (cache->epoch.load(std::memory_order_relaxed) != epoch) continue;
      for (const detail::SpanCacheEntry& e : cache->entries) {
        const SpanNode* child = e.child.load(std::memory_order_relaxed);
        if (child == nullptr) continue;
        auto& [opens, wall_ns] = pending[child];
        opens += e.opens.load(std::memory_order_relaxed);
        wall_ns += e.wall_ns.load(std::memory_order_relaxed);
      }
    }
  }
  return root()->snapshot(pending).children;
}

void reset_spans() {
  Tree& t = tree();
  std::lock_guard<std::mutex> lk(t.mu);
  t.root = std::make_unique<SpanNode>("", nullptr);
  g_epoch.fetch_add(1, std::memory_order_release);
}

}  // namespace thetanet::obs
