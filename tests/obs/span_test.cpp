#include "obs/span.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"

namespace thetanet::obs {
namespace {

class SpanTest : public ::testing::Test {
 protected:
  void SetUp() override {
    set_recording(true);
    reset_spans();
  }
};

const SpanSnapshot* find(const std::vector<SpanSnapshot>& nodes,
                         std::string_view name) {
  for (const SpanSnapshot& s : nodes)
    if (s.name == name) return &s;
  return nullptr;
}

TEST_F(SpanTest, NestingBuildsATree) {
  {
    Span outer("outer");
    { Span inner("inner"); }
    { Span inner("inner"); }
  }
  { Span other("other"); }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 2U);
  const SpanSnapshot* outer = find(roots, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 1U);
  ASSERT_EQ(outer->children.size(), 1U);
  EXPECT_EQ(outer->children[0].name, "inner");
  EXPECT_EQ(outer->children[0].count, 2U);
  const SpanSnapshot* other = find(roots, "other");
  ASSERT_NE(other, nullptr);
  EXPECT_TRUE(other->children.empty());
}

TEST_F(SpanTest, RepeatedPhasesAggregateIntoOneNode) {
  for (int i = 0; i < 5; ++i) {
    Span s("phase");
  }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 1U);
  EXPECT_EQ(roots[0].count, 5U);
}

TEST_F(SpanTest, ChildrenAreSortedByName) {
  {
    Span outer("outer");
    { Span b("b"); }
    { Span a("a"); }
    { Span c("c"); }
  }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 1U);
  ASSERT_EQ(roots[0].children.size(), 3U);
  EXPECT_EQ(roots[0].children[0].name, "a");
  EXPECT_EQ(roots[0].children[1].name, "b");
  EXPECT_EQ(roots[0].children[2].name, "c");
}

TEST_F(SpanTest, WallTimeAccumulatesOnClose) {
  {
    Span s("timed");
  }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 1U);
  // steady_clock on every supported platform resolves an open/close pair.
  EXPECT_GT(roots[0].wall_ns, 0U);
}

TEST_F(SpanTest, RecordingOffSkipsSpans) {
  set_recording(false);
  {
    Span s("invisible");
  }
  set_recording(true);
  EXPECT_TRUE(span_snapshot().empty());
}

TEST_F(SpanTest, ResetDropsTheTree) {
  {
    Span s("gone");
  }
  reset_spans();
  EXPECT_TRUE(span_snapshot().empty());
}

TEST_F(SpanTest, ContextScopePropagatesAcrossThreadBoundaries) {
  // Simulates what the pool does: hand the dispatcher's context to another
  // thread, which opens a child span there.
  SpanNode* ctx = nullptr;
  {
    Span outer("dispatcher");
    ctx = current_span();
    ASSERT_NE(ctx, nullptr);
    std::thread worker([&] {
      SpanContextScope scope(ctx);
      Span child("worker_phase");
    });
    worker.join();
  }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 1U);
  EXPECT_EQ(roots[0].name, "dispatcher");
  ASSERT_EQ(roots[0].children.size(), 1U);
  EXPECT_EQ(roots[0].children[0].name, "worker_phase");
}

TEST_F(SpanTest, PoolJobsInheritTheDispatchersSpan) {
  // A span opened around a parallel loop must parent any span the chunks
  // open, for every thread count — this is the tree-structure half of the
  // determinism contract.
  for (const int threads : {1, 4}) {
    reset_spans();
    tn::set_num_threads(threads);
    {
      Span phase("phase");
      tn::parallel_for(64, 1, [](std::size_t, std::size_t) {
        Span leaf("leaf");
      });
    }
    const auto roots = span_snapshot();
    ASSERT_EQ(roots.size(), 1U) << "threads=" << threads;
    EXPECT_EQ(roots[0].name, "phase");
    ASSERT_EQ(roots[0].children.size(), 1U) << "threads=" << threads;
    EXPECT_EQ(roots[0].children[0].name, "leaf");
    EXPECT_EQ(roots[0].children[0].count, 64U) << "threads=" << threads;
  }
  tn::set_num_threads(1);
}

TEST_F(SpanTest, SpansAfterResetLandInTheNewTree) {
  // Each thread caches its (parent, name) lookups; a reset must drop them,
  // or the reopened spans would count into the deleted tree.
  for (int run = 0; run < 3; ++run) {
    reset_spans();
    for (int i = 0; i < 2; ++i) {
      Span outer("outer");
      Span inner("inner");
    }
    const auto roots = span_snapshot();
    ASSERT_EQ(roots.size(), 1U) << "run " << run;
    EXPECT_EQ(roots[0].count, 2U) << "run " << run;
    ASSERT_EQ(roots[0].children.size(), 1U) << "run " << run;
    EXPECT_EQ(roots[0].children[0].count, 2U) << "run " << run;
  }
}

TEST_F(SpanTest, OneNameUnderTwoParentsMakesTwoNodes) {
  const char* const leaf = "leaf";
  for (int i = 0; i < 3; ++i) {
    {
      Span a("a");
      Span l(leaf);
    }
    {
      Span b("b");
      Span l(leaf);
    }
    Span l(leaf);
  }
  const auto roots = span_snapshot();
  ASSERT_EQ(roots.size(), 3U);
  for (const char* parent : {"a", "b"}) {
    const SpanSnapshot* p = find(roots, parent);
    ASSERT_NE(p, nullptr) << parent;
    ASSERT_EQ(p->children.size(), 1U) << parent;
    EXPECT_EQ(p->children[0].name, "leaf");
    EXPECT_EQ(p->children[0].count, 3U) << parent;
  }
  const SpanSnapshot* top = find(roots, "leaf");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->count, 3U);
}

TEST_F(SpanTest, PoolWorkerSpansAfterResetLandInTheNewTree) {
  // The workers keep their own lookup caches across jobs; after a reset
  // their spans must still attach under the dispatcher's new phase node.
  tn::set_num_threads(4);
  for (int run = 0; run < 3; ++run) {
    reset_spans();
    for (int job = 0; job < 2; ++job) {
      Span phase("phase");
      tn::parallel_for(64, 1, [](std::size_t, std::size_t) {
        Span leaf("leaf");
        Span deeper("deeper");
      });
    }
    const auto roots = span_snapshot();
    ASSERT_EQ(roots.size(), 1U) << "run " << run;
    EXPECT_EQ(roots[0].count, 2U) << "run " << run;
    ASSERT_EQ(roots[0].children.size(), 1U) << "run " << run;
    const SpanSnapshot& leaf = roots[0].children[0];
    EXPECT_EQ(leaf.count, 128U) << "run " << run;
    ASSERT_EQ(leaf.children.size(), 1U) << "run " << run;
    EXPECT_EQ(leaf.children[0].count, 128U) << "run " << run;
  }
  tn::set_num_threads(1);
}

// Names at 300 distinct addresses: more than a thread's 64 cached lookups,
// so opening them in turn evicts entries (and their pending totals) again
// and again.
const std::vector<std::string>& many_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> out;
    for (int i = 0; i < 300; ++i) out.push_back("n" + std::to_string(i));
    return out;
  }();
  return names;
}

std::uint64_t sum_counts(const std::vector<SpanSnapshot>& nodes) {
  std::uint64_t total = 0;
  for (const SpanSnapshot& s : nodes) total += s.count;
  return total;
}

TEST_F(SpanTest, CountsStayExactAcrossCacheSlotCollisions) {
  const std::vector<std::string>& names = many_names();
  for (int round = 0; round < 3; ++round) {
    Span outer("outer");
    for (const std::string& name : names) Span s(name.c_str());
  }
  // Nested spans whose lookups evict the enclosing span's entry: its close
  // must still reach the node.
  for (int round = 0; round < 2; ++round) {
    Span top("top");
    for (const std::string& name : names) {
      Span mid(name.c_str());
      Span leaf("leaf");
    }
  }
  const auto roots = span_snapshot();
  const SpanSnapshot* outer = find(roots, "outer");
  ASSERT_NE(outer, nullptr);
  EXPECT_EQ(outer->count, 3U);
  ASSERT_EQ(outer->children.size(), names.size());
  std::uint64_t children_ns = 0;
  for (const SpanSnapshot& c : outer->children) {
    EXPECT_EQ(c.count, 3U) << c.name;
    children_ns += c.wall_ns;
  }
  // Every child ran inside `outer`: none of the children's time is lost or
  // counted twice if the parent's covers it.
  EXPECT_GE(outer->wall_ns, children_ns);
  const SpanSnapshot* top = find(roots, "top");
  ASSERT_NE(top, nullptr);
  EXPECT_EQ(top->count, 2U);
  ASSERT_EQ(top->children.size(), names.size());
  std::uint64_t mid_ns = 0;
  for (const SpanSnapshot& mid : top->children) {
    EXPECT_EQ(mid.count, 2U) << mid.name;
    ASSERT_EQ(mid.children.size(), 1U) << mid.name;
    EXPECT_EQ(mid.children[0].count, 2U) << mid.name;
    EXPECT_GE(mid.wall_ns, mid.children[0].wall_ns) << mid.name;
    mid_ns += mid.wall_ns;
  }
  EXPECT_GE(top->wall_ns, mid_ns);
  EXPECT_GT(mid_ns, 0U);
}

TEST_F(SpanTest, CountsStayExactAcrossPoolWorkers) {
  // The workers' pending totals stay in their caches between jobs; the
  // snapshot must add every worker's share, and the counts must not depend
  // on the thread count.
  const std::vector<std::string>& names = many_names();
  for (const int threads : {1, 4}) {
    reset_spans();
    tn::set_num_threads(threads);
    for (int job = 0; job < 3; ++job) {
      Span phase("phase");
      tn::parallel_for(names.size(), 1, [&](std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) {
          Span leaf("leaf");
          Span named(names[i].c_str());
        }
      });
    }
    // A thread that exits hands its pending totals to the tree.
    std::thread worker([] {
      for (int i = 0; i < 5; ++i) Span s("exiting");
    });
    worker.join();
    const auto roots = span_snapshot();
    const SpanSnapshot* phase = find(roots, "phase");
    ASSERT_NE(phase, nullptr) << "threads=" << threads;
    EXPECT_EQ(phase->count, 3U);
    ASSERT_EQ(phase->children.size(), 1U);
    const SpanSnapshot& leaf = phase->children[0];
    EXPECT_EQ(leaf.count, 3U * names.size()) << "threads=" << threads;
    EXPECT_EQ(leaf.children.size(), names.size()) << "threads=" << threads;
    EXPECT_EQ(sum_counts(leaf.children), 3U * names.size())
        << "threads=" << threads;
    const SpanSnapshot* exiting = find(roots, "exiting");
    ASSERT_NE(exiting, nullptr) << "threads=" << threads;
    EXPECT_EQ(exiting->count, 5U) << "threads=" << threads;
  }
  tn::set_num_threads(1);
}

TEST_F(SpanTest, ResetDropsPendingCounts) {
  // Pending totals of the old tree, on this thread and on pool workers,
  // must neither appear after a reset nor leak into the new tree's nodes.
  tn::set_num_threads(4);
  for (int run = 0; run < 3; ++run) {
    for (int job = 0; job < 2; ++job) {
      Span phase("phase");
      tn::parallel_for(64, 1, [](std::size_t, std::size_t) {
        Span leaf("leaf");
      });
    }
    { Span mine("mine"); }
    reset_spans();
    EXPECT_TRUE(span_snapshot().empty()) << "run " << run;
    { Span mine("mine"); }
    {
      Span phase("phase");
      tn::parallel_for(64, 1, [](std::size_t, std::size_t) {
        Span leaf("leaf");
      });
    }
    const auto roots = span_snapshot();
    ASSERT_EQ(roots.size(), 2U) << "run " << run;
    const SpanSnapshot* mine = find(roots, "mine");
    ASSERT_NE(mine, nullptr);
    EXPECT_EQ(mine->count, 1U) << "run " << run;
    const SpanSnapshot* phase = find(roots, "phase");
    ASSERT_NE(phase, nullptr);
    EXPECT_EQ(phase->count, 1U) << "run " << run;
    ASSERT_EQ(phase->children.size(), 1U);
    EXPECT_EQ(phase->children[0].count, 64U) << "run " << run;
    reset_spans();
  }
  tn::set_num_threads(1);
}

}  // namespace
}  // namespace thetanet::obs
