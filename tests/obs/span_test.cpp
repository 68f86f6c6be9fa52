#include "obs/span.h"

#include <gtest/gtest.h>

#include <thread>

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

}  // namespace
}  // namespace thetanet::obs
