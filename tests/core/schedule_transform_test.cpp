#include "core/schedule_transform.h"

#include <gtest/gtest.h>

#include <numbers>
#include <set>

#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::core {
namespace {

struct Fixture {
  topo::Deployment d;
  graph::Graph gstar;
  interf::InterferenceModel model{0.5};

  explicit Fixture(std::uint64_t seed, std::size_t n = 120) {
    geom::Rng rng(seed);
    d.positions = topo::uniform_square(n, 1.0, rng);
    d.max_range = 0.3;
    d.kappa = 2.0;
    gstar = topo::build_transmission_graph(d);
  }

  /// The Section 2.4 pairwise test: a in I(b) for edges of g.
  bool in_set(const graph::Graph& g, graph::EdgeId a, graph::EdgeId b) const {
    const graph::Edge& ea = g.edge(a);
    const graph::Edge& eb = g.edge(b);
    return model.in_interference_set(d.positions[ea.u], d.positions[ea.v],
                                     d.positions[eb.u], d.positions[eb.v]);
  }
};

TEST(RandomSchedule, StepsArePairwiseNonInterfering) {
  const Fixture f(1);
  geom::Rng rng(2);
  const auto schedule =
      random_noninterfering_schedule(f.gstar, f.d, f.model, 10, rng);
  ASSERT_EQ(schedule.size(), 10U);
  for (const auto& step : schedule) {
    EXPECT_FALSE(step.empty());
    for (std::size_t i = 0; i < step.size(); ++i)
      for (std::size_t j = i + 1; j < step.size(); ++j)
        EXPECT_FALSE(f.in_set(f.gstar, step[i], step[j]))
            << "edges " << step[i] << "," << step[j];
  }
}

TEST(RandomSchedule, StepsAreMaximal) {
  // No edge outside a step can be added without interfering: maximality of
  // the greedy independent set.
  const Fixture f(3, 60);
  geom::Rng rng(4);
  const auto schedule =
      random_noninterfering_schedule(f.gstar, f.d, f.model, 3, rng);
  for (const auto& step : schedule) {
    const std::set<graph::EdgeId> in(step.begin(), step.end());
    for (graph::EdgeId e = 0; e < f.gstar.num_edges(); ++e) {
      if (in.count(e)) continue;
      bool conflicts = false;
      for (const graph::EdgeId other : step)
        conflicts = conflicts || f.in_set(f.gstar, e, other);
      EXPECT_TRUE(conflicts) << "edge " << e << " could have been added";
    }
  }
}

TEST(TransformSchedule, OutputIsConflictFreeOnN) {
  const Fixture f(5);
  const ThetaTopology tt(f.d, std::numbers::pi / 9.0);
  geom::Rng rng(6);
  const auto schedule =
      random_noninterfering_schedule(f.gstar, f.d, f.model, 8, rng);
  const TransformResult res =
      transform_schedule(tt, f.gstar, schedule, f.model);
  ASSERT_GT(res.n_steps, 0U);
  ASSERT_EQ(res.n_schedule.size(), res.n_steps);
  std::size_t total = 0;
  for (const auto& step : res.n_schedule) {
    total += step.size();
    for (std::size_t i = 0; i < step.size(); ++i)
      for (std::size_t j = i + 1; j < step.size(); ++j)
        ASSERT_FALSE(f.in_set(tt.graph(), step[i], step[j]))
            << "interfering pair scheduled together";
  }
  EXPECT_EQ(total, res.transmissions);
}

TEST(TransformSchedule, EveryGStarEdgeBecomesItsThetaPathInOrder) {
  const Fixture f(7, 80);
  const ThetaTopology tt(f.d, std::numbers::pi / 9.0);
  // Single-step schedule with one edge: the N schedule must contain exactly
  // the replacement path hops, in causal (store-and-forward) order.
  const graph::Edge& ge =
      f.gstar.edge(static_cast<graph::EdgeId>(f.gstar.num_edges() / 2));
  const std::vector<GStarStep> schedule{{f.gstar.find_edge(ge.u, ge.v)}};
  const TransformResult res =
      transform_schedule(tt, f.gstar, schedule, f.model);
  const auto path = tt.replacement_path(ge.u, ge.v);
  EXPECT_EQ(res.transmissions, path.size());
  // Hop k appears strictly after hop k-1.
  std::vector<std::size_t> when(path.size(), 0);
  for (std::size_t s = 0; s < res.n_schedule.size(); ++s)
    for (const graph::EdgeId e : res.n_schedule[s])
      for (std::size_t k = 0; k < path.size(); ++k)
        if (path[k] == e) when[k] = s;
  for (std::size_t k = 1; k < path.size(); ++k)
    if (path[k] != path[k - 1]) {
      EXPECT_GT(when[k], when[k - 1]) << "hop " << k;
    }
}

TEST(TransformSchedule, CausalityBarrierBetweenGStarSteps) {
  // All hops spawned by G* step k are scheduled strictly after every hop of
  // step k-1 finished. We verify via a 2-step schedule of the same edge.
  const Fixture f(8, 80);
  const ThetaTopology tt(f.d, std::numbers::pi / 9.0);
  const graph::EdgeId e = 0;
  const std::vector<GStarStep> schedule{{e}, {e}};
  const TransformResult res =
      transform_schedule(tt, f.gstar, schedule, f.model);
  const auto path =
      tt.replacement_path(f.gstar.edge(e).u, f.gstar.edge(e).v);
  // Two repetitions of the path, second entirely after the first.
  EXPECT_EQ(res.transmissions, 2 * path.size());
  EXPECT_GE(res.n_steps, 2 * path.size());
}

TEST(TransformSchedule, SlowdownWithinTheoremBudget) {
  const Fixture f(9, 150);
  const ThetaTopology tt(f.d, std::numbers::pi / 9.0);
  geom::Rng rng(10);
  const auto schedule =
      random_noninterfering_schedule(f.gstar, f.d, f.model, 16, rng);
  const TransformResult res =
      transform_schedule(tt, f.gstar, schedule, f.model);
  EXPECT_EQ(res.gstar_steps, 16U);
  // Theorem 2.8 budget: O(t*I + n^2). Our constant must be far below 1x.
  const double budget =
      static_cast<double>(res.gstar_steps) *
          static_cast<double>(res.interference_number) +
      static_cast<double>(f.d.size()) * static_cast<double>(f.d.size());
  EXPECT_LT(static_cast<double>(res.n_steps), budget);
  EXPECT_GT(res.slowdown(), 0.99);  // at least one N step per G* step
}

TEST(TransformSchedule, EmptySchedule) {
  const Fixture f(11, 40);
  const ThetaTopology tt(f.d, std::numbers::pi / 9.0);
  const TransformResult res = transform_schedule(tt, f.gstar, {}, f.model);
  EXPECT_EQ(res.n_steps, 0U);
  EXPECT_EQ(res.transmissions, 0U);
  EXPECT_DOUBLE_EQ(res.slowdown(), 0.0);
}

}  // namespace
}  // namespace thetanet::core
