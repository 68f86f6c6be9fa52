#include "core/theta_maintenance.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numbers>
#include <thread>
#include <tuple>
#include <vector>

#include "common/parallel.h"
#include "graph/connectivity.h"
#include "sim/mobility.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"
#include "verify/invariants.h"

namespace thetanet::core {
namespace {

constexpr double kTheta = std::numbers::pi / 9.0;

topo::Deployment make_deployment(std::size_t n, double range,
                                 std::uint64_t seed) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

TEST(ThetaMaintainer, InitialStateMatchesFullBuild) {
  const topo::Deployment d = make_deployment(100, 0.3, 1);
  const ThetaMaintainer maintainer(d, kTheta);
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  const ThetaTopology fresh(d, kTheta);
  EXPECT_EQ(maintainer.graph().num_edges(), fresh.graph().num_edges());
}

TEST(ThetaMaintainer, SingleMovesStayCorrect) {
  ThetaMaintainer maintainer(make_deployment(120, 0.3, 2), kTheta);
  geom::Rng rng(3);
  for (int move = 0; move < 30; ++move) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(120));
    const geom::Vec2 p{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    maintainer.move_node(v, p);
    ASSERT_TRUE(maintainer.matches_full_rebuild()) << "move " << move;
  }
}

TEST(ThetaMaintainer, SmallMovesTouchOnlyTheNeighbourhood) {
  const std::size_t n = 400;
  ThetaMaintainer maintainer(make_deployment(n, 0.15, 4), kTheta);
  geom::Rng rng(5);
  for (int move = 0; move < 10; ++move) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    // Nudge within a fraction of the range: the affected set is ~ one
    // neighbourhood, far below n.
    geom::Vec2 p = maintainer.deployment().positions[v];
    p.x = std::clamp(p.x + rng.uniform(-0.03, 0.03), 0.0, 1.0);
    p.y = std::clamp(p.y + rng.uniform(-0.03, 0.03), 0.0, 1.0);
    const std::size_t touched = maintainer.move_node(v, p);
    EXPECT_LT(touched, n / 4) << "move " << move;
    ASSERT_TRUE(maintainer.matches_full_rebuild());
  }
}

TEST(ThetaMaintainer, LongJumpStillCorrect) {
  ThetaMaintainer maintainer(make_deployment(150, 0.25, 6), kTheta);
  // Teleport a node across the arena (old and new neighbourhoods disjoint).
  maintainer.move_node(7, {0.98, 0.97});
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  maintainer.move_node(7, {0.02, 0.01});
  EXPECT_TRUE(maintainer.matches_full_rebuild());
}

TEST(ThetaMaintainer, SustainedMobilityEpoch) {
  // A random-waypoint burst of moves, applied one node at a time, must end
  // in exactly the topology a full rebuild of the final deployment gives.
  const std::size_t n = 80;
  ThetaMaintainer maintainer(make_deployment(n, 0.3, 7), kTheta);
  geom::Rng rng(8);
  for (int step = 0; step < 100; ++step) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    geom::Vec2 p = maintainer.deployment().positions[v];
    p.x = std::clamp(p.x + rng.normal(0.0, 0.02), 0.0, 1.0);
    p.y = std::clamp(p.y + rng.normal(0.0, 0.02), 0.0, 1.0);
    maintainer.move_node(v, p);
  }
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  EXPECT_TRUE(graph::is_connected(maintainer.graph()));
}

// --- Direct incremental-vs-from-scratch equivalence ------------------------
// The tests above trust the class's own matches_full_rebuild() audit; these
// compare the maintained graph edge-by-edge against an independently
// constructed ThetaTopology, so a bug in the audit itself cannot hide one in
// the maintenance.

using EdgeKey = std::tuple<graph::NodeId, graph::NodeId, double, double>;

std::vector<EdgeKey> edge_keys(const graph::Graph& g) {
  std::vector<EdgeKey> keys;
  keys.reserve(g.num_edges());
  for (const graph::Edge& e : g.edges())
    keys.emplace_back(std::min(e.u, e.v), std::max(e.u, e.v), e.length,
                      e.cost);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ThetaMaintainerDirect, EdgeSetMatchesFreshTopologyAfterMoves) {
  const std::size_t n = 90;
  ThetaMaintainer maintainer(make_deployment(n, 0.3, 11), kTheta);
  geom::Rng rng(12);
  for (int move = 0; move < 25; ++move) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    const geom::Vec2 p{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
    maintainer.move_node(v, p);
    const ThetaTopology fresh(maintainer.deployment(), kTheta);
    ASSERT_EQ(edge_keys(maintainer.graph()), edge_keys(fresh.graph()))
        << "divergence after move " << move;
  }
}

TEST(ThetaMaintainerDirect, AuditAgreesWithDirectComparison) {
  const std::size_t n = 70;
  ThetaMaintainer maintainer(make_deployment(n, 0.35, 13), kTheta);
  geom::Rng rng(14);
  for (int move = 0; move < 20; ++move) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    geom::Vec2 p = maintainer.deployment().positions[v];
    p.x = std::clamp(p.x + rng.normal(0.0, 0.05), 0.0, 1.0);
    p.y = std::clamp(p.y + rng.normal(0.0, 0.05), 0.0, 1.0);
    maintainer.move_node(v, p);
    const ThetaTopology fresh(maintainer.deployment(), kTheta);
    const bool direct_equal =
        edge_keys(maintainer.graph()) == edge_keys(fresh.graph());
    ASSERT_EQ(maintainer.matches_full_rebuild(), direct_equal)
        << "audit disagrees with the direct comparison after move " << move;
    ASSERT_TRUE(direct_equal);
  }
}

TEST(ThetaMaintainerDirect, MaintainedGraphPassesPaperInvariants) {
  const std::size_t n = 60;
  ThetaMaintainer maintainer(make_deployment(n, 0.35, 15), kTheta);
  geom::Rng rng(16);
  for (int move = 0; move < 12; ++move) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    maintainer.move_node(v, {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
  }
  // The maintained topology must satisfy Lemma 2.1 for the *current*
  // deployment, checked through the conformance layer.
  const topo::Deployment& d = maintainer.deployment();
  const graph::Graph gstar = topo::build_transmission_graph(d);
  const verify::CheckReport r =
      verify::check_theta_invariants(maintainer.graph(), d, kTheta, gstar);
  EXPECT_TRUE(r.pass()) << r.to_string();
}

// --- Membership churn -------------------------------------------------------
// Joins, departures, crashes, and sleep/wake flips must leave the maintained
// overlay edge-identical to a from-scratch ThetaALG build on the *surviving*
// node set — the §2.4 self-maintenance claim the temporal conformance
// fuzzer re-checks per round. These tests exercise the maintainer directly,
// without the dynamics engine in between.

/// Edge keys of the fresh build of the active sub-deployment, mapped back to
/// original ids (ids ascend, so min/max order is preserved).
std::vector<EdgeKey> fresh_survivor_edge_keys(const ThetaMaintainer& m) {
  std::vector<graph::NodeId> ids;
  const topo::Deployment compact = m.active_deployment(&ids);
  std::vector<EdgeKey> keys;
  if (compact.size() < 2) return keys;
  const ThetaTopology fresh(compact, kTheta);
  keys.reserve(fresh.graph().num_edges());
  for (const graph::Edge& e : fresh.graph().edges())
    keys.emplace_back(std::min(ids[e.u], ids[e.v]),
                      std::max(ids[e.u], ids[e.v]), e.length, e.cost);
  std::sort(keys.begin(), keys.end());
  return keys;
}

TEST(ThetaMaintainerChurn, JoinsMatchFreshBuild) {
  ThetaMaintainer maintainer(make_deployment(20, 0.4, 21), kTheta);
  geom::Rng rng(22);
  for (int i = 0; i < 15; ++i) {
    const graph::NodeId v =
        maintainer.add_node({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    ASSERT_EQ(v, 20u + static_cast<graph::NodeId>(i));
    ASSERT_TRUE(maintainer.active(v));
    ASSERT_EQ(edge_keys(maintainer.graph()),
              fresh_survivor_edge_keys(maintainer))
        << "divergence after join " << i;
  }
  EXPECT_EQ(maintainer.num_active(), 35u);
}

TEST(ThetaMaintainerChurn, DeactivateIsolatesTheNode) {
  ThetaMaintainer maintainer(make_deployment(50, 0.4, 23), kTheta);
  maintainer.deactivate_node(17);
  EXPECT_FALSE(maintainer.active(17));
  EXPECT_EQ(maintainer.num_active(), 49u);
  EXPECT_EQ(maintainer.graph().degree(17), 0u);
  for (const graph::Edge& e : maintainer.graph().edges()) {
    EXPECT_NE(e.u, 17u);
    EXPECT_NE(e.v, 17u);
  }
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  // Repeated deactivation is a no-op.
  EXPECT_EQ(maintainer.deactivate_node(17), 0u);
  EXPECT_EQ(maintainer.num_active(), 49u);
}

TEST(ThetaMaintainerChurn, SleepWakeRoundTripRestoresTopology) {
  ThetaMaintainer maintainer(make_deployment(60, 0.35, 24), kTheta);
  const std::vector<EdgeKey> before = edge_keys(maintainer.graph());
  maintainer.deactivate_node(5);
  maintainer.deactivate_node(31);
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  maintainer.activate_node(31);
  maintainer.activate_node(5);
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  EXPECT_EQ(edge_keys(maintainer.graph()), before);
}

TEST(ThetaMaintainerChurn, ArbitraryChurnSequenceMatchesFreshBuild) {
  const std::size_t n0 = 30;
  ThetaMaintainer maintainer(make_deployment(n0, 0.4, 25), kTheta);
  geom::Rng rng(26);
  for (int step = 0; step < 80; ++step) {
    const std::size_t n = maintainer.deployment().size();
    const double pick = rng.uniform(0.0, 1.0);
    if (pick < 0.2) {
      maintainer.add_node({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    } else if (pick < 0.5) {
      maintainer.deactivate_node(
          static_cast<graph::NodeId>(rng.uniform_index(n)));
    } else if (pick < 0.8) {
      maintainer.activate_node(
          static_cast<graph::NodeId>(rng.uniform_index(n)));
    } else {
      maintainer.move_node(static_cast<graph::NodeId>(rng.uniform_index(n)),
                           {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    }
    ASSERT_EQ(edge_keys(maintainer.graph()),
              fresh_survivor_edge_keys(maintainer))
        << "divergence after step " << step;
    ASSERT_TRUE(maintainer.matches_full_rebuild());
  }
}

TEST(ThetaMaintainerChurn, ChurnLocalityStaysBelowFullRebuild) {
  const std::size_t n = 500;
  ThetaMaintainer maintainer(make_deployment(n, 0.12, 27), kTheta);
  geom::Rng rng(28);
  for (int step = 0; step < 10; ++step) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
    const std::size_t down = maintainer.deactivate_node(v);
    EXPECT_LT(down, n / 4) << "deactivate step " << step;
    const std::size_t up = maintainer.activate_node(v);
    EXPECT_LT(up, n / 4) << "activate step " << step;
  }
  EXPECT_TRUE(maintainer.matches_full_rebuild());
}

TEST(ThetaMaintainerChurn, PlantedStaleWakeBugIsDetectable) {
  // activate_node(v, /*recompute_neighbors=*/false) is the deliberate
  // maintenance bug of the conformance-under-churn mutation test: the woken
  // node's neighbours keep stale sector rows. Geometry chosen so the stale
  // selection survives phase-2 admission (where a same-sector woken node
  // would mask it): v and w share u's sector 0 (bearings 5 and 15 degrees,
  // v nearer), but seen from w, u (bearing 195) and v (bearing ~201.5) fall
  // in different 20-degree sectors. After v's buggy wake, u's stale row
  // still selects w, and at w that candidate has no competitor — the extra
  // edge (u, w) survives into N, diverging from a fresh build.
  topo::Deployment d;
  d.positions = {{0.1, 0.1}, {0.29924, 0.11743}, {0.58296, 0.22941}};
  d.max_range = 0.7;
  d.kappa = 2.0;
  ThetaMaintainer maintainer(d, kTheta);
  maintainer.deactivate_node(1);
  EXPECT_TRUE(maintainer.matches_full_rebuild());
  maintainer.activate_node(1, /*recompute_neighbors=*/false);
  EXPECT_FALSE(maintainer.matches_full_rebuild());
  EXPECT_NE(edge_keys(maintainer.graph()),
            fresh_survivor_edge_keys(maintainer));
  // A healthy wake repairs it.
  maintainer.deactivate_node(1);
  maintainer.activate_node(1);
  EXPECT_TRUE(maintainer.matches_full_rebuild());
}

TEST(ThetaMaintainerChurn, ChurnResultIdenticalAcrossThreadCounts) {
  // The same churn sequence under TN_NUM_THREADS in {1, 2, 4} must yield
  // identical edge sets (the repo-wide determinism contract; construction
  // kernels inside recomputes are parallel).
  std::vector<std::vector<EdgeKey>> per_thread_count;
  for (const int threads : {1, 2, 4}) {
    tn::set_num_threads(threads);
    ThetaMaintainer maintainer(make_deployment(64, 0.3, 29), kTheta);
    geom::Rng rng(30);
    for (int step = 0; step < 40; ++step) {
      const std::size_t n = maintainer.deployment().size();
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.25)
        maintainer.add_node({rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
      else if (pick < 0.55)
        maintainer.deactivate_node(
            static_cast<graph::NodeId>(rng.uniform_index(n)));
      else
        maintainer.activate_node(
            static_cast<graph::NodeId>(rng.uniform_index(n)));
    }
    per_thread_count.push_back(edge_keys(maintainer.graph()));
  }
  tn::set_num_threads(1);
  EXPECT_EQ(per_thread_count[0], per_thread_count[1]);
  EXPECT_EQ(per_thread_count[0], per_thread_count[2]);
}

TEST(ThetaMaintainerChurn, ConcurrentCheckerEvaluation) {
  // Concurrent read-only audits over one maintainer must be race-free: the
  // ctest TSAN variant (theta_maintenance_churn_tsan) runs this under
  // -fsanitize=thread. The maintained graph is immutable between
  // operations, so the audits are pure reads.
  ThetaMaintainer maintainer(make_deployment(48, 0.35, 31), kTheta);
  geom::Rng rng(32);
  for (int step = 0; step < 10; ++step) {
    const auto v = static_cast<graph::NodeId>(rng.uniform_index(48));
    if (step % 2 == 0)
      maintainer.deactivate_node(v);
    else
      maintainer.activate_node(v);
  }
  std::vector<std::thread> workers;
  std::vector<int> ok(4, 0);
  for (std::size_t t = 0; t < 4; ++t)
    workers.emplace_back([&maintainer, &ok, t] {
      bool all = true;
      for (int rep = 0; rep < 8; ++rep) {
        all = all && maintainer.matches_full_rebuild();
        std::vector<graph::NodeId> ids;
        const topo::Deployment compact = maintainer.active_deployment(&ids);
        all = all && compact.size() == ids.size();
        all = all && compact.size() == maintainer.num_active();
      }
      ok[t] = all ? 1 : 0;
    });
  for (std::thread& w : workers) w.join();
  for (std::size_t t = 0; t < 4; ++t) EXPECT_EQ(ok[t], 1) << "worker " << t;
}

}  // namespace
}  // namespace thetanet::core
