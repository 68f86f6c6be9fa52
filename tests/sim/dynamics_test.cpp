#include "sim/dynamics.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "common/parallel.h"
#include "geom/bbox.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "sim/mobility.h"
#include "topology/distributions.h"

namespace thetanet::sim {
namespace {

constexpr double kTheta = 0.3490658503988659;  // pi/9

topo::Deployment make_deployment(std::size_t n, double range,
                                 std::uint64_t seed) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

DynEvent ev(std::uint32_t round, DynEventKind kind,
            graph::NodeId node = graph::kInvalidNode) {
  DynEvent e;
  e.round = round;
  e.kind = kind;
  e.node = node;
  return e;
}

TEST(DynEventKind, NamesRoundTrip) {
  for (const DynEventKind k :
       {DynEventKind::kJoin, DynEventKind::kLeave, DynEventKind::kCrash,
        DynEventKind::kSleep, DynEventKind::kWake, DynEventKind::kRegional}) {
    const std::optional<DynEventKind> back =
        parse_dyn_event_kind(dyn_event_kind_name(k));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, k);
  }
  EXPECT_FALSE(parse_dyn_event_kind("meteor").has_value());
}

TEST(DynamicsEngine, EventsChangeMaintainerState) {
  core::ThetaMaintainer m(make_deployment(10, 0.5, 41), kTheta);
  DynamicsEngine engine(m, {}, 1);

  std::vector<DynEvent> round0 = {ev(0, DynEventKind::kSleep, 3),
                                  ev(0, DynEventKind::kCrash, 7)};
  DynEvent join = ev(0, DynEventKind::kJoin);
  join.pos = {0.5, 0.5};
  round0.push_back(join);
  const auto s = engine.step(round0);
  EXPECT_EQ(s.applied, 3u);
  EXPECT_EQ(s.skipped, 0u);
  EXPECT_EQ(s.sleeps, 1u);
  EXPECT_EQ(s.crashes, 1u);
  EXPECT_EQ(s.joins, 1u);
  EXPECT_EQ(engine.state(3), NodeState::kAsleep);
  EXPECT_EQ(engine.state(7), NodeState::kDead);
  EXPECT_EQ(engine.state(10), NodeState::kAwake);
  EXPECT_EQ(engine.awake_count(), 9u);  // 10 - sleep - crash + join
  EXPECT_TRUE(m.matches_full_rebuild());

  const auto s1 = engine.step(std::vector<DynEvent>{
      ev(1, DynEventKind::kWake, 3), ev(1, DynEventKind::kLeave, 0)});
  EXPECT_EQ(s1.wakes, 1u);
  EXPECT_EQ(s1.leaves, 1u);
  EXPECT_EQ(engine.state(3), NodeState::kAwake);
  EXPECT_EQ(engine.awake_count(), 9u);
  EXPECT_TRUE(m.matches_full_rebuild());
}

TEST(DynamicsEngine, InvalidOrStaleEventsAreCountedNoOps) {
  core::ThetaMaintainer m(make_deployment(5, 0.5, 42), kTheta);
  DynamicsEngine engine(m, {}, 1);
  const auto s = engine.step(std::vector<DynEvent>{
      ev(0, DynEventKind::kWake, 2),     // already awake
      ev(0, DynEventKind::kSleep, 99),   // out of range
      ev(0, DynEventKind::kCrash, 1000)  // out of range
  });
  EXPECT_EQ(s.applied, 0u);
  EXPECT_EQ(s.skipped, 3u);
  EXPECT_EQ(engine.awake_count(), 5u);

  engine.step(std::vector<DynEvent>{ev(1, DynEventKind::kCrash, 2)});
  const auto s2 = engine.step(std::vector<DynEvent>{
      ev(2, DynEventKind::kCrash, 2),  // already dead
      ev(2, DynEventKind::kWake, 2)    // dead nodes never wake
  });
  EXPECT_EQ(s2.applied, 0u);
  EXPECT_EQ(s2.skipped, 2u);
  EXPECT_TRUE(m.matches_full_rebuild());
}

TEST(DynamicsEngine, RegionalFailureKillsExactlyTheDisk) {
  topo::Deployment d;
  d.positions = {{0.1, 0.1}, {0.15, 0.1}, {0.2, 0.15}, {0.8, 0.8}, {0.9, 0.9}};
  d.max_range = 1.5;
  d.kappa = 2.0;
  core::ThetaMaintainer m(d, kTheta);
  DynamicsEngine engine(m, {}, 1);

  DynEvent blast = ev(0, DynEventKind::kRegional);
  blast.pos = {0.15, 0.1};
  blast.radius = 0.12;
  const auto s = engine.step(std::span<const DynEvent>(&blast, 1));
  EXPECT_EQ(s.applied, 1u);
  EXPECT_EQ(s.crashes, 3u);
  EXPECT_EQ(engine.state(0), NodeState::kDead);
  EXPECT_EQ(engine.state(1), NodeState::kDead);
  EXPECT_EQ(engine.state(2), NodeState::kDead);
  EXPECT_EQ(engine.state(3), NodeState::kAwake);
  EXPECT_EQ(engine.state(4), NodeState::kAwake);
  EXPECT_TRUE(m.matches_full_rebuild());
}

TEST(DynamicsEngine, DutyCycleSleepsAndWakes) {
  DynamicsConfig cfg;
  cfg.duty.initial_battery = 20;
  cfg.duty.awake_drain = 6;
  cfg.duty.harvest = 8;
  cfg.duty.sleep_below = 8;
  cfg.duty.wake_above = 16;
  core::ThetaMaintainer m(make_deployment(6, 0.6, 43), kTheta);
  DynamicsEngine engine(m, cfg, 1);

  // 20 -> 14 -> 8 (doze) -> 16 (wake) -> 10 -> ... every node in lockstep.
  auto s = engine.step({});
  EXPECT_EQ(s.sleeps, 0u);
  s = engine.step({});
  EXPECT_EQ(s.sleeps, 6u);
  EXPECT_EQ(engine.awake_count(), 0u);
  s = engine.step({});
  EXPECT_EQ(s.wakes, 6u);
  EXPECT_EQ(engine.awake_count(), 6u);
  EXPECT_TRUE(m.matches_full_rebuild());
}

TEST(DynamicsEngine, BatteryExhaustionIsACrash) {
  DynamicsConfig cfg;
  cfg.duty.initial_battery = 10;
  cfg.duty.awake_drain = 6;
  cfg.duty.harvest = 0;  // no recovery: drain to death
  cfg.duty.sleep_below = 0;
  cfg.duty.wake_above = 1000;
  core::ThetaMaintainer m(make_deployment(4, 0.6, 44), kTheta);
  DynamicsEngine engine(m, cfg, 1);

  auto s = engine.step({});  // 10 -> 4
  EXPECT_EQ(s.crashes, 0u);
  s = engine.step({});  // 4 <= 6: exhausted
  EXPECT_EQ(s.crashes, 4u);
  EXPECT_EQ(engine.awake_count(), 0u);
  for (graph::NodeId v = 0; v < 4; ++v)
    EXPECT_EQ(engine.state(v), NodeState::kDead);
  // The ledger closed every account.
  EXPECT_EQ(engine.energy_remaining(), 0u);
  EXPECT_EQ(engine.energy_granted() + engine.energy_harvested(),
            engine.energy_drained() + engine.energy_remaining());
}

TEST(DynamicsEngine, EnergyLedgerConservesExactly) {
  DynamicsConfig cfg;
  cfg.duty = DutyCycleConfig{64, 9, 16, 28, 56};
  cfg.range_factor_min = 0.8;
  cfg.range_factor_max = 1.6;  // heterogeneous drains via factor^kappa
  core::ThetaMaintainer m(make_deployment(24, 0.4, 45), kTheta);
  DynamicsEngine engine(m, cfg, 7);

  geom::Rng rng(46);
  std::vector<DynEvent> schedule;
  for (std::uint32_t r = 0; r < 30; ++r) {
    DynEvent e;
    e.round = r;
    switch (rng.uniform_index(4)) {
      case 0:
        e.kind = DynEventKind::kJoin;
        e.pos = {rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)};
        break;
      case 1:
        e.kind = DynEventKind::kCrash;
        e.node = static_cast<graph::NodeId>(rng.uniform_index(24));
        break;
      case 2:
        e.kind = DynEventKind::kSleep;
        e.node = static_cast<graph::NodeId>(rng.uniform_index(24));
        break;
      default:
        e.kind = DynEventKind::kWake;
        e.node = static_cast<graph::NodeId>(rng.uniform_index(24));
        break;
    }
    schedule.push_back(e);
  }
  engine.run(schedule, 40);
  // Exact u64 identity — not an epsilon comparison.
  EXPECT_EQ(engine.energy_granted() + engine.energy_harvested(),
            engine.energy_drained() + engine.energy_remaining());
  EXPECT_GT(engine.energy_drained(), 0u);
  EXPECT_GT(engine.energy_harvested(), 0u);
  EXPECT_TRUE(m.matches_full_rebuild());
}

TEST(DynamicsEngine, HeterogeneousRangeFactorsStayInBounds) {
  DynamicsConfig cfg;
  cfg.range_factor_min = 0.5;
  cfg.range_factor_max = 2.0;
  core::ThetaMaintainer m(make_deployment(50, 0.4, 47), kTheta);
  DynamicsEngine engine(m, cfg, 3);
  bool varied = false;
  for (graph::NodeId v = 0; v < 50; ++v) {
    EXPECT_GE(engine.range_factor(v), 0.5);
    EXPECT_LE(engine.range_factor(v), 2.0);
    if (engine.range_factor(v) != engine.range_factor(0)) varied = true;
  }
  EXPECT_TRUE(varied);
}

TEST(DynamicsEngine, FirstPartitionRoundIsTheSleepRound) {
  // A 3-node chain u - v - w with the ends out of range of each other:
  // sleeping the middle node partitions the awake overlay.
  topo::Deployment d;
  d.positions = {{0.1, 0.5}, {0.5, 0.5}, {0.9, 0.5}};
  d.max_range = 0.45;
  d.kappa = 2.0;
  core::ThetaMaintainer m(d, kTheta);
  DynamicsEngine engine(m, {}, 1);

  engine.step({});  // round 0: intact
  EXPECT_FALSE(engine.first_partition_round().has_value());
  engine.step(std::vector<DynEvent>{ev(1, DynEventKind::kSleep, 1)});
  ASSERT_TRUE(engine.first_partition_round().has_value());
  EXPECT_EQ(*engine.first_partition_round(), 2u);  // 1-based: after round 1

  // The watermark never moves, even if the overlay heals.
  engine.step(std::vector<DynEvent>{ev(2, DynEventKind::kWake, 1)});
  EXPECT_TRUE(engine.awake_overlay_connected());
  EXPECT_EQ(*engine.first_partition_round(), 2u);
}

// --- Determinism contracts --------------------------------------------------

TEST(DynamicsDeterminism, MobilityDrawSequenceIsUnperturbed) {
  // The engine owns its Rng: running dynamics beside a mobility model must
  // leave the mobility positions bit-identical to a run without dynamics.
  const auto run_mobility = [](bool with_dynamics) {
    geom::Rng rng(48);
    topo::Deployment d = make_deployment(30, 0.4, 49);
    const geom::BBox arena{{0.0, 0.0}, {1.0, 1.0}};
    RandomWaypoint rw(arena, d.size(), 0.05, 0.25, rng);

    core::ThetaMaintainer m(d, kTheta);
    DynamicsConfig cfg;
    cfg.duty = DutyCycleConfig{64, 9, 16, 28, 56};
    cfg.range_factor_min = 0.7;
    cfg.range_factor_max = 1.4;
    std::optional<DynamicsEngine> engine;
    if (with_dynamics) engine.emplace(m, cfg, 5);

    for (std::uint32_t r = 0; r < 20; ++r) {
      rw.step(0.1, d, rng);
      if (engine) {
        std::vector<DynEvent> batch;
        if (r % 3 == 1) batch.push_back(ev(r, DynEventKind::kSleep, r % 30));
        if (r % 3 == 2) batch.push_back(ev(r, DynEventKind::kWake, (r - 1) % 30));
        engine->step(batch);
      }
    }
    return d.positions;
  };
  const std::vector<geom::Vec2> without = run_mobility(false);
  const std::vector<geom::Vec2> with = run_mobility(true);
  ASSERT_EQ(without.size(), with.size());
  for (std::size_t i = 0; i < without.size(); ++i) {
    EXPECT_EQ(without[i].x, with[i].x) << "node " << i;
    EXPECT_EQ(without[i].y, with[i].y) << "node " << i;
  }
}

class DynamicsTelemetry : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::MetricsRegistry::global().reset();
    obs::SeriesRegistry::global().reset();
    obs::reset_spans();
    tn::set_num_threads(1);
  }
  void TearDown() override {
    tn::set_num_threads(1);
    obs::MetricsRegistry::global().reset();
    obs::SeriesRegistry::global().reset();
    obs::reset_spans();
  }

  /// One full churn scenario; returns the deterministic telemetry dump.
  static std::string run_and_dump() {
    core::ThetaMaintainer m(make_deployment(20, 0.4, 50), kTheta);
    DynamicsConfig cfg;
    cfg.duty = DutyCycleConfig{64, 9, 16, 28, 56};
    DynamicsEngine engine(m, cfg, 11);
    std::vector<DynEvent> schedule;
    DynEvent join = ev(2, DynEventKind::kJoin);
    join.pos = {0.4, 0.6};
    schedule.push_back(join);
    schedule.push_back(ev(3, DynEventKind::kCrash, 4));
    schedule.push_back(ev(5, DynEventKind::kLeave, 9));
    DynEvent blast = ev(7, DynEventKind::kRegional);
    blast.pos = {0.5, 0.5};
    blast.radius = 0.2;
    schedule.push_back(blast);
    engine.run(schedule, 12);
    return obs::to_json(obs::capture_telemetry());
  }
};

TEST_F(DynamicsTelemetry, EmitsTheDynamicsSeries) {
  const std::string dump = run_and_dump();
  for (const char* name :
       {"dynamics.nodes_awake", "dynamics.crashes", "dynamics.joins",
        "dynamics.leaves", "dynamics.events_applied",
        "maintenance.edge_churn"})
    EXPECT_NE(dump.find(name), std::string::npos) << name << "\n" << dump;
}

TEST_F(DynamicsTelemetry, DumpIsByteIdenticalAcrossThreadCounts) {
  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 4}) {
    obs::MetricsRegistry::global().reset();
    obs::SeriesRegistry::global().reset();
    obs::reset_spans();
    tn::set_num_threads(threads);
    dumps.push_back(run_and_dump());
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST_F(DynamicsTelemetry, LifetimeCounterEmittedOnceAtFirstPartition) {
  topo::Deployment d;
  d.positions = {{0.1, 0.5}, {0.5, 0.5}, {0.9, 0.5}};
  d.max_range = 0.45;
  d.kappa = 2.0;
  core::ThetaMaintainer m(d, kTheta);
  DynamicsEngine engine(m, {}, 1);
  engine.step({});
  engine.step(std::vector<DynEvent>{ev(1, DynEventKind::kSleep, 1)});
  engine.step(std::vector<DynEvent>{ev(2, DynEventKind::kWake, 1)});
  engine.step(std::vector<DynEvent>{ev(3, DynEventKind::kSleep, 1)});  // again
  EXPECT_EQ(obs::MetricsRegistry::global().counter_value(
                "dynamics.lifetime_to_first_partition"),
            2u);
}

}  // namespace
}  // namespace thetanet::sim
