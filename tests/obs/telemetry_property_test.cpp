// Property tests for the telemetry wiring: conservation identities between
// instrumented counters and the ground-truth RunMetrics / grid results they
// shadow, the cross-thread-count byte-identity of the deterministic JSON
// dump on a real workload, and that the dump carries every recorded metric.

#include <gtest/gtest.h>

#include <numbers>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/theta_topology.h"
#include "geom/rng.h"
#include "geom/spatial_grid.h"
#include "interference/model.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/telemetry_reader.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "sim/scenarios.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

class TelemetryPropertyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_recording(true);
    obs::MetricsRegistry::global().reset();
    obs::SeriesRegistry::global().reset();
    obs::reset_spans();
    tn::set_num_threads(1);
  }
  void TearDown() override { tn::set_num_threads(1); }
};

std::uint64_t counter(std::string_view name) {
  return obs::MetricsRegistry::global().counter_value(name);
}

const obs::DistributionSnapshot* find_dist(const obs::MetricsSnapshot& s,
                                           std::string_view name) {
  for (const obs::DistributionSnapshot& d : s.distributions)
    if (d.name == name) return &d;
  return nullptr;
}

TEST_F(TelemetryPropertyTest, GridExaminedDominatesReported) {
  // Over a spread of random deployments and query shapes, the prefilter can
  // only narrow: every reported point was first examined, and every examined
  // point lives in a scanned cell.
  for (const std::uint64_t seed : {1ull, 17ull, 92ull}) {
    geom::Rng rng(seed);
    const std::vector<geom::Vec2> pts = topo::uniform_square(200, 1.0, rng);
    const geom::SpatialGrid grid(pts, 0.08);
    obs::MetricsRegistry::global().reset();
    std::uint64_t reported_by_hand = 0;
    for (int q = 0; q < 32; ++q) {
      const geom::Vec2 c = pts[static_cast<std::size_t>(q * 6)];
      reported_by_hand += grid.within(c, 0.05 + 0.01 * (q % 4)).size();
    }
    EXPECT_EQ(counter("grid.queries"), 32U);
    EXPECT_EQ(counter("grid.reported"), reported_by_hand);
    EXPECT_GE(counter("grid.points_examined"), counter("grid.reported"));
    EXPECT_GE(counter("grid.cells_scanned"), counter("grid.queries"));
  }
}

TEST_F(TelemetryPropertyTest, RouterCountersConserveAgainstRunMetrics) {
  // The instrumented counters must reconcile exactly with the RunMetrics the
  // simulation itself reports — the telemetry is a shadow, not a second
  // bookkeeping path.
  geom::Rng rng(7);
  topo::Deployment d;
  d.positions = topo::uniform_square(40, 1.0, rng);
  d.max_range = 0.5;
  d.kappa = 2.0;
  const graph::Graph topo = topo::build_transmission_graph(d);
  route::TraceParams tp;
  tp.horizon = 600;
  tp.injections_per_step = 2.0;
  tp.num_sources = 4;
  tp.num_destinations = 2;
  const route::AdversaryTrace trace = route::make_certified_trace(topo, tp, rng);
  const core::BalancingParams params =
      core::theorem31_params(trace.opt, 0.25, 4.0);

  obs::MetricsRegistry::global().reset();
  obs::SeriesRegistry::global().reset();
  const sim::ScenarioResult res = sim::run_mac_given(trace, params, 200);
  const route::RunMetrics& m = res.metrics;

  // Injection split.
  EXPECT_EQ(counter("router.injected"), m.injected_offered);
  EXPECT_EQ(counter("router.accepted"), m.injected_accepted);
  EXPECT_EQ(counter("router.injected"),
            counter("router.accepted") + counter("router.dropped_at_injection"));

  // Packet conservation: everything accepted is delivered, dropped in
  // transit, or still in flight when the run ends.
  EXPECT_EQ(counter("router.accepted"),
            counter("router.delivered") + counter("router.dropped_in_transit") +
                m.leftover_packets);

  // Transmission ledger matches RunMetrics field by field.
  EXPECT_EQ(counter("router.attempted_tx"), m.attempted_tx);
  EXPECT_EQ(counter("router.failed_tx"), m.failed_tx);
  EXPECT_EQ(counter("router.skipped_tx"), m.skipped_tx);
  EXPECT_EQ(counter("router.delivered"), m.deliveries);

  // The per-round peak-height distribution is the §3 space-bound series: its
  // max is exactly the peak_buffer the invariant checker consumes, and one
  // sample was recorded per round.
  const obs::MetricsSnapshot snap = obs::MetricsRegistry::global().snapshot();
  const obs::DistributionSnapshot* peak =
      find_dist(snap, "router.round_peak_buffer");
  ASSERT_NE(peak, nullptr);
  EXPECT_EQ(peak->max, m.peak_buffer);
  EXPECT_EQ(peak->count, counter("router.rounds"));
  EXPECT_GT(counter("router.rounds"), 0U);

  // The per-round series shadow the same single bookkeeping path: the max
  // over the peak_buffer series IS RunMetrics::peak_buffer (downsampling
  // folds windows with max, so this holds at any retained resolution), and
  // the sum-series totals reconcile with the endpoint counters.
  const std::vector<obs::SeriesSnapshot> series =
      obs::SeriesRegistry::global().snapshot();
  const auto find_series =
      [&](std::string_view name) -> const obs::SeriesSnapshot* {
    for (const obs::SeriesSnapshot& s : series)
      if (s.name == name) return &s;
    return nullptr;
  };
  const obs::SeriesSnapshot* peak_series = find_series("router.peak_buffer");
  ASSERT_NE(peak_series, nullptr);
  std::uint64_t series_max = 0;
  for (const std::uint64_t v : peak_series->upoints)
    series_max = std::max(series_max, v);
  EXPECT_EQ(series_max, m.peak_buffer);
  EXPECT_EQ(peak_series->rounds, counter("router.rounds"));

  const auto series_total = [&](std::string_view name) {
    const obs::SeriesSnapshot* s = find_series(name);
    std::uint64_t total = 0;
    if (s != nullptr)
      for (const std::uint64_t v : s->upoints) total += v;
    return total;
  };
  EXPECT_EQ(series_total("router.injections"), m.injected_offered);
  EXPECT_EQ(series_total("router.tx_attempted"), m.attempted_tx);
  EXPECT_EQ(series_total("router.tx_failed"), m.failed_tx);
  EXPECT_EQ(series_total("router.tx_skipped"), m.skipped_tx);
  EXPECT_EQ(series_total("router.deliveries"), m.deliveries);
  EXPECT_EQ(series_total("router.dropped_in_transit"), m.dropped_in_transit);
}

TEST_F(TelemetryPropertyTest, SpanChildTimeIsBoundedByParentTime) {
  // Single-threaded, children are strictly nested inside their parent, so
  // summed child wall time cannot exceed the parent's.
  geom::Rng rng(3);
  topo::Deployment d;
  d.positions = topo::uniform_square(300, 1.0, rng);
  d.max_range = 0.2;
  d.kappa = 2.0;
  const core::ThetaTopology tt(d, std::numbers::pi / 9.0);
  const interf::InterferenceModel model{1.0};
  (void)interf::interference_set_sizes(tt.graph(), d, model);

  const std::vector<obs::SpanSnapshot> roots = obs::span_snapshot();
  ASSERT_FALSE(roots.empty());
  struct Checker {
    static void check(const obs::SpanSnapshot& node) {
      std::uint64_t child_total = 0;
      for (const obs::SpanSnapshot& c : node.children) {
        child_total += c.wall_ns;
        check(c);
      }
      EXPECT_LE(child_total, node.wall_ns) << "span " << node.name;
    }
  };
  for (const obs::SpanSnapshot& r : roots) Checker::check(r);

  // The theta build recorded its two phases under one parent.
  const obs::SpanSnapshot* build = nullptr;
  for (const obs::SpanSnapshot& r : roots)
    if (r.name == "theta.build") build = &r;
  ASSERT_NE(build, nullptr);
  ASSERT_EQ(build->children.size(), 2U);
  EXPECT_EQ(build->children[0].name, "theta.phase1");
  EXPECT_EQ(build->children[1].name, "theta.phase2");
}

/// Parallel theta build plus both interference kernels on a fixed seed.
void run_theta_interference_workload() {
  geom::Rng rng(11);
  topo::Deployment d;
  d.positions = topo::uniform_square(400, 1.0, rng);
  d.max_range = 0.15;
  d.kappa = 2.0;
  const core::ThetaTopology tt(d, std::numbers::pi / 9.0);
  const interf::InterferenceModel model{1.0};
  (void)interf::interference_set_sizes(tt.graph(), d, model);
  (void)interf::interference_bounds(tt.graph(), d, model);
}

TEST_F(TelemetryPropertyTest, DeterministicJsonIsByteIdenticalAcrossThreads) {
  // The same workload at 1, 2, and 4 threads must produce the same
  // deterministic dump — the in-process version of the ctest fixture diff.
  std::vector<std::string> dumps;
  for (const int threads : {1, 2, 4}) {
    tn::set_num_threads(threads);
    obs::MetricsRegistry::global().reset();
    obs::reset_spans();
    run_theta_interference_workload();
    dumps.push_back(obs::to_json(obs::capture_telemetry()));
  }
  EXPECT_EQ(dumps[0], dumps[1]);
  EXPECT_EQ(dumps[0], dumps[2]);
}

TEST_F(TelemetryPropertyTest, DumpCarriesEveryRecordedMetric) {
  // What is recorded is what the dump carries: no metric is kept back from
  // it, with the pool really dispatching across threads.
  tn::set_num_threads(4);
  run_theta_interference_workload();
  const obs::MetricsSnapshot recorded =
      obs::MetricsRegistry::global().snapshot();
  std::string err;
  const auto parsed = obs::parse_telemetry_json(
      obs::to_json(obs::capture_telemetry()), &err);
  ASSERT_TRUE(parsed.has_value()) << err;
  ASSERT_FALSE(recorded.counters.empty());
  for (const obs::CounterSnapshot& c : recorded.counters) {
    const auto it = parsed->counters.find(c.name);
    ASSERT_NE(it, parsed->counters.end()) << "counter " << c.name;
    EXPECT_EQ(it->second, c.value) << "counter " << c.name;
  }
  for (const obs::DistributionSnapshot& d : recorded.distributions) {
    const auto it = parsed->distributions.find(d.name);
    ASSERT_NE(it, parsed->distributions.end()) << "distribution " << d.name;
    EXPECT_EQ(it->second.count, d.count) << "distribution " << d.name;
  }
}

}  // namespace
}  // namespace thetanet
