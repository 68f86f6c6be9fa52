// Cross-thread-count determinism: every parallelized construction kernel
// must produce bit-identical output for TN_NUM_THREADS in {1, 2, 7} — the
// hard requirement of the shared parallel layer (common/parallel.h). Run
// over both a uniform and a clustered deployment so grid occupancy is both
// balanced and skewed.

#include <gtest/gtest.h>

#include <cmath>
#include <numbers>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "core/theta_topology.h"
#include "graph/stretch.h"
#include "interference/model.h"
#include "topology/distributions.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"
#include "topology/yao.h"
#include "verify/conformance.h"
#include "verify/scenario.h"

namespace thetanet {
namespace {

constexpr double kTheta = std::numbers::pi / 9.0;

topo::Deployment uniform_deployment(std::size_t n) {
  geom::Rng rng(0xd37e);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = 1.6 * std::sqrt(std::log(static_cast<double>(n)) /
                                static_cast<double>(n));
  d.kappa = 2.0;
  return d;
}

topo::Deployment clustered_deployment(std::size_t n) {
  geom::Rng rng(0xc1a5);
  topo::Deployment d;
  d.positions = topo::clustered(n, 12, 0.03, 1.0, rng);
  topo::perturb(d.positions, 1e-7, rng);
  d.max_range = 2.2 * std::sqrt(std::log(static_cast<double>(n)) /
                                static_cast<double>(n));
  d.kappa = 2.0;
  return d;
}

void expect_identical(const graph::Graph& a, const graph::Graph& b,
                      const char* what, int threads) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes()) << what << " threads=" << threads;
  ASSERT_EQ(a.num_edges(), b.num_edges()) << what << " threads=" << threads;
  for (graph::EdgeId e = 0; e < a.num_edges(); ++e) {
    ASSERT_EQ(a.edge(e).u, b.edge(e).u) << what << " e=" << e;
    ASSERT_EQ(a.edge(e).v, b.edge(e).v) << what << " e=" << e;
    // Bit-exact doubles, not almost-equal: same inputs, same order.
    ASSERT_EQ(a.edge(e).length, b.edge(e).length) << what << " e=" << e;
    ASSERT_EQ(a.edge(e).cost, b.edge(e).cost) << what << " e=" << e;
  }
}

class ThreadCountRestorer {
 public:
  ThreadCountRestorer() : saved_(tn::num_threads()) {}
  ~ThreadCountRestorer() { tn::set_num_threads(saved_); }

 private:
  int saved_;
};

void check_deployment(const topo::Deployment& d) {
  ThreadCountRestorer restore;
  const interf::InterferenceModel model{1.0};

  tn::set_num_threads(1);
  const topo::SectorTable table1 = topo::compute_sector_table(d, kTheta);
  const core::ThetaTopology theta1(d, kTheta);
  const graph::Graph yao1 = topo::yao_graph(d, table1);
  const graph::Graph gstar1 = topo::build_transmission_graph(d);
  const graph::Graph gabriel1 = topo::gabriel_graph(d);
  const std::vector<std::uint32_t> isizes1 =
      interf::interference_set_sizes(theta1.graph(), d, model);
  const std::vector<std::uint32_t> ibounds1 =
      interf::interference_bounds(theta1.graph(), d, model);
  const graph::StretchStats stretch1 =
      graph::edge_stretch(theta1.graph(), gstar1, graph::Weight::kCost);

  for (const int threads : {2, 7}) {
    tn::set_num_threads(threads);

    const topo::SectorTable table = topo::compute_sector_table(d, kTheta);
    ASSERT_EQ(table.sectors(), table1.sectors());
    for (graph::NodeId u = 0; u < d.size(); ++u)
      for (int s = 0; s < table.sectors(); ++s)
        ASSERT_EQ(table.nearest(u, s), table1.nearest(u, s))
            << "u=" << u << " s=" << s << " threads=" << threads;

    const core::ThetaTopology theta(d, kTheta);
    expect_identical(theta.graph(), theta1.graph(), "theta", threads);
    expect_identical(topo::yao_graph(d, table), yao1, "yao", threads);
    expect_identical(topo::build_transmission_graph(d), gstar1, "gstar",
                     threads);
    expect_identical(topo::gabriel_graph(d), gabriel1, "gabriel", threads);

    ASSERT_EQ(interf::interference_set_sizes(theta.graph(), d, model),
              isizes1)
        << "interference sizes, threads=" << threads;
    ASSERT_EQ(interf::interference_bounds(theta.graph(), d, model),
              ibounds1)
        << "interference bounds, threads=" << threads;

    const graph::StretchStats stretch =
        graph::edge_stretch(theta.graph(), gstar1, graph::Weight::kCost);
    // Bit-identical floats: the reduce combines partials in chunk order.
    ASSERT_EQ(stretch.max, stretch1.max);
    ASSERT_EQ(stretch.mean, stretch1.mean);
    ASSERT_EQ(stretch.p99, stretch1.p99);
    ASSERT_EQ(stretch.pairs, stretch1.pairs);
    ASSERT_EQ(stretch.argmax_u, stretch1.argmax_u);
    ASSERT_EQ(stretch.argmax_v, stretch1.argmax_v);
  }
}

TEST(Determinism, UniformDeploymentBitIdenticalAcrossThreadCounts) {
  check_deployment(uniform_deployment(3000));
}

TEST(Determinism, ClusteredDeploymentBitIdenticalAcrossThreadCounts) {
  check_deployment(clustered_deployment(3000));
}

TEST(Determinism, ConformanceReportsByteIdenticalAcrossThreadCounts) {
  // The verify layer's rendered reports feed a byte-for-byte ctest diff
  // (conformance_report_thread_diff); guard the same property in-process for
  // a mix of scenario families, including a degenerate one.
  ThreadCountRestorer restore;
  std::vector<verify::ScenarioSpec> specs(4);
  specs[0].dist = verify::Distribution::kUniform;
  specs[0].n = 48;
  specs[0].seed = 3;
  specs[1].dist = verify::Distribution::kClustered;
  specs[1].n = 40;
  specs[1].seed = 4;
  specs[2].dist = verify::Distribution::kHubRing;
  specs[2].n = 24;
  specs[2].seed = 5;
  specs[3].dist = verify::Distribution::kCoincident;
  specs[3].n = 6;
  specs[3].seed = 6;

  std::vector<std::string> base;
  tn::set_num_threads(1);
  for (const verify::ScenarioSpec& spec : specs) {
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    base.push_back(
        verify::run_conformance(d, verify::ConformanceOptions{}).to_string());
  }
  for (const int threads : {2, 7}) {
    tn::set_num_threads(threads);
    for (std::size_t i = 0; i < specs.size(); ++i) {
      const topo::Deployment d = verify::build_scenario_deployment(specs[i]);
      const std::string report =
          verify::run_conformance(d, verify::ConformanceOptions{}).to_string();
      ASSERT_EQ(report, base[i])
          << "report for scenario " << verify::scenario_name(specs[i])
          << " differs at threads=" << threads;
    }
  }
}

}  // namespace
}  // namespace thetanet
