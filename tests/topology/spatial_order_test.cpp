// Property tests for the Morton reorder layer (geom/spatial_order.h): the
// permutation is an internal layout detail, so every construction kernel
// must produce byte-identical outputs — edges, sector tables, interference
// sets, and stable telemetry counters — with the reorder ON or OFF and for
// any thread count. The baseline configuration is Morton OFF with one
// thread (the pre-reorder serial layout); every other (morton, threads)
// combination is compared against it field-for-field.

#include <gtest/gtest.h>

#include <cstring>
#include <numbers>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/theta_topology.h"
#include "geom/spatial_order.h"
#include "interference/model.h"
#include "obs/metrics.h"
#include "topology/distributions.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"
#include "topology/yao.h"

namespace thetanet {
namespace {

constexpr double kTheta = std::numbers::pi / 9.0;

topo::Deployment make_deployment(std::size_t n, std::uint64_t seed) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = 1.6 * std::sqrt(std::log(static_cast<double>(n)) /
                                static_cast<double>(n));
  d.kappa = 2.0;
  return d;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

// Everything a configuration produces, flattened to exact integers (float
// fields are compared as raw bits — "byte-identical" means exactly that,
// not approximate equality).
struct PipelineOutput {
  std::vector<std::uint64_t> blob;
  std::vector<std::pair<std::string, std::uint64_t>> stable_counters;

  bool operator==(const PipelineOutput&) const = default;

  void add_graph(const graph::Graph& g) {
    blob.push_back(g.num_edges());
    for (const graph::Edge& e : g.edges()) {
      blob.push_back(e.u);
      blob.push_back(e.v);
      blob.push_back(double_bits(e.length));
    }
  }
};

PipelineOutput run_pipeline(const topo::Deployment& d, bool morton,
                            int threads) {
  geom::set_spatial_order_enabled(morton);
  tn::set_num_threads(threads);
  obs::MetricsRegistry::global().reset();

  PipelineOutput out;
  const topo::SectorTable st = topo::compute_sector_table(d, kTheta);
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (int s = 0; s < st.sectors(); ++s) out.blob.push_back(st.nearest(u, s));

  const core::ThetaTopology tt(d, kTheta);
  out.add_graph(tt.graph());
  out.add_graph(topo::build_transmission_graph(d));
  out.add_graph(topo::gabriel_graph(d));

  const interf::InterferenceModel m{1.0};
  for (const std::uint32_t s :
       interf::interference_set_sizes(tt.graph(), d, m))
    out.blob.push_back(s);
  for (const std::uint32_t b : interf::interference_bounds(tt.graph(), d, m))
    out.blob.push_back(b);

  // Every counter is thread-count invariant by contract.
  for (const obs::CounterSnapshot& c :
       obs::MetricsRegistry::global().snapshot().counters)
    out.stable_counters.emplace_back(c.name, c.value);

  geom::set_spatial_order_enabled(true);
  tn::set_num_threads(1);
  return out;
}

TEST(SpatialOrder, PipelineInvariantUnderMortonAndThreads) {
  const topo::Deployment d = make_deployment(2000, 0xa11ce);
  const PipelineOutput baseline =
      run_pipeline(d, /*morton=*/false, /*threads=*/1);
  ASSERT_FALSE(baseline.blob.empty());
  ASSERT_FALSE(baseline.stable_counters.empty());

  for (const bool morton : {false, true}) {
    for (const int threads : {1, 2, 4}) {
      SCOPED_TRACE(::testing::Message()
                   << "morton=" << morton << " threads=" << threads);
      const PipelineOutput got = run_pipeline(d, morton, threads);
      EXPECT_EQ(got.blob, baseline.blob);
      EXPECT_EQ(got.stable_counters, baseline.stable_counters);
    }
  }
}

TEST(SpatialOrder, PermutationIsABitExactInverseCopy) {
  const topo::Deployment d = make_deployment(1500, 0xfeed);
  geom::set_spatial_order_enabled(true);
  const geom::SpatialOrder ord(d.positions);
  ASSERT_EQ(ord.size(), d.positions.size());
  std::vector<bool> seen(ord.size(), false);
  for (std::uint32_t s = 0; s < ord.size(); ++s) {
    const std::uint32_t o = ord.to_orig(s);
    ASSERT_LT(o, ord.size());
    EXPECT_FALSE(seen[o]);
    seen[o] = true;
    EXPECT_EQ(ord.to_sorted(o), s);
    // Copied coordinates must be the same bits, not just the same values.
    EXPECT_EQ(double_bits(ord.points()[s].x), double_bits(d.positions[o].x));
    EXPECT_EQ(double_bits(ord.points()[s].y), double_bits(d.positions[o].y));
  }
}

TEST(SpatialOrder, DisabledOrderIsIdentity) {
  const topo::Deployment d = make_deployment(300, 0xbeef);
  geom::set_spatial_order_enabled(false);
  const geom::SpatialOrder ord(d.positions);
  geom::set_spatial_order_enabled(true);
  EXPECT_TRUE(ord.identity());
  for (std::uint32_t s = 0; s < ord.size(); ++s) EXPECT_EQ(ord.to_orig(s), s);
}

}  // namespace
}  // namespace thetanet
