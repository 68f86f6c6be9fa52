// The topology zoo (topology/builder.h): registry integrity, the shared
// normalize_edges() edge-list contract across every builder and input
// family, byte-identical builds across Morton on/off and thread counts
// (the spatial_order_test pattern applied to the whole registry), the
// structural expectations of the three literature competitors (Theta-Theta,
// Θ₄, hierarchical neighbor graphs), and byte fingerprints that pin every
// builder's edge lists across commits.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <numbers>
#include <set>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/parallel.h"
#include "core/theta_maintenance.h"
#include "core/theta_topology.h"
#include "geom/rng.h"
#include "geom/spatial_order.h"
#include "topology/builder.h"
#include "topology/cones.h"
#include "topology/distributions.h"
#include "topology/hng.h"
#include "topology/normalize.h"
#include "topology/proximity.h"
#include "topology/theta_graphs.h"
#include "topology/transmission_graph.h"
#include "topology/yao.h"
#include "verify/scenario.h"

namespace thetanet {
namespace {

using topo::EdgePair;

topo::Deployment uniform_deployment(std::size_t n, std::uint64_t seed,
                                    double range) {
  geom::Rng rng(seed);
  topo::Deployment d;
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = range;
  d.kappa = 2.0;
  return d;
}

/// Input families the edge-list contract must survive: generic, coincident
/// points, exact collinearity, tiny n.
std::vector<topo::Deployment> contract_families() {
  std::vector<topo::Deployment> out;
  out.push_back(uniform_deployment(48, 0xbade, 0.35));
  topo::Deployment coincident;
  coincident.positions.assign(7, {0.5, 0.5});
  coincident.positions.push_back({0.6, 0.5});
  coincident.max_range = 1.0;
  coincident.kappa = 2.0;
  out.push_back(coincident);
  topo::Deployment collinear;
  for (int i = 0; i < 9; ++i)
    collinear.positions.push_back({0.05 + 0.09 * i, 0.4});
  collinear.max_range = 0.3;
  collinear.kappa = 3.0;
  out.push_back(collinear);
  for (const std::size_t n : {0u, 1u, 2u})
    out.push_back(uniform_deployment(n, 0x51 + n, 0.5));
  return out;
}

std::uint64_t double_bits(double v) {
  std::uint64_t bits;
  static_assert(sizeof bits == sizeof v);
  std::memcpy(&bits, &v, sizeof bits);
  return bits;
}

std::vector<std::uint64_t> graph_blob(const graph::Graph& g) {
  std::vector<std::uint64_t> blob;
  blob.push_back(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    blob.push_back(e.u);
    blob.push_back(e.v);
    blob.push_back(double_bits(e.length));
    blob.push_back(double_bits(e.cost));
  }
  return blob;
}

TEST(BuilderRegistry, LookupAndCoverage) {
  const auto& reg = topo::builder_registry();
  ASSERT_GE(reg.size(), 12u);
  EXPECT_EQ(reg.front().name, "theta");  // the paper's ALG leads
  EXPECT_EQ(reg.back().name, "gstar");   // the reference closes
  const std::string names = topo::builder_names();
  std::set<std::string> seen;
  for (const auto& b : reg) {
    EXPECT_TRUE(seen.insert(b.name).second) << "duplicate " << b.name;
    EXPECT_NE(names.find(b.name), std::string::npos);
    const topo::TopologyBuilder* found = topo::find_builder(b.name);
    ASSERT_NE(found, nullptr);
    EXPECT_EQ(found->name, b.name);
  }
  for (const char* competitor : {"theta-theta", "theta4", "hng"})
    EXPECT_NE(topo::find_builder(competitor), nullptr) << competitor;
  EXPECT_EQ(topo::find_builder("no-such-structure"), nullptr);
}

TEST(BuilderZoo, NormalizeEdgesCanonicalizesAnyInput) {
  // Raw collections with reversed pairs, duplicates (in both orientations),
  // and self-loops — normalize_edges must canonicalize all of it.
  std::vector<EdgePair> pairs = {{3, 1}, {1, 3}, {2, 2}, {0, 4},
                                 {4, 0}, {1, 2}, {2, 1}, {0, 4}};
  topo::normalize_edges(pairs);
  const std::vector<EdgePair> want = {{0, 4}, {1, 2}, {1, 3}};
  EXPECT_EQ(pairs, want);

  geom::Rng rng(0xabc);
  std::vector<EdgePair> fuzz;
  for (int i = 0; i < 500; ++i)
    fuzz.emplace_back(static_cast<graph::NodeId>(rng.uniform_index(20)),
                      static_cast<graph::NodeId>(rng.uniform_index(20)));
  topo::normalize_edges(fuzz);
  for (std::size_t i = 0; i < fuzz.size(); ++i) {
    EXPECT_LT(fuzz[i].first, fuzz[i].second);
    if (i > 0) {
      EXPECT_LT(fuzz[i - 1], fuzz[i]);  // strict: sorted + unique
    }
  }
}

TEST(BuilderZoo, EveryBuilderHonoursTheEdgeListContract) {
  for (const topo::Deployment& d : contract_families()) {
    const graph::Graph gstar = topo::build_transmission_graph(d);
    for (const topo::TopologyBuilder& b : topo::builder_registry()) {
      SCOPED_TRACE(b.name + " on n=" + std::to_string(d.size()));
      const graph::Graph g = b.build(d);
      ASSERT_EQ(g.num_nodes(), d.size());
      for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
        const graph::Edge ed = g.edge(e);
        ASSERT_LT(ed.u, ed.v);
        if (e > 0) {
          const graph::Edge prev = g.edge(e - 1);
          ASSERT_TRUE(prev.u < ed.u || (prev.u == ed.u && prev.v < ed.v))
              << "edge " << e << " breaks lexicographic order";
        }
        ASSERT_LE(ed.length, d.max_range + 1e-12);
        ASSERT_EQ(double_bits(ed.length), double_bits(d.distance(ed.u, ed.v)));
        ASSERT_NE(gstar.find_edge(ed.u, ed.v), graph::kInvalidEdge)
            << "edge outside G*";
      }
    }
  }
}

TEST(BuilderZoo, MstEdgesAreLexicographicallyNormalized) {
  // Regression: mst_subgraph emits Kruskal acceptance order; the builder
  // must renormalize (caught by the zoo structure check on first run).
  const topo::Deployment d = uniform_deployment(64, 0x357, 0.4);
  const graph::Graph mst = topo::euclidean_mst(d);
  ASSERT_GT(mst.num_edges(), 0u);
  for (graph::EdgeId e = 1; e < mst.num_edges(); ++e) {
    const graph::Edge a = mst.edge(e - 1), b = mst.edge(e);
    EXPECT_TRUE(a.u < b.u || (a.u == b.u && a.v < b.v));
  }
}

TEST(BuilderZoo, RestrictedDelaunayKeepsGabrielOnDegenerateChains) {
  // Regression: the fp Bowyer-Watson kernel dropped edges on exponential
  // chains, disconnecting the RDG where G* wasn't. Gabriel edges are
  // unioned back in, restoring the subset property that carries the
  // connectivity and stretch claims.
  geom::Rng rng(0xcade);
  topo::Deployment d;
  d.positions = topo::exponential_chain(160, 0.01, 1.15, rng);
  d.max_range = 1.0;
  d.kappa = 2.0;
  const graph::Graph rdg = topo::restricted_delaunay_graph(d);
  const graph::Graph gg = topo::gabriel_graph(d);
  for (graph::EdgeId e = 0; e < gg.num_edges(); ++e)
    EXPECT_NE(rdg.find_edge(gg.edge(e).u, gg.edge(e).v), graph::kInvalidEdge);
}

TEST(BuilderZoo, ThetaRegistryEntryMatchesThetaTopology) {
  const topo::Deployment d = uniform_deployment(96, 0x7e7a, 0.3);
  const topo::TopologyBuilder* b = topo::find_builder("theta");
  ASSERT_NE(b, nullptr);
  const core::ThetaTopology tt(d, std::numbers::pi / 9.0);
  EXPECT_EQ(graph_blob(b->build(d)), graph_blob(tt.graph()));
}

TEST(ThetaTheta, DegreeBoundAndSubsetOfThetaGraph) {
  const topo::ConeScheme scheme{12, 0.0};
  for (const std::uint64_t seed : {2ULL, 5ULL}) {
    const topo::Deployment d = uniform_deployment(80, seed, 0.5);
    const graph::Graph theta = topo::theta_graph(d, scheme);
    const graph::Graph tt = topo::theta_theta_graph(d, scheme);
    // Phase 2 prunes incoming edges per cone: Theta-Theta ⊆ Θ-graph, and
    // each node keeps <= k outgoing selections + k surviving incoming.
    for (graph::EdgeId e = 0; e < tt.num_edges(); ++e)
      EXPECT_NE(theta.find_edge(tt.edge(e).u, tt.edge(e).v),
                graph::kInvalidEdge);
    EXPECT_LE(tt.max_degree(), 2u * 12u);
  }
}

TEST(Theta4, FourConesCentredOnAxes) {
  const topo::ConeScheme s = topo::theta4_scheme();
  EXPECT_EQ(s.k, 4);
  // Cone boundaries along y = ±x: the +x axis direction is strictly inside
  // a cone, as are the other three axis directions, all distinct cones.
  std::set<int> cones;
  const geom::Vec2 o{0.0, 0.0};
  for (const geom::Vec2 dir :
       {geom::Vec2{1.0, 0.0}, {0.0, 1.0}, {-1.0, 0.0}, {0.0, -1.0}})
    cones.insert(s.cone_of(o, dir));
  EXPECT_EQ(cones.size(), 4u);

  const topo::Deployment d = uniform_deployment(60, 0x44, 1.5);
  const graph::Graph t4 = topo::theta4_graph(d);
  ASSERT_GT(t4.num_edges(), 0u);
  // <= 4 outgoing selections per node: at most 4n/... edges total.
  EXPECT_LE(t4.num_edges(), 4 * d.size());
}

TEST(Hng, LevelsAreDeterministicAndGeometric) {
  const topo::HngParams p;
  std::size_t ones = 0, n = 4096;
  for (std::size_t u = 0; u < n; ++u) {
    const int l = topo::hng_level(static_cast<graph::NodeId>(u), p);
    ASSERT_GE(l, 1);
    ASSERT_LE(l, p.max_level);
    EXPECT_EQ(topo::hng_level(static_cast<graph::NodeId>(u), p), l);
    if (l == 1) ++ones;
  }
  // Geometric(1/2): about half the nodes stay at level 1.
  EXPECT_NEAR(static_cast<double>(ones) / static_cast<double>(n), 0.5, 0.05);
}

TEST(Hng, ConnectedOnCompleteInstances) {
  for (const std::uint64_t seed : {3ULL, 9ULL, 27ULL}) {
    const topo::Deployment d = uniform_deployment(64, seed, 1.5);
    const graph::Graph g = topo::hng_graph(d);
    // Every node of level l links to one strictly-higher-level node per
    // slot; max-level nodes are chained — connected whenever G* is
    // complete (the registry's connected_complete claim).
    std::vector<graph::NodeId> parent(d.size());
    for (graph::NodeId u = 0; u < d.size(); ++u) parent[u] = u;
    const auto find = [&](graph::NodeId u) {
      while (parent[u] != u) u = parent[u] = parent[parent[u]];
      return u;
    };
    for (const graph::Edge& e : g.edges()) parent[find(e.u)] = find(e.v);
    std::set<graph::NodeId> roots;
    for (graph::NodeId u = 0; u < d.size(); ++u) roots.insert(find(u));
    EXPECT_EQ(roots.size(), 1u) << "seed " << seed;
  }
}

TEST(BuilderZoo, BuildsAreInvariantUnderMortonAndThreads) {
  const topo::Deployment d = uniform_deployment(400, 0x2004, 0.2);
  for (const topo::TopologyBuilder& b : topo::builder_registry()) {
    SCOPED_TRACE(b.name);
    geom::set_spatial_order_enabled(false);
    tn::set_num_threads(1);
    const std::vector<std::uint64_t> baseline = graph_blob(b.build(d));
    for (const bool morton : {false, true}) {
      for (const int threads : {1, 2, 4}) {
        geom::set_spatial_order_enabled(morton);
        tn::set_num_threads(threads);
        EXPECT_EQ(graph_blob(b.build(d)), baseline)
            << "morton=" << morton << " threads=" << threads;
      }
    }
    geom::set_spatial_order_enabled(true);
    tn::set_num_threads(1);
  }
}

// ---------------------------------------------------------------------------
// Byte fingerprints. Each case folds an FNV-1a hash over every edge's
// (u, v, length bits, cost bits) across a matrix of families, sizes and
// seeds, and compares it with a constant recorded before the cone builders
// shared one selection kernel. Any change to a selection, a tie-break or an
// edge weight moves the hash. Every case must hold with Morton ordering on
// at the default thread count and with Morton off on one thread.

class Fnv1a {
 public:
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (v >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  void add(const graph::Graph& g) {
    add(g.num_nodes());
    for (const std::uint64_t w : graph_blob(g)) add(w);
  }
  void add(std::span<const graph::NodeId> ids) {
    add(ids.size());
    for (const graph::NodeId v : ids) add(v);
  }
  std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h_));
    return buf;
  }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Every verify family at n in {0, 1, 2, 7, 48, 300}, two seeds each.
const std::vector<topo::Deployment>& fingerprint_deployments() {
  static const std::vector<topo::Deployment> out = [] {
    std::vector<topo::Deployment> ds;
    for (const verify::Distribution dist : verify::kAllDistributions)
      for (const std::size_t n : {0u, 1u, 2u, 7u, 48u, 300u})
        for (const std::uint64_t seed : {1ULL, 2ULL}) {
          verify::ScenarioSpec spec;
          spec.dist = dist;
          spec.n = n;
          spec.seed = seed;
          ds.push_back(verify::build_scenario_deployment(spec));
        }
    return ds;
  }();
  return out;
}

/// Run `check` under the configured execution mode, then with Morton
/// ordering off on one thread, and restore the configuration.
void for_each_mode(const std::function<void()>& check) {
  const bool morton = geom::spatial_order_enabled();
  const int threads = tn::num_threads();
  check();
  {
    SCOPED_TRACE("morton off, 1 thread");
    geom::set_spatial_order_enabled(false);
    tn::set_num_threads(1);
    check();
  }
  geom::set_spatial_order_enabled(morton);
  tn::set_num_threads(threads);
}

std::string fingerprint(const std::function<graph::Graph(
                            const topo::Deployment&)>& build) {
  Fnv1a h;
  for (const topo::Deployment& d : fingerprint_deployments()) h.add(build(d));
  return h.hex();
}

TEST(BuilderFingerprint, RegistryBuildersOnEveryFamily) {
  const std::vector<std::pair<std::string, std::string>> want = {
      {"theta", "a9c9560b8f9ada4b"},       {"yao", "ea8df4d3714256c2"},
      {"gabriel", "606a40bfa6558749"},     {"rng", "d6ec261ed07e99ab"},
      {"rdelaunay", "3da7ecb9e53e074a"},   {"knn", "88cfccadc1734989"},
      {"mst", "14f6250485b3a155"},         {"cbtc", "0191499eb717e776"},
      {"theta-theta", "d552d3ff6c69d878"}, {"theta4", "a3548f9834cddb07"},
      {"hng", "f38dd0157fb978a3"},         {"gstar", "05bc365d41c5dbf6"},
  };
  ASSERT_EQ(want.size(), topo::builder_registry().size());
  for_each_mode([&] {
    for (const auto& [name, hash] : want) {
      const topo::TopologyBuilder* b = topo::find_builder(name);
      ASSERT_NE(b, nullptr) << name;
      EXPECT_EQ(fingerprint(b->build), hash) << name;
    }
  });
}

TEST(BuilderFingerprint, ThetaAndThetaThetaAcrossConeCounts) {
  for_each_mode([] {
    Fnv1a theta, theta_theta;
    for (const int k : {2, 5, 8, 12})
      for (const double rotation : {0.0, 0.37, -std::numbers::pi / 4.0})
        for (const topo::Deployment& d : fingerprint_deployments()) {
          const topo::ConeScheme scheme{k, rotation};
          theta.add(topo::theta_graph(d, scheme));
          theta_theta.add(topo::theta_theta_graph(d, scheme));
        }
    EXPECT_EQ(theta.hex(), "5bd573956537c9f8");
    EXPECT_EQ(theta_theta.hex(), "a6a64394e4c2a438");
  });
}

TEST(BuilderFingerprint, HngAcrossSeedsAndPromotion) {
  for_each_mode([] {
    Fnv1a h;
    for (const std::uint64_t seed : {0x48ceULL, 0x5eedULL})
      for (const double p : {0.5, 0.3}) {
        topo::HngParams params;
        params.seed = seed;
        params.promote_p = p;
        for (const topo::Deployment& d : fingerprint_deployments())
          h.add(topo::hng_graph(d, params));
      }
    EXPECT_EQ(h.hex(), "b7015da93d7ee781");
  });
}

TEST(BuilderFingerprint, KnnAcrossK) {
  for_each_mode([] {
    Fnv1a h;
    for (const std::size_t k : {0u, 1u, 2u, 3u, 10u, 400u})
      for (const topo::Deployment& d : fingerprint_deployments())
        h.add(topo::knn_graph(d, k));
    EXPECT_EQ(h.hex(), "75b102a8afd63ec7");
  });
}

TEST(BuilderFingerprint, ThetaAlgTablesAndYao) {
  for_each_mode([] {
    Fnv1a sectors, admitted, graphs;
    for (const double theta :
         {std::numbers::pi / 3.0, std::numbers::pi / 9.0, 0.2})
      for (const topo::Deployment& d : fingerprint_deployments()) {
        const topo::SectorTable table = topo::compute_sector_table(d, theta);
        for (graph::NodeId u = 0; u < d.size(); ++u)
          for (int s = 0; s < table.sectors(); ++s)
            sectors.add(table.nearest(u, s));
        const topo::ThetaAdmission adm = topo::theta_phase2(d, theta, table);
        admitted.add(adm.admitted);
        graphs.add(adm.n);
        graphs.add(topo::yao_graph(d, theta));
      }
    EXPECT_EQ(sectors.hex(), "c262bd42c2215469");
    EXPECT_EQ(admitted.hex(), "9bcb9d3384a82cdf");
    EXPECT_EQ(graphs.hex(), "528d12cf05f9e814");
  });
}

TEST(BuilderFingerprint, ThetaMaintainerOperations) {
  for_each_mode([] {
    verify::ScenarioSpec spec;
    spec.n = 60;
    spec.seed = 3;
    core::ThetaMaintainer m(verify::build_scenario_deployment(spec),
                            std::numbers::pi / 9.0);
    geom::Rng rng(0xf1e1d);
    Fnv1a h;
    h.add(m.graph());
    for (int op = 0; op < 180; ++op) {
      const auto v =
          static_cast<graph::NodeId>(rng.uniform_index(m.deployment().size()));
      switch (rng.uniform_index(4)) {
        case 0:
          h.add(m.move_node(v, {rng.uniform(), rng.uniform()}));
          break;
        case 1:
          h.add(m.add_node({rng.uniform(), rng.uniform()}));
          break;
        case 2:
          h.add(m.deactivate_node(v));
          break;
        default:
          h.add(m.activate_node(v));
          break;
      }
      h.add(m.graph());
    }
    EXPECT_TRUE(m.matches_full_rebuild());
    EXPECT_EQ(h.hex(), "9917f0a20ef21944");
  });
}

}  // namespace
}  // namespace thetanet
