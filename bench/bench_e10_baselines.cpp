// E10 — the related-work comparison (Section 1.2 / Section 2 of the paper):
// ThetaALG's N against the proximity-graph baselines on degree, sparsity,
// energy-stretch, distance-stretch and interference number. Expected shape:
// N is the only topology that simultaneously has constant degree, constant
// energy-stretch and low interference; Gabriel achieves stretch 1 but
// Omega(n) worst-case degree (hub instance); MST is sparsest but its
// stretch explodes; kNN disconnects.

#include "bench/common.h"

#include <iostream>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"
#include "interference/model.h"
#include "topology/cbtc.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"

namespace thetanet {
namespace {

void emit_rows(sim::Table& table, const topo::Deployment& d,
               const graph::Graph& gstar, const char* instance) {
  const interf::InterferenceModel model{1.0};
  const core::ThetaTopology tt(d, bench::kPi / 9.0);

  struct Entry {
    const char* name;
    graph::Graph g;
  };
  std::vector<Entry> entries;
  entries.push_back({"ThetaALG_N", tt.graph()});
  entries.push_back({"Yao_N1", tt.yao_graph()});
  entries.push_back({"Gabriel", topo::gabriel_graph(d)});
  entries.push_back({"RNG", topo::relative_neighborhood_graph(d)});
  entries.push_back({"rDelaunay", topo::restricted_delaunay_graph(d)});
  entries.push_back({"kNN(k=3)", topo::knn_graph(d, 3)});
  entries.push_back({"EMST", topo::euclidean_mst(d)});
  entries.push_back({"CBTC(2pi/3)", topo::cbtc_graph(d, 2.0 * bench::kPi / 3.0)});
  entries.push_back({"beta(0.8)", topo::beta_skeleton(d, 0.8)});

  for (const Entry& e : entries) {
    const bool conn = graph::is_connected(e.g);
    const auto sc = graph::edge_stretch(e.g, gstar, graph::Weight::kCost);
    const auto sl = graph::edge_stretch(e.g, gstar, graph::Weight::kLength);
    const auto inum = interf::interference_number(e.g, d, model);
    table.row({instance, e.name, sim::fmt(e.g.num_edges()),
               sim::fmt(e.g.max_degree()),
               conn ? sim::fmt(sc.max, 2) : std::string("inf"),
               conn ? sim::fmt(sl.max, 2) : std::string("inf"),
               sim::fmt(inum), sim::fmt(conn)});
  }
}

}  // namespace
}  // namespace thetanet

int main() {
  using namespace thetanet;
  bench::print_header(
      "E10: ThetaALG vs proximity-graph baselines",
      "Section 1.2/2 - only N combines O(1) degree, O(1) energy-stretch and "
      "low interference");

  sim::Table table("E10 - topology comparison",
                   {"instance", "topology", "edges", "max_deg",
                    "energy_stretch", "dist_stretch", "I", "connected"});

  geom::Rng seed_rng(bench::kSeedRoot + 10);
  {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(512, rng);
    const graph::Graph gstar = topo::build_transmission_graph(d);
    emit_rows(table, d, gstar, "uniform512");
  }
  {
    geom::Rng rng = seed_rng.fork();
    topo::Deployment d;
    d.positions = topo::hub_ring(128, 1.0, rng);
    d.max_range = 1.2;
    d.kappa = 2.0;
    const graph::Graph gstar = topo::build_transmission_graph(d);
    emit_rows(table, d, gstar, "hub128");
  }
  table.print(std::cout);
  std::printf("Expected shape: on hub128 the Yao graph and Gabriel graph\n"
              "have max_deg ~ n-1 while ThetaALG_N stays constant; EMST has\n"
              "the largest stretch; kNN is the only disconnected row.\n");
  return 0;
}
