// E5 — Lemma 2.9 / Theorem 2.8: every G* edge maps to a replacement path in
// N such that any *non-interfering* edge set T of G* reuses each N edge at
// most a constant number of times (paper bound: 6). Expected shape:
// "max_reuse" <= 6 across n and trials; replacement paths have O(1) hop
// count and O(1) energy overhead, which is how Theorem 2.8's O(tI + n^2)
// simulation follows.

#include "bench/common.h"

#include <algorithm>
#include <iostream>

#include "core/theta_topology.h"
#include "interference/model.h"
#include "topology/transmission_graph.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E5: theta-path replacement of non-interfering G* edge sets",
      "Lemma 2.9 - any N edge is selected by at most 6 theta-paths of any T");

  const interf::InterferenceModel model{0.1};
  sim::Table table("E5 - replacement reuse and path overhead",
                   {"n", "|T|", "max_reuse", "max_hops", "mean_hops",
                    "max_energy_ratio"});
  geom::Rng seed_rng(bench::kSeedRoot + 5);
  for (const std::size_t n : {128UL, 512UL, 2048UL}) {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(n, rng);
    const graph::Graph gstar = topo::build_transmission_graph(d);
    const core::ThetaTopology tt(d, bench::kPi / 9.0);

    // Greedy maximal non-interfering set T, scanning edges in random order.
    std::vector<graph::EdgeId> order(gstar.num_edges());
    for (graph::EdgeId e = 0; e < order.size(); ++e) order[e] = e;
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    std::vector<graph::EdgeId> chosen;
    for (const graph::EdgeId e : order) {
      const graph::Edge& ge = gstar.edge(e);
      bool ok = true;
      for (const graph::EdgeId f : chosen) {
        const graph::Edge& fe = gstar.edge(f);
        if (model.in_interference_set(d.positions[ge.u], d.positions[ge.v],
                                      d.positions[fe.u], d.positions[fe.v])) {
          ok = false;
          break;
        }
      }
      if (ok) chosen.push_back(e);
    }

    std::vector<std::pair<graph::NodeId, graph::NodeId>> matching;
    matching.reserve(chosen.size());
    for (const graph::EdgeId e : chosen)
      matching.push_back({gstar.edge(e).u, gstar.edge(e).v});
    const std::uint32_t reuse = tt.max_replacement_reuse(matching);

    std::size_t max_hops = 0, total_hops = 0;
    double max_energy_ratio = 0.0;
    for (const graph::EdgeId e : chosen) {
      const graph::Edge& ge = gstar.edge(e);
      const auto path = tt.replacement_path(ge.u, ge.v);
      max_hops = std::max(max_hops, path.size());
      total_hops += path.size();
      double energy = 0.0;
      for (const graph::EdgeId pe : path) energy += tt.graph().edge(pe).cost;
      max_energy_ratio = std::max(max_energy_ratio, energy / ge.cost);
    }
    table.row({sim::fmt(n), sim::fmt(chosen.size()), sim::fmt(reuse),
               sim::fmt(max_hops),
               sim::fmt(static_cast<double>(total_hops) /
                            static_cast<double>(std::max<std::size_t>(
                                1, chosen.size())),
                        2),
               sim::fmt(max_energy_ratio, 3)});
  }
  table.print(std::cout);
  std::printf("Expected shape: max_reuse <= 6 in every row (Lemma 2.9);\n"
              "max_energy_ratio bounded by the Theorem 2.2 constant.\n");
  return 0;
}
