// E18 — "establish AND MAINTAIN" (abstract): incremental topology
// maintenance under node motion. Moving one node can only change the sector
// tables of nodes within range of its old or new position, so the per-move
// cost is a neighbourhood, not the network. Expected shape: tables touched
// per move is ~ the average degree of G* (flat-ish in n), so the speedup
// over a full rebuild grows linearly with n; the maintained topology always
// equals the from-scratch rebuild.

#include "bench/common.h"

#include <iostream>

#include "core/theta_maintenance.h"
#include "sim/stats.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E18: incremental maintenance under node motion",
      "abstract - establish and maintain the overlay with local work only");

  geom::Rng seed_rng(bench::kSeedRoot + 19);
  sim::Table table("E18 - per-move table recomputations (50 local moves)",
                   {"n", "touched/move", "full_rebuild", "speedup",
                    "always_correct"});
  for (const std::size_t n : {128UL, 512UL, 2048UL}) {
    geom::Rng rng = seed_rng.fork();
    topo::Deployment d = bench::uniform_deployment(n, rng);
    core::ThetaMaintainer maintainer(d, bench::kPi / 9.0);
    sim::Accumulator touched;
    bool correct = true;
    for (int move = 0; move < 50; ++move) {
      const auto v = static_cast<graph::NodeId>(rng.uniform_index(n));
      geom::Vec2 p = maintainer.deployment().positions[v];
      p.x = std::clamp(p.x + rng.normal(0.0, 0.2 * d.max_range), 0.0, 1.0);
      p.y = std::clamp(p.y + rng.normal(0.0, 0.2 * d.max_range), 0.0, 1.0);
      touched.add(static_cast<double>(maintainer.move_node(v, p)));
      if (move % 10 == 0) correct = correct && maintainer.matches_full_rebuild();
    }
    correct = correct && maintainer.matches_full_rebuild();
    table.row({sim::fmt(n), sim::fmt(touched.mean(), 1), sim::fmt(n),
               sim::fmt(static_cast<double>(n) / touched.mean(), 1),
               correct ? "yes" : "NO"});
  }
  table.print(std::cout);
  std::printf("Expected shape: touched/move ~ average neighbourhood size\n"
              "(grows only with ln n at connectivity density), so the\n"
              "speedup over the n-row full rebuild grows ~linearly in n;\n"
              "'always_correct' must be yes — locality never changes the\n"
              "output, exactly the paper's establish-and-maintain claim.\n");
  return 0;
}
