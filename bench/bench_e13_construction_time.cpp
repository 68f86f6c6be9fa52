// E13 — the closing remark of Section 2.1: "the three rounds of message
// exchanges may take a variable amount of time due to the interference and
// confliction." We run ThetaALG's construction over a slotted random-access
// medium and measure the slots each round needs as the network grows and as
// the transmission probability p varies. Expected shape: slots grow mildly
// with n (contention is neighbourhood-local, ~Delta log n, not global); p
// has a sweet spot near 1/Delta; the produced topology always equals the
// centralized construction.

#include "bench/common.h"

#include <iostream>

#include "core/contention_protocol.h"
#include "sim/stats.h"

int main() {
  using namespace thetanet;
  bench::print_header(
      "E13: ThetaALG construction time under medium contention",
      "Section 2.1 closing remark - rounds take variable time under "
      "interference, but the protocol stays local and correct");

  geom::Rng seed_rng(bench::kSeedRoot + 14);
  sim::Table table("E13 - slots per round vs n (p = 0.05, 3 trials)",
                   {"n", "avg_deg", "round1", "round2", "round3",
                    "total_slots", "colls_per_tx", "correct"});
  for (const std::size_t n : {64UL, 256UL, 1024UL}) {
    sim::Accumulator r1, r2, r3, tot;
    double coll_frac = 0.0;
    double avg_deg = 0.0;
    bool all_correct = true;
    for (int trial = 0; trial < 3; ++trial) {
      geom::Rng rng = seed_rng.fork();
      const topo::Deployment d = bench::uniform_deployment(n, rng);
      const auto s = core::run_contention_protocol(d, bench::kPi / 9.0, 0.05,
                                                   rng);
      all_correct = all_correct && s.matches_centralized;
      r1.add(static_cast<double>(s.slots_round1));
      r2.add(static_cast<double>(s.slots_round2));
      r3.add(static_cast<double>(s.slots_round3));
      tot.add(static_cast<double>(s.total_slots()));
      coll_frac = s.transmissions == 0
                      ? 0.0
                      : static_cast<double>(s.collisions) /
                            static_cast<double>(s.transmissions);
      avg_deg = 3.14159 * d.max_range * d.max_range * static_cast<double>(n);
    }
    table.row({sim::fmt(n), sim::fmt(avg_deg, 1), sim::fmt(r1.mean(), 0),
               sim::fmt(r2.mean(), 0), sim::fmt(r3.mean(), 0),
               sim::fmt_mean_sd(tot, 0), sim::fmt(coll_frac, 2),
               all_correct ? "yes" : "NO"});
  }
  table.print(std::cout);

  sim::Table psweep("E13b - transmission probability sweep (n = 256)",
                    {"p", "total_slots", "transmissions", "colls_per_tx",
                     "correct"});
  for (const double p : {0.01, 0.05, 0.2, 0.5}) {
    geom::Rng rng = seed_rng.fork();
    const topo::Deployment d = bench::uniform_deployment(256, rng);
    const auto s = core::run_contention_protocol(d, bench::kPi / 9.0, p, rng);
    psweep.row({sim::fmt(p, 2), sim::fmt(s.total_slots()),
                sim::fmt(s.transmissions),
                sim::fmt(s.transmissions == 0
                             ? 0.0
                             : static_cast<double>(s.collisions) /
                                   static_cast<double>(s.transmissions),
                         2),
                s.matches_centralized ? "yes" : "NO(truncated)"});
  }
  psweep.print(std::cout);
  std::printf("Expected shape: total_slots grows far slower than n (local\n"
              "contention only); the p sweep shows the ALOHA sweet spot —\n"
              "too small wastes silent slots, too large collides; 'correct'\n"
              "is yes wherever the run completed: contention delays ThetaALG\n"
              "but never changes its output.\n");
  return 0;
}
