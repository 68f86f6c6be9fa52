#pragma once
// The three workloads of the stack benchmark (README.md says why each was
// chosen). Each one builds its stack in the constructor — the set-up the
// benchmark times as setup_s — and then advances it one round per step().
// Every call into a ThetaNet layer goes through the Probe, so the traced
// run can attribute the round to layers from outside the libraries.

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/balancing_router.h"
#include "geom/rng.h"
#include "probe.h"
#include "routing/injection.h"
#include "routing/metrics.h"

namespace perfbench {

using namespace thetanet;

/// Work counts of one run window, summed over its rounds.
struct RoundCounters {
  std::uint64_t rounds = 0;
  std::uint64_t active_edges = 0;     ///< RandomizedMac activations
  std::uint64_t planned_tx = 0;       ///< transmissions handed to execute
  std::uint64_t candidate_pairs = 0;  ///< honeycomb pairs with benefit > T
  std::uint64_t contestants = 0;      ///< honeycomb hexagon winners
  std::uint64_t injected = 0;         ///< packets handed to inject
};

/// Mutable state of one run window. Copying it forks the run.
struct Run {
  Run(core::BalancingRouter r, geom::Rng g) : router(std::move(r)), rng(g) {}

  core::BalancingRouter router;
  route::RunMetrics m;
  geom::Rng rng;
  route::Time t = 0;
  RoundCounters counters;
  std::optional<route::InjectionEngine> engine;  ///< router_sustained only
  // Per-round scratch, reused across rounds.
  std::vector<graph::EdgeId> active;
  std::vector<core::PlannedTx> txs;
  std::vector<bool> failed;
  std::vector<route::Packet> arrivals;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// State at the start of the run window (after set-up and any warm-up).
  virtual Run start() const = 0;

  /// One round of the stack. `fnv`, when given, absorbs the round's
  /// planned transmissions.
  virtual void step(Run& run, Probe& probe, Fnv* fnv) const = 0;

  /// Rounds of the window whose planned transmissions the determinism
  /// checksum covers (a prefix every run reaches).
  virtual std::uint64_t checksum_rounds() const = 0;

  /// Workload-specific correctness checks of a finished window; a failed
  /// check appends its message.
  virtual void check(const Run& run, const Run& start,
                     std::vector<std::string>& failures) const = 0;

  /// Deliveries the certified optimum makes in the window's rounds; 0 when
  /// the workload has no certified trace.
  virtual double opt_deliveries(const Run& run, const Run& start) const = 0;

  /// max_e I_e of the randomized MAC; 0 when the workload has none.
  virtual std::uint32_t interference_bound() const { return 0; }
};

/// Names accepted by make_workload, in BENCHMARK.json order.
const std::vector<std::string>& workload_names();

/// Build (set up) the named workload from `seed`. Set-up calls go through
/// `probe`.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed, Probe& probe);

}  // namespace perfbench
