#pragma once
// Soak runs: the sustained-load injection engine driven for N*10^5 rounds
// with periodic telemetry stream frames and the drift watchdog attached —
// the "turn one-shot benches into soak tests" half of ROADMAP item 5.
//
// Determinism contract: the frame stream written to `frames_out` is a pure
// function of the spec — byte-identical across TN_NUM_THREADS (the
// soak_determinism ctest pins {1,2,4}) — because it only carries merged,
// thread-count-invariant telemetry. Watchdog inputs (RSS, wall time) stay
// out of the stream by construction.
//
// Replica shards: `shards` > 1 steps that many same-seed copies of the
// whole router+injector stack in lockstep. Replicas run with telemetry
// recording suspended (shard 0 owns the dump), and their planned-tx FNV
// checksums feed the watchdog's determinism check each interval.

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "routing/injection.h"
#include "serve/watchdog.h"

namespace thetanet::serve {

struct SoakSpec {
  std::size_t n = 512;            ///< deployment size
  std::uint64_t topo_seed = 1;    ///< deployment seed (retried until connected)
  std::uint64_t rounds = 200000;  ///< total simulation rounds
  std::uint64_t interval = 5000;  ///< rounds between stream frames / samples
  int shards = 2;                 ///< same-seed replicas (>= 1)

  route::InjectionSpec inject;  ///< traffic process (seed inside)

  // Router parameters (bench_router's sustained-load defaults).
  double threshold = 0.5;
  double gamma = 0.0;
  std::size_t max_height = 32;

  /// Advertisement quantum of BalancingRouter(n, params, quantum): 0 plans
  /// on live heights; >= 1 plans on advertised heights and keeps the control
  /// ledgers the watchdog's flat-rate check monitors.
  std::size_t quantum = 0;

  bool fold_check = false;  ///< re-parse + fold the stream, byte-compare
  bool plant_leak = false;  ///< fault injection: BufferBank::plant_pool_leak

  WatchdogConfig watchdog;
};

struct SoakResult {
  bool ok = false;        ///< no watchdog violations and fold check passed
  bool fold_ok = true;    ///< fold-of-frames byte-equals the final dump
  std::uint64_t frames = 0;
  std::uint64_t rounds = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t injected_accepted = 0;
  std::uint64_t leftover = 0;
  std::uint64_t checksum = 0;  ///< shard-0 planned-tx FNV
  double warm_rss_mb = 0.0;
  double peak_rss_mb = 0.0;
  std::vector<std::string> violations;
  std::string final_dump;  ///< thetanet-telemetry/2 document of the run
};

/// Run the soak. Stream frames are written to `frames_out` as emitted;
/// everything else lands in the result. Resets the global telemetry
/// registries at entry so the stream describes exactly this run.
SoakResult run_soak(const SoakSpec& spec, std::ostream& frames_out);

}  // namespace thetanet::serve
