#include "serve/soak.h"

#include <cmath>
#include <ostream>
#include <utility>

#include "common/fnv.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/stream.h"
#include "obs/trace_sink.h"
#include "sim/stack.h"
#include "topology/distributions.h"
#include "topology/transmission_graph.h"

namespace thetanet::serve {

namespace {

topo::Deployment soak_deployment(std::size_t n, std::uint64_t seed) {
  topo::Deployment d;
  geom::Rng rng(0x50a1u + seed);
  d.positions = topo::uniform_square(n, 1.0, rng);
  d.max_range = 1.6 * std::sqrt(std::log(static_cast<double>(n)) /
                                static_cast<double>(n));
  d.kappa = 2.0;
  return d;
}

/// One same-seed replica of the full stack. Shard 0 records telemetry;
/// replicas step with recording suspended and only contribute checksums.
struct Shard {
  sim::Stack stack;
  route::InjectionEngine engine;
  tn::Fnv checksum;
};

void step_shard(Shard& s) {
  s.stack.all_edges();
  tn::mix_txs(s.checksum, s.stack.txs());
  s.stack.finish(s.engine);
}

}  // namespace

SoakResult run_soak(const SoakSpec& spec, std::ostream& frames_out) {
  SoakResult out;
  // The stream must describe exactly this run: drop whatever the process
  // recorded before (CLI argument handling, generation, earlier commands).
  obs::MetricsRegistry::global().reset();
  obs::SeriesRegistry::global().reset();
  obs::reset_spans();

  // Deterministic connected deployment: bump the seed until the
  // transmission graph is connected (uniform placements at the soak's
  // default density almost always connect on the first try).
  topo::Deployment d = soak_deployment(spec.n, spec.topo_seed);
  graph::Graph g = topo::build_transmission_graph(d);
  for (std::uint64_t retry = 1; !graph::is_connected(g) && retry < 32;
       ++retry) {
    d = soak_deployment(spec.n, spec.topo_seed + (retry << 16));
    g = topo::build_transmission_graph(d);
  }

  const core::BalancingParams params{spec.threshold, spec.gamma,
                                     spec.max_height};
  const int num_shards = spec.shards < 1 ? 1 : spec.shards;
  std::vector<Shard> shards;
  for (int i = 0; i < num_shards; ++i) {
    core::BalancingRouter router(g.num_nodes(), params, spec.quantum);
    if (spec.plant_leak)
      router.buffers_for_fault_injection().plant_pool_leak(true);
    shards.push_back({sim::Stack(g, std::move(router)),
                      route::InjectionEngine(g, spec.inject), {}});
  }

  DriftWatchdog watchdog(spec.watchdog, spec.rounds);
  obs::TelemetryStreamer streamer;
  std::string stream_copy;  // only filled under fold_check
  std::vector<std::uint64_t> checksums(shards.size());

  const std::uint64_t interval = std::max<std::uint64_t>(1, spec.interval);
  for (std::uint64_t t = 0; t < spec.rounds; ++t) {
    step_shard(shards[0]);
    if (shards.size() > 1) {
      // Replicas re-execute the identical round; suspending recording keeps
      // the dump describing exactly one run's worth of events.
      obs::set_recording(false);
      for (std::size_t i = 1; i < shards.size(); ++i)
        step_shard(shards[i]);
      obs::set_recording(true);
    }
    if ((t + 1) % interval == 0 || t + 1 == spec.rounds) {
      const std::string frame = streamer.next_frame();
      frames_out << frame;
      if (spec.fold_check) stream_copy += frame;
      for (std::size_t i = 0; i < shards.size(); ++i)
        checksums[i] = shards[i].checksum.h;
      watchdog.sample(t + 1, peak_rss_mb(), checksums);
    }
  }
  watchdog.finish();

  // The last frame was captured after the final round, with nothing
  // recorded since — so the one-shot dump of the same state is exactly the
  // fold of the stream.
  out.final_dump = obs::to_json(streamer.last_snapshot());
  if (spec.fold_check) {
    std::string err;
    const auto frames = obs::parse_telemetry_stream(stream_copy, &err);
    out.fold_ok = false;
    if (frames) {
      obs::StreamFolder folder;
      bool folded = true;
      for (const obs::ParsedFrame& f : *frames)
        folded = folded && folder.fold(f, &err);
      out.fold_ok = folded && folder.to_dump_json() == out.final_dump;
    }
    if (!out.fold_ok)
      out.violations.push_back(
          "stream fold does not reproduce the final dump" +
          (err.empty() ? std::string() : " (" + err + ")"));
  }

  const Shard& s0 = shards[0];
  out.frames = streamer.frames_emitted();
  out.rounds = spec.rounds;
  out.deliveries = s0.stack.metrics().deliveries;
  out.injected_accepted = s0.stack.metrics().injected_accepted;
  out.leftover = s0.stack.router().packets_in_flight();
  out.checksum = s0.checksum.h;
  out.warm_rss_mb = watchdog.warm_rss_mb();
  out.peak_rss_mb = peak_rss_mb();
  for (const std::string& v : watchdog.violations())
    out.violations.push_back(v);
  out.ok = out.violations.empty();
  return out;
}

}  // namespace thetanet::serve
