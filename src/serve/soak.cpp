#include "serve/soak.h"

#include <cmath>
#include <memory>
#include <ostream>

#include "core/balancing_router.h"
#include "graph/connectivity.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/stream.h"
#include "obs/trace_sink.h"
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
  std::unique_ptr<core::BalancingRouter> router;
  std::unique_ptr<route::InjectionEngine> engine;
  route::RunMetrics m;
  Fnv checksum;
  std::vector<core::PlannedTx> txs;
  std::vector<route::Packet> arrivals;
};

void mix_txs(Fnv& f, const std::vector<core::PlannedTx>& txs) {
  f.mix(txs.size());
  for (const core::PlannedTx& tx : txs) {
    f.mix(tx.edge);
    f.mix(tx.from);
    f.mix(tx.dest);
    f.mix_double(tx.benefit);
  }
}

void step_shard(Shard& s, const graph::Graph& g,
                std::span<const double> costs, std::uint64_t t) {
  const auto now = static_cast<route::Time>(t);
  const std::vector<bool> no_failures;
  s.router->plan_all_edges_into(g, costs, s.txs);
  mix_txs(s.checksum, s.txs);
  s.router->execute(s.txs, no_failures, costs, now, s.m);
  s.engine->step(now, s.m, s.arrivals);
  for (const route::Packet& p : s.arrivals) s.router->inject(p, s.m);
  s.router->end_step(s.m);
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

  std::vector<double> costs(g.num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e) costs[e] = g.edge(e).cost;

  const core::BalancingParams params{spec.threshold, spec.gamma,
                                     spec.max_height};
  const int num_shards = spec.shards < 1 ? 1 : spec.shards;
  std::vector<Shard> shards(static_cast<std::size_t>(num_shards));
  for (Shard& s : shards) {
    s.router = std::make_unique<core::BalancingRouter>(g.num_nodes(), params,
                                                       spec.quantum);
    if (spec.plant_leak)
      s.router->buffers_for_fault_injection().plant_pool_leak(true);
    s.engine = std::make_unique<route::InjectionEngine>(g, spec.inject);
  }

  DriftWatchdog watchdog(spec.watchdog, spec.rounds);
  obs::TelemetryStreamer streamer;
  std::string stream_copy;  // only filled under fold_check
  std::vector<std::uint64_t> checksums(shards.size());

  const std::uint64_t interval = std::max<std::uint64_t>(1, spec.interval);
  for (std::uint64_t t = 0; t < spec.rounds; ++t) {
    step_shard(shards[0], g, costs, t);
    if (shards.size() > 1) {
      // Replicas re-execute the identical round; suspending recording keeps
      // the dump describing exactly one run's worth of events.
      obs::set_recording(false);
      for (std::size_t i = 1; i < shards.size(); ++i)
        step_shard(shards[i], g, costs, t);
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
  out.deliveries = s0.m.deliveries;
  out.injected_accepted = s0.m.injected_accepted;
  out.leftover = s0.router->packets_in_flight();
  out.checksum = s0.checksum.h;
  out.warm_rss_mb = watchdog.warm_rss_mb();
  out.peak_rss_mb = peak_rss_mb();
  for (const std::string& v : watchdog.violations())
    out.violations.push_back(v);
  out.ok = out.violations.empty();
  return out;
}

}  // namespace thetanet::serve
