// Sustained-load router benchmark: drives the (T, gamma)-balancing stack
// (SoA BufferBank + allocation-free step loop) for up to 10^6 rounds under
// the injection processes of routing/injection.h and writes machine-readable
// BENCH_router.json to the working directory.
//
// Default (matrix) mode sweeps nodes x workload x engine:
//
//   * engine "soa"       — the production sustained-load path
//                          (plan_all_edges_into: active-node candidate scan,
//                          deduplicated and ordered by a per-edge bitmap
//                          sweep);
//   * engine "reference" — the pre-SoA map-of-vectors oracle
//                          (routing/reference_router.h), measured at matched
//                          workload so speedup_vs_reference is apples to
//                          apples.
//
// Per entry: rounds/sec, packets/sec (deliveries), ns per packet-hop, the
// forked child's peak RSS, a warm-up RSS snapshot with an rss_flat verdict
// (peak RSS after warm-up must not keep growing — the O(capacity) steady-
// state memory claim), and an FNV checksum over the full planned-tx stream.
// The checksum doubles as the reference-equivalence check (the oracle must
// plan the same stream at matched workload). The step loop is serial, so
// the matrix runs at one thread; the router_telemetry_thread_diff ctests
// pin its output across TN_NUM_THREADS.
//
// The matrix also sweeps the router's control-plane ledger at advertisement
// quantum 2 (BalancingRouter(n, params, 2), matched Poisson workload, same
// plan_all_edges_into path as "soa") across the node sizes and writes a
// "control_plane" section — control messages/bytes per node per round —
// which bench_compare gates for flatness as n grows (the constant
// per-node control-bandwidth claim of ROADMAP item 2).
//
// Each entry is timed in a forked child (bench::run_in_child, shared with
// bench_kernels: allocator state must not leak across entries; an RLIMIT_AS
// backstop catches runaway allocation under --max-rss-mb MB, the matrix
// mode's only flag).
//
// --single mode runs one configuration in-process (used by the ctest smoke,
// memory-budget and telemetry byte-identity tests):
//
//   bench_router --single [--workload poisson|bursty|hotspot|adversarial]
//     [--engine soa|reference] [--n N] [--rate R] [--rounds K]
//     [--window W] [--sources S] [--dests D] [--threshold T] [--gamma G]
//     [--max-height H] [--seed S] [--telemetry FILE] [--max-rss-mb MB]
//     [--rlimit-as-mb MB] [--check-flat-rss]
//
// Environment: TN_BENCH_ROUTER_ROUNDS caps the per-entry base rounds,
// TN_BENCH_ROUTER_MAX_N caps n, TN_BENCH_ROUTER_ACCEPT_ROUNDS overrides the
// 10^6-round acceptance entry (the ctest smoke uses tiny values for all).
// A value that is not a non-negative integer exits 2.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numbers>
#include <optional>
#include <string>
#include <vector>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

#include "common.h"
#include "common/fnv.h"
#include "common/parallel.h"
#include "core/balancing_router.h"
#include "core/theta_topology.h"
#include "graph/edge_costs.h"
#include "geom/rng.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "obs/timeseries.h"
#include "obs/trace_sink.h"
#include "routing/injection.h"
#include "routing/reference_router.h"
#include "sim/stack.h"

namespace {

using namespace thetanet;
using bench::peak_rss_mb;
constexpr double kTheta = std::numbers::pi / 9.0;

enum class Engine { kSoa, kReference };

const char* engine_name(Engine e) {
  switch (e) {
    case Engine::kSoa: return "soa";
    case Engine::kReference: return "reference";
  }
  return "?";
}

struct RunConfig {
  route::InjectionSpec spec;
  Engine engine = Engine::kSoa;
  std::uint64_t rounds = 20000;
  // T must sit below the typical height gradient or traffic freezes: at
  // closed-loop occupancy (~1 packet per node-destination) gradients are
  // mostly 1, so T = 0.5 keeps the benchmark measuring flow, not stalls.
  double threshold = 0.5;
  double gamma = 0.0;
  std::size_t max_height = 32;
  /// Advertisement quantum of the soa engine's BalancingRouter (>= 1 for
  /// the control-plane ledger sweep).
  std::size_t quantum = 0;
};

struct SimOut {
  double ms = 0.0;
  std::uint64_t rounds = 0;
  std::uint64_t checksum = 0;
  std::uint64_t deliveries = 0;
  std::uint64_t attempted_tx = 0;
  std::uint64_t injected_accepted = 0;
  std::uint64_t dropped = 0;  // at injection + in transit
  std::uint64_t leftover = 0;
  std::uint64_t peak_buffer = 0;
  std::uint64_t control_messages = 0;  // 0 unless quantum >= 1
  std::uint64_t control_bytes = 0;     // 0 unless quantum >= 1
  double warm_rss_mb = 0.0;
  double peak_rss_mb = 0.0;
};

/// One full sustained run. The warm-up RSS snapshot is taken at 1/5 of the
/// run; a steady-state loop must not grow its footprint past that point
/// (modulo the final snapshot's own noise), which is what rss_flat asserts.
SimOut run_sim(const graph::Graph& g, const RunConfig& cfg) {
  route::InjectionEngine engine(g, cfg.spec);
  route::RunMetrics m;
  tn::Fnv f;
  SimOut out;
  const std::uint64_t warm_at = std::max<std::uint64_t>(1, cfg.rounds / 5);

  const auto t0 = std::chrono::steady_clock::now();
  if (cfg.engine == Engine::kReference) {
    const std::vector<double> costs = graph::edge_costs(g);
    std::vector<graph::EdgeId> all_edges(g.num_edges());
    for (graph::EdgeId e = 0; e < all_edges.size(); ++e) all_edges[e] = e;
    std::vector<route::Packet> arrivals;
    const std::vector<bool> no_failures;
    route::ReferenceRouter router(g.num_nodes(), cfg.threshold, cfg.gamma,
                                  cfg.max_height);
    for (std::uint64_t t = 0; t < cfg.rounds; ++t) {
      const auto now = static_cast<route::Time>(t);
      const std::vector<route::ReferenceTx> txs =
          router.plan(g, all_edges, costs);
      tn::mix_txs(f, txs);
      router.execute(txs, no_failures, costs, now, m);
      engine.step(now, m, arrivals);
      for (const route::Packet& p : arrivals) router.inject(p, m);
      router.end_step(m);
      if (t + 1 == warm_at) out.warm_rss_mb = peak_rss_mb();
    }
    out.leftover = router.packets_in_flight();
  } else {
    const core::BalancingParams params{cfg.threshold, cfg.gamma,
                                       cfg.max_height};
    sim::Stack stack(g, core::BalancingRouter(g.num_nodes(), params,
                                              cfg.quantum));
    for (std::uint64_t t = 0; t < cfg.rounds; ++t) {
      stack.all_edges();
      tn::mix_txs(f, stack.txs());
      stack.finish(engine);
      if (t + 1 == warm_at) out.warm_rss_mb = peak_rss_mb();
    }
    m = stack.metrics();
    out.leftover = stack.router().packets_in_flight();
    out.control_messages = stack.router().control_messages();
    out.control_bytes = stack.router().control_bytes();
  }
  const auto t1 = std::chrono::steady_clock::now();

  out.ms = std::chrono::duration<double, std::milli>(t1 - t0).count();
  out.rounds = cfg.rounds;
  out.checksum = f.h;
  out.deliveries = m.deliveries;
  out.attempted_tx = m.attempted_tx;
  out.injected_accepted = m.injected_accepted;
  out.dropped = m.dropped_at_injection + m.dropped_in_transit;
  out.peak_buffer = m.peak_buffer;
  out.peak_rss_mb = peak_rss_mb();
  return out;
}

topo::Deployment deployment(std::size_t n) {
  geom::Rng rng(0xbe9c4 + n);
  return bench::uniform_deployment(n, rng);
}

// ---------------------------------------------------------------------------
// Matrix mode (forked children -> BENCH_router.json)

double g_max_rss_mb = 0.0;

bool rss_flat(const SimOut& r) {
  // Steady state: post-warm-up growth bounded by a fixed allowance (pool /
  // allocator settling) — not proportional to the rounds that follow.
  const double allowance = std::max(24.0, 0.10 * r.warm_rss_mb);
  return r.peak_rss_mb <= r.warm_rss_mb + allowance;
}

/// Run one entry in a forked child (pristine allocator, RLIMIT_AS backstop
/// under a budget); nullopt when the child died, so the entry is skipped.
std::optional<SimOut> time_entry(const graph::Graph& g, const RunConfig& cfg) {
  const std::optional<SimOut> r =
      bench::run_in_child<SimOut>(g_max_rss_mb, [&] {
#if defined(__GLIBC__)
        malloc_trim(0);
#endif
        return run_sim(g, cfg);
      });
  if (!r)
    std::fprintf(stderr,
                 "bench_router: child for %s/%s n=%zu died%s; skipping\n",
                 route::injection_process_name(cfg.spec.process),
                 engine_name(cfg.engine), g.num_nodes(),
                 g_max_rss_mb > 0.0 ? " (RSS budget backstop?)" : "");
  return r;
}

/// An environment override parsed like a flag value: anything but a
/// non-negative integer exits 2 with "bad value for NAME".
std::uint64_t env_u64(const char* name, std::uint64_t fallback) {
  if (const char* s = std::getenv(name))
    return bench::parse_flag<std::uint64_t>(name, s);
  return fallback;
}

struct Entry {
  RunConfig cfg;
  std::size_t n = 0;
  SimOut r;
  bool accept = false;  // the 10^6-round acceptance row
};

route::InjectionSpec workload_spec(route::InjectionSpec::Process p,
                                   std::size_t n) {
  route::InjectionSpec spec;
  spec.process = p;
  spec.seed = 0x9e3779b9 + n;
  spec.num_sources = static_cast<std::uint32_t>(std::min<std::size_t>(64, n / 4));
  spec.window = 256;  // closed loop: O(window) packets outstanding
  switch (p) {
    case route::InjectionSpec::Process::kPoisson:
      spec.rate = 4.0;
      spec.num_destinations = 8;
      break;
    case route::InjectionSpec::Process::kBursty:
      spec.rate = 2.0;
      spec.num_destinations = 8;
      spec.burst_len = 64;
      spec.gap_len = 192;
      spec.burst_multiplier = 4.0;
      break;
    case route::InjectionSpec::Process::kHotspot:
      spec.rate = 4.0;
      spec.num_destinations = 4;
      break;
    case route::InjectionSpec::Process::kAdversarialCut:
      spec.rate = 0.25;  // x deg(target): near the cut capacity
      spec.num_destinations = 1;
      break;
  }
  return spec;
}

int run_matrix() {
  const std::uint64_t base_rounds = env_u64("TN_BENCH_ROUTER_ROUNDS", 20000);
  const std::uint64_t max_n = env_u64("TN_BENCH_ROUTER_MAX_N", 1000000);
  const std::uint64_t accept_rounds = std::min(
      env_u64("TN_BENCH_ROUTER_ACCEPT_ROUNDS", 1000000),
      std::max<std::uint64_t>(base_rounds, 1) * 50);

  using P = route::InjectionSpec::Process;
  const P processes[] = {P::kPoisson, P::kBursty, P::kHotspot,
                         P::kAdversarialCut};

  std::vector<Entry> entries;
  bool reference_match = true;

  // Control-plane ledger sweep (ROADMAP item 2's leftover): the router's
  // advertise/retire byte budget at quantum 2 per node per round, across the
  // node sweep. bench_compare's control_plane gate asserts the per-node
  // figure stays flat as n grows.
  struct ControlRow {
    std::size_t n = 0;
    std::size_t quantum = 0;
    std::uint64_t rounds = 0;
    std::uint64_t control_messages = 0;
    std::uint64_t control_bytes = 0;
  };
  std::vector<ControlRow> control_rows;

  std::vector<std::size_t> sizes{1000, 10000};
  std::erase_if(sizes, [&](std::size_t n) { return n > max_n; });
  if (sizes.empty()) sizes.push_back(static_cast<std::size_t>(max_n));

  for (const std::size_t n : sizes) {
    tn::set_num_threads(1);  // parent stays pool-free (fork safety)
    const topo::Deployment d = deployment(n);
    const core::ThetaTopology tt(d, kTheta);
    const graph::Graph& g = tt.graph();

    for (const P p : processes) {
      for (const Engine eng : {Engine::kSoa, Engine::kReference}) {
        Entry e;
        e.n = n;
        e.cfg.spec = workload_spec(p, n);
        e.cfg.engine = eng;
        e.cfg.rounds = base_rounds;
        const std::optional<SimOut> r = time_entry(g, e.cfg);
        if (!r) continue;
        e.r = *r;
        std::printf(
            "router %-11s %-9s n=%-7zu rounds=%-8llu %10.2f ms  "
            "%9.0f rounds/s  rss %7.1f MB\n",
            route::injection_process_name(p), engine_name(eng), n,
            static_cast<unsigned long long>(e.r.rounds), e.r.ms,
            e.r.ms > 0 ? 1000.0 * static_cast<double>(e.r.rounds) / e.r.ms
                       : 0.0,
            e.r.peak_rss_mb);
        std::fflush(stdout);
        entries.push_back(e);
      }
      // The oracle must plan the exact same transmission stream.
      const auto find = [&](Engine eng) -> const Entry* {
        for (auto it = entries.rbegin(); it != entries.rend(); ++it)
          if (it->n == n && it->cfg.engine == eng &&
              it->cfg.spec.process == p)
            return &*it;
        return nullptr;
      };
      const Entry* soa = find(Engine::kSoa);
      const Entry* ref = find(Engine::kReference);
      if (soa != nullptr && ref != nullptr &&
          soa->r.checksum != ref->r.checksum) {
        reference_match = false;
        std::fprintf(stderr,
                     "REFERENCE MISMATCH: %s/soa n=%zu plans diverge from "
                     "the oracle\n",
                     route::injection_process_name(p), n);
      }
    }

    // Quantized control plane at this n: matched closed-loop Poisson
    // workload, quantum 2 (the staleness/bandwidth sweet spot of E15).
    {
      RunConfig cfg;
      cfg.spec = workload_spec(P::kPoisson, n);
      cfg.rounds = base_rounds;
      cfg.quantum = 2;
      if (const std::optional<SimOut> r = time_entry(g, cfg)) {
        control_rows.push_back(
            {n, cfg.quantum, r->rounds, r->control_messages, r->control_bytes});
        const double per_node_round =
            static_cast<double>(r->control_bytes) /
            (static_cast<double>(n) * static_cast<double>(r->rounds));
        std::printf(
            "router control     quantized n=%-7zu rounds=%-8llu "
            "%llu msgs  %llu bytes  %.4f bytes/node/round\n",
            n, static_cast<unsigned long long>(r->rounds),
            static_cast<unsigned long long>(r->control_messages),
            static_cast<unsigned long long>(r->control_bytes), per_node_round);
        std::fflush(stdout);
      }
    }
  }

  // Acceptance row: >= 10^6 rounds of sustained Poisson load on the largest
  // size, production engine, O(window) steady-state memory.
  {
    const std::size_t n = sizes.back();
    tn::set_num_threads(1);
    const topo::Deployment d = deployment(n);
    const core::ThetaTopology tt(d, kTheta);
    Entry e;
    e.n = n;
    e.cfg.spec = workload_spec(P::kPoisson, n);
    e.cfg.engine = Engine::kSoa;
    e.cfg.rounds = accept_rounds;
    e.accept = true;
    if (const std::optional<SimOut> r = time_entry(tt.graph(), e.cfg)) {
      e.r = *r;
      std::printf(
          "router sustained   soa       n=%-7zu rounds=%-8llu %10.2f ms  "
          "rss %7.1f MB (warm %.1f) %s\n",
          n, static_cast<unsigned long long>(e.r.rounds), e.r.ms,
          e.r.peak_rss_mb, e.r.warm_rss_mb,
          rss_flat(e.r) ? "flat" : "GROWING");
      entries.push_back(e);
    }
  }

  // Speedups vs the reference oracle at matched (workload, n, rounds).
  struct Speedup {
    const char* workload;
    const char* engine;
    std::size_t n;
    double speedup;
  };
  std::vector<Speedup> speedups;
  for (const Entry& e : entries) {
    if (e.cfg.engine == Engine::kReference || e.accept)
      continue;
    for (const Entry& ref : entries) {
      if (ref.cfg.engine == Engine::kReference && ref.n == e.n &&
          ref.cfg.spec.process == e.cfg.spec.process &&
          ref.cfg.rounds == e.cfg.rounds && e.r.ms > 0.0) {
        speedups.push_back({route::injection_process_name(e.cfg.spec.process),
                            engine_name(e.cfg.engine), e.n,
                            ref.r.ms / e.r.ms});
        break;
      }
    }
  }
  for (const Speedup& s : speedups)
    std::printf("speedup %-11s %-9s n=%-7zu %.2fx vs reference\n", s.workload,
                s.engine, s.n, s.speedup);

  std::FILE* out = std::fopen("BENCH_router.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_router.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"schema\": \"thetanet-bench-router/1\",\n");
  std::fprintf(out, "  \"hardware_concurrency\": %d,\n",
               tn::hardware_threads());
  std::fprintf(out, "  \"reference_plans_match\": %s,\n",
               reference_match ? "true" : "false");
  std::fprintf(out, "  \"speedups_vs_reference\": [");
  for (std::size_t i = 0; i < speedups.size(); ++i)
    std::fprintf(out,
                 "%s\n    {\"workload\": \"%s\", \"engine\": \"%s\", "
                 "\"n\": %zu, \"speedup\": %.2f}",
                 i ? "," : "", speedups[i].workload, speedups[i].engine,
                 speedups[i].n, speedups[i].speedup);
  std::fprintf(out, "%s],\n", speedups.empty() ? "" : "\n  ");
  std::fprintf(out, "  \"control_plane\": [");
  for (std::size_t i = 0; i < control_rows.size(); ++i) {
    const ControlRow& c = control_rows[i];
    const double denom =
        static_cast<double>(c.n) * static_cast<double>(c.rounds);
    std::fprintf(out,
                 "%s\n    {\"n\": %zu, \"quantum\": %zu, \"rounds\": %llu, "
                 "\"control_messages\": %llu, \"control_bytes\": %llu, "
                 "\"msgs_per_node_per_round\": %.6f, "
                 "\"bytes_per_node_per_round\": %.6f}",
                 i ? "," : "", c.n, c.quantum,
                 static_cast<unsigned long long>(c.rounds),
                 static_cast<unsigned long long>(c.control_messages),
                 static_cast<unsigned long long>(c.control_bytes),
                 denom > 0 ? static_cast<double>(c.control_messages) / denom
                           : 0.0,
                 denom > 0 ? static_cast<double>(c.control_bytes) / denom
                           : 0.0);
  }
  std::fprintf(out, "%s],\n", control_rows.empty() ? "" : "\n  ");
  std::fprintf(out, "  \"results\": [\n");
  for (std::size_t i = 0; i < entries.size(); ++i) {
    const Entry& e = entries[i];
    const SimOut& r = e.r;
    const double sec = r.ms / 1000.0;
    std::fprintf(
        out,
        "    {\"workload\": \"%s\", \"engine\": \"%s\", \"n\": %zu, "
        "\"rate\": %.3f, \"window\": %u, \"rounds\": %llu, "
        "\"ms\": %.3f, \"rounds_per_sec\": %.0f, \"packets_per_sec\": %.0f, "
        "\"ns_per_packet_hop\": %.1f, \"deliveries\": %llu, "
        "\"attempted_tx\": %llu, \"injected_accepted\": %llu, "
        "\"dropped\": %llu, \"leftover\": %llu, \"peak_buffer\": %llu, "
        "\"warm_rss_mb\": %.1f, \"peak_rss_mb\": %.1f, \"rss_flat\": %s, "
        "\"checksum\": \"%016llx\"}%s\n",
        route::injection_process_name(e.cfg.spec.process),
        engine_name(e.cfg.engine), e.n, e.cfg.spec.rate, e.cfg.spec.window,
        static_cast<unsigned long long>(r.rounds), r.ms,
        sec > 0 ? static_cast<double>(r.rounds) / sec : 0.0,
        sec > 0 ? static_cast<double>(r.deliveries) / sec : 0.0,
        r.attempted_tx > 0 ? r.ms * 1e6 / static_cast<double>(r.attempted_tx)
                           : 0.0,
        static_cast<unsigned long long>(r.deliveries),
        static_cast<unsigned long long>(r.attempted_tx),
        static_cast<unsigned long long>(r.injected_accepted),
        static_cast<unsigned long long>(r.dropped),
        static_cast<unsigned long long>(r.leftover),
        static_cast<unsigned long long>(r.peak_buffer), r.warm_rss_mb,
        r.peak_rss_mb, rss_flat(r) ? "true" : "false",
        static_cast<unsigned long long>(r.checksum),
        i + 1 < entries.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_router.json\n");
  return reference_match ? 0 : 1;
}

// ---------------------------------------------------------------------------
// --single mode (in-process; ctest smoke / memory budget / telemetry dumps)

int run_single(int argc, char** argv) {
  RunConfig cfg;
  cfg.spec.rate = 4.0;
  cfg.spec.num_destinations = 8;
  cfg.spec.num_sources = 64;
  cfg.spec.window = 256;
  cfg.spec.seed = 1;
  cfg.rounds = 10000;
  std::size_t n = 10000;
  std::string telemetry_path;
  double max_rss_mb = 0.0;
  double rlimit_as_mb = 0.0;
  bool check_flat = false;

  for (int i = 2; i < argc; ++i) {
    const char* flag = argv[i];
    const auto is = [&](const char* name) {
      return std::strcmp(flag, name) == 0;
    };
    if (is("--check-flat-rss")) {
      check_flat = true;
      continue;
    }
    if (i + 1 == argc) {
      std::fprintf(stderr, "bench_router: unknown flag '%s'\n", flag);
      return 2;
    }
    const char* v = argv[++i];
    if (is("--workload")) {
      if (!route::parse_injection_process(v, &cfg.spec.process)) {
        std::fprintf(stderr, "bench_router: unknown workload '%s'\n", v);
        return 2;
      }
    } else if (is("--engine")) {
      if (std::strcmp(v, "soa") == 0) cfg.engine = Engine::kSoa;
      else if (std::strcmp(v, "reference") == 0) cfg.engine = Engine::kReference;
      else {
        std::fprintf(stderr, "bench_router: unknown engine '%s'\n", v);
        return 2;
      }
    } else if (is("--n")) {
      n = bench::parse_flag<std::size_t>(flag, v);
    } else if (is("--rate")) {
      cfg.spec.rate = bench::parse_flag<double>(flag, v);
    } else if (is("--rounds")) {
      cfg.rounds = bench::parse_flag<std::uint64_t>(flag, v);
    } else if (is("--window")) {
      cfg.spec.window = bench::parse_flag<std::uint32_t>(flag, v);
    } else if (is("--sources")) {
      cfg.spec.num_sources = bench::parse_flag<std::uint32_t>(flag, v);
    } else if (is("--dests")) {
      cfg.spec.num_destinations = bench::parse_flag<std::uint32_t>(flag, v);
    } else if (is("--threshold")) {
      cfg.threshold = bench::parse_flag<double>(flag, v);
    } else if (is("--gamma")) {
      cfg.gamma = bench::parse_flag<double>(flag, v);
    } else if (is("--max-height")) {
      cfg.max_height = bench::parse_flag<std::size_t>(flag, v);
    } else if (is("--seed")) {
      cfg.spec.seed = bench::parse_flag<std::uint64_t>(flag, v);
    } else if (is("--telemetry")) {
      telemetry_path = v;
    } else if (is("--max-rss-mb")) {
      max_rss_mb = bench::parse_flag<double>(flag, v);
    } else if (is("--rlimit-as-mb")) {
      rlimit_as_mb = bench::parse_flag<double>(flag, v);
    } else {
      std::fprintf(stderr, "bench_router: unknown flag '%s'\n", flag);
      return 2;
    }
  }

#if defined(__linux__)
  if (rlimit_as_mb > 0.0) {
    const auto cap = static_cast<rlim_t>(rlimit_as_mb * 1024.0 * 1024.0);
    rlimit rl{cap, cap};
    setrlimit(RLIMIT_AS, &rl);
  }
#endif

  obs::set_recording(true);
  obs::MetricsRegistry::global().reset();
  obs::SeriesRegistry::global().reset();
  obs::reset_spans();

  const topo::Deployment d = deployment(n);
  const core::ThetaTopology tt(d, kTheta);
  const SimOut r = run_sim(tt.graph(), cfg);

  const double sec = r.ms / 1000.0;
  std::printf(
      "bench_router --single: %s/%s n=%zu rounds=%llu  %.2f ms  "
      "%.0f rounds/s  %.0f packets/s  deliveries=%llu leftover=%llu  "
      "rss %.1f MB (warm %.1f)  checksum %016llx\n",
      route::injection_process_name(cfg.spec.process),
      engine_name(cfg.engine), n, static_cast<unsigned long long>(r.rounds),
      r.ms, sec > 0 ? static_cast<double>(r.rounds) / sec : 0.0,
      sec > 0 ? static_cast<double>(r.deliveries) / sec : 0.0,
      static_cast<unsigned long long>(r.deliveries),
      static_cast<unsigned long long>(r.leftover), r.peak_rss_mb,
      r.warm_rss_mb, static_cast<unsigned long long>(r.checksum));

  if (!telemetry_path.empty() && !obs::write_telemetry_json(telemetry_path)) {
    std::fprintf(stderr, "bench_router: cannot write %s\n",
                 telemetry_path.c_str());
    return 1;
  }
  if (max_rss_mb > 0.0 && r.peak_rss_mb > max_rss_mb) {
    std::fprintf(stderr,
                 "bench_router: peak RSS %.1f MB exceeds the %.1f MB budget\n",
                 r.peak_rss_mb, max_rss_mb);
    return 1;
  }
  if (check_flat && !rss_flat(r)) {
    std::fprintf(stderr,
                 "bench_router: RSS kept growing after warm-up "
                 "(%.1f MB -> %.1f MB)\n",
                 r.warm_rss_mb, r.peak_rss_mb);
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::strcmp(argv[1], "--single") == 0)
    return run_single(argc, argv);
  if (argc == 3 && std::strcmp(argv[1], "--max-rss-mb") == 0) {
    g_max_rss_mb = bench::parse_flag<double>(argv[1], argv[2]);
  } else if (argc != 1) {
    std::fprintf(stderr,
                 "usage: bench_router [--max-rss-mb MB] | --single ...\n");
    return 2;
  }
  return run_matrix();
}
