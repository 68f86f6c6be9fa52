// Thread-count sweep of the parallel construction kernels (ΘALG sector
// table and build, transmission graph, Gabriel graph, interference bounds
// and set sizes): TN_NUM_THREADS 1/2/4/max over n in {1k, 10k, 100k, 1M},
// written as machine-readable BENCH_kernels.json to the working directory.
// Each entry carries a per-(kernel, n) bit-identity check across thread
// counts, the kernel's grid scan counters (queries / points examined) so
// spatial over-scan is observable, and the peak RSS of the forked child
// that timed it (getrusage), reported as ns/node + bytes/node so the
// large-n memory footprint is a first-class benchmark output. Each entry is
// timed in a forked child so allocator state left by earlier entries
// cannot contaminate its numbers (see time_kernel).
//
// TN_BENCH_SWEEP_NS="500,2000" replaces the size list (the ctest smoke run
// uses 500). --max-rss-mb N sets a peak-RSS budget: an entry whose
// footprint, extrapolated from the same kernel's last completed size,
// would exceed the budget is skipped-and-noted in the JSON instead of
// OOM-killing the child (an RLIMIT backstop in the child catches runaway
// allocation the prediction missed). Any kernel whose speedup_vs_1 drops
// below 0.9 (and whose 1-thread run is >= 5 ms — shorter runs are jitter)
// is flagged on stderr and in "speedup_regressions".

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#if defined(__GLIBC__)
#include <malloc.h>
#endif
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/fnv.h"
#include "common/parallel.h"
#include "obs/metrics.h"

#include "core/theta_topology.h"
#include "interference/model.h"
#include "topology/proximity.h"
#include "topology/transmission_graph.h"

namespace {

using namespace thetanet;
constexpr double kTheta = std::numbers::pi / 9.0;

topo::Deployment deployment(std::size_t n) {
  geom::Rng rng(0xbe9c4 + n);
  return bench::uniform_deployment(n, rng);
}

// FNV-1a over the output so the sweep can assert bit-identical results
// across thread counts (the parallel layer's determinism contract).
std::uint64_t graph_checksum(const graph::Graph& g) {
  tn::Fnv f;
  f.mix(g.num_edges());
  for (const graph::Edge& e : g.edges()) {
    f.mix(e.u);
    f.mix(e.v);
    f.mix_double(e.length);
  }
  return f.h;
}

struct SweepResult {
  const char* kernel;
  std::size_t n;
  int threads;
  double ms;
  std::uint64_t checksum;
  // SpatialGrid scan counters for the timed run — grid_points / the true
  // neighbour mass is the over-scan factor of the kernel's grid sizing.
  std::uint64_t grid_queries;
  std::uint64_t grid_points;
  // Peak RSS of the forked child (MB). The child starts from the parent's
  // copy-on-write image, so this is "inputs + the kernel's own footprint" —
  // the number an application embedding the kernel at this n would see.
  double rss_mb;
  bool ok;  // false: the child died (memory backstop) — entry is skipped
};

// Peak-RSS budget for sweep entries; 0 = unlimited. Set by --max-rss-mb.
double g_max_rss_mb = 0.0;

struct SweepKernel {
  const char* name;
  // Runs the kernel once and returns an output checksum. `theta` is the
  // prebuilt ThetaALG topology (input to the interference kernels, built
  // outside the timed region).
  std::uint64_t (*run)(const topo::Deployment& d, const graph::Graph& theta);
};

std::uint64_t run_sector_table(const topo::Deployment& d,
                               const graph::Graph&) {
  const topo::SectorTable t = topo::compute_sector_table(d, kTheta);
  tn::Fnv f;
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (int s = 0; s < t.sectors(); ++s) f.mix(t.nearest(u, s));
  return f.h;
}

std::uint64_t run_theta_build(const topo::Deployment& d,
                              const graph::Graph&) {
  return graph_checksum(core::ThetaTopology(d, kTheta).graph());
}

std::uint64_t run_transmission(const topo::Deployment& d,
                               const graph::Graph&) {
  return graph_checksum(topo::build_transmission_graph(d));
}

std::uint64_t run_gabriel(const topo::Deployment& d, const graph::Graph&) {
  return graph_checksum(topo::gabriel_graph(d));
}

std::uint64_t run_interference_bounds(const topo::Deployment& d,
                                      const graph::Graph& theta) {
  const interf::InterferenceModel m{1.0};
  tn::Fnv f;
  for (const std::uint32_t b : interf::interference_bounds(theta, d, m))
    f.mix(b);
  return f.h;
}

std::uint64_t run_interference_sizes(const topo::Deployment& d,
                                     const graph::Graph& theta) {
  const interf::InterferenceModel m{1.0};
  tn::Fnv f;
  for (const std::uint32_t s : interf::interference_set_sizes(theta, d, m))
    f.mix(s);
  return f.h;
}

// Return freed heap pages to the OS before a timed entry. Sweep entries
// run back to back in one process, and the previous entry's allocation
// pattern (tiny n: thousands of small short-lived vectors) leaves the
// allocator's bins fragmented — measured to inflate the next large
// entry's time by ~8% through worse page/TLB locality. Trimming puts
// every entry on the same footing as a fresh process.
void isolate_heap() {
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
}

// Time one run; repeat sizes up to 10^5 and keep the minimum (a single
// n = 10^5 run is too noisy for bench_compare to tell two sweeps of the
// same code apart). Peak RSS is read after the first rep: it is the
// process's high-water mark, and a later rep raises it with what the
// allocator kept from the previous one. Grid scan counters are captured per
// rep (they are identical across reps — the kernels are deterministic — so
// the last rep's snapshot is *the* value).
SweepResult measure_in_process(const SweepKernel& k, const topo::Deployment& d,
                               const graph::Graph& theta, std::size_t n,
                               int threads) {
  tn::set_num_threads(threads);
  isolate_heap();
  const int reps = n <= 100000 ? 3 : 1;
  double best_ms = 0.0;
  double rss_mb = 0.0;
  std::uint64_t checksum = 0;
  std::uint64_t queries = 0;
  std::uint64_t points = 0;
  for (int r = 0; r < reps; ++r) {
    const bench::TelemetryProbe probe;  // zeroes the registry for this rep
    const auto t0 = std::chrono::steady_clock::now();
    checksum = k.run(d, theta);
    const auto t1 = std::chrono::steady_clock::now();
    queries = probe.count("grid.queries");
    points = probe.count("grid.points_examined");
    const double ms =
        std::chrono::duration<double, std::milli>(t1 - t0).count();
    if (r == 0) rss_mb = bench::peak_rss_mb();
    if (r == 0 || ms < best_ms) best_ms = ms;
  }
  return {k.name, n, threads, best_ms, checksum, queries, points, rss_mb,
          true};
}

// Measure one sweep entry in a forked child so every entry sees a pristine
// allocator. Entries run back to back in one process, and a predecessor's
// allocation pattern contaminates successors — measured at ~25% on the
// n=10k interference kernels (small-n rounds fragment the heap; large
// transient buffers then land on scattered 4 KiB pages instead of fresh
// mappings). The child ships its SweepResult back whole: `kernel` points
// at a static name, valid in both processes. Parent-side code is pinned to
// one thread, so the parent is pool-free as run_in_child requires.
SweepResult time_kernel(const SweepKernel& k, const topo::Deployment& d,
                        const graph::Graph& theta, std::size_t n,
                        int threads) {
  const auto measure = [&] {
    return measure_in_process(k, d, theta, n, threads);
  };
  if (const auto r = bench::run_in_child<SweepResult>(g_max_rss_mb, measure))
    return *r;
  if (g_max_rss_mb > 0.0) {
    // Under a memory budget a dead child means the backstop fired: report
    // the entry as skipped, do NOT re-run in-process (that would hand the
    // runaway allocation to the parent).
    std::fprintf(stderr,
                 "sweep: child for %s n=%zu threads=%d died under the "
                 "%.0f MB budget backstop; skipping\n",
                 k.name, n, threads, g_max_rss_mb);
    return {k.name, n, threads, 0.0, 0, 0, 0, 0.0, false};
  }
  std::fprintf(stderr,
               "sweep: child for %s n=%zu threads=%d failed; "
               "measuring in-process\n",
               k.name, n, threads);
  return measure();
}

// Cost of the compiled-in telemetry at its runtime default (recording on)
// versus runtime-off, on the grid-heaviest kernels at n=2000. Reps
// alternate between the two modes so thermal/frequency drift hits both
// equally; min-of-reps on each side. The acceptance bar is <2% — recorded
// in BENCH_kernels.json so regressions in instrumentation cost are as
// visible as regressions in kernel time.
struct TelemetryOverhead {
  std::size_t n;
  double on_ms;
  double off_ms;
  double overhead_pct;
};

TelemetryOverhead measure_telemetry_overhead() {
  const std::size_t n = 2000;
  const topo::Deployment d = deployment(n);
  tn::set_num_threads(1);
  const graph::Graph theta = core::ThetaTopology(d, kTheta).graph();
  // A volatile store is observable behaviour, so every timed run's output
  // must be computed in full.
  volatile std::uint64_t sink = 0;
  const auto run_once = [&] {
    isolate_heap();
    const auto t0 = std::chrono::steady_clock::now();
    sink = run_theta_build(d, theta) ^ run_interference_bounds(d, theta);
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
  };
  run_once();  // warm-up outside either tally
  double on_ms = 0.0;
  double off_ms = 0.0;
  const int reps = 5;
  for (int r = 0; r < reps; ++r) {
    obs::set_recording(true);
    const double on = run_once();
    obs::set_recording(false);
    const double off = run_once();
    if (r == 0 || on < on_ms) on_ms = on;
    if (r == 0 || off < off_ms) off_ms = off;
  }
  obs::set_recording(true);
  const double pct =
      off_ms > 0.0 ? (on_ms - off_ms) / off_ms * 100.0 : 0.0;
  return {n, on_ms, off_ms, pct};
}

/// The default sizes, or TN_BENCH_SWEEP_NS's comma list. Every element
/// must parse as a flag value would (bench::parse_flag exits 2 otherwise);
/// a size of 0 is skipped.
std::vector<std::size_t> sweep_sizes() {
  const char* s = std::getenv("TN_BENCH_SWEEP_NS");
  if (s == nullptr) return {1000, 10000, 100000, 1000000};
  std::vector<std::size_t> ns;
  const std::string list = s;
  std::size_t begin = 0;
  for (;;) {
    const std::size_t comma = list.find(',', begin);
    const std::string item = list.substr(begin, comma - begin);
    const auto v = bench::parse_flag<std::size_t>("TN_BENCH_SWEEP_NS",
                                                  item.c_str());
    if (v > 0) ns.push_back(v);
    if (comma == std::string::npos) return ns;
    begin = comma + 1;
  }
}

int run_thread_sweep() {
  const std::vector<std::size_t> sizes = sweep_sizes();
  std::vector<int> threads{1, 2, 4, tn::hardware_threads()};
  std::sort(threads.begin(), threads.end());
  threads.erase(std::unique(threads.begin(), threads.end()), threads.end());

  const SweepKernel kernels[] = {
      {"sector_table", run_sector_table},
      {"theta_build", run_theta_build},
      {"transmission_graph", run_transmission},
      {"gabriel", run_gabriel},
      {"interference_bounds", run_interference_bounds},
      {"interference_set_sizes", run_interference_sizes},
  };

  struct Skipped {
    const char* kernel;
    std::size_t n;
    int threads;
    std::string reason;
  };
  std::vector<SweepResult> results;
  std::vector<Skipped> skipped;
  // Last completed footprint per kernel, for predicting the next size's
  // RSS before committing to it. The construction kernels are all
  // asymptotically linear-or-better in memory per node, so linear
  // extrapolation from the largest completed n is an upper-bound-ish
  // estimate — good enough to refuse entries that would sail past the
  // budget instead of discovering that via the OOM killer.
  struct LastRss {
    std::size_t n = 0;
    double rss_mb = 0.0;
  };
  const std::size_t num_kernels = std::size(kernels);
  std::vector<LastRss> last_rss(num_kernels);
  bool all_identical = true;
  for (const std::size_t n : sizes) {
    const topo::Deployment d = deployment(n);
    tn::set_num_threads(1);
    const graph::Graph theta = core::ThetaTopology(d, kTheta).graph();
    for (std::size_t ki = 0; ki < num_kernels; ++ki) {
      const SweepKernel& k = kernels[ki];
      if (g_max_rss_mb > 0.0 && last_rss[ki].n > 0) {
        const double predicted = last_rss[ki].rss_mb *
                                 static_cast<double>(n) /
                                 static_cast<double>(last_rss[ki].n);
        if (predicted > g_max_rss_mb) {
          char why[160];
          std::snprintf(why, sizeof why,
                        "predicted peak RSS %.0f MB (from %.0f MB at "
                        "n=%zu) exceeds budget %.0f MB",
                        predicted, last_rss[ki].rss_mb, last_rss[ki].n,
                        g_max_rss_mb);
          std::fprintf(stderr, "sweep: skipping %s n=%zu: %s\n", k.name, n,
                       why);
          for (const int t : threads) skipped.push_back({k.name, n, t, why});
          continue;
        }
      }
      bool have_baseline = false;
      std::uint64_t baseline = 0;
      for (const int t : threads) {
        const SweepResult r = time_kernel(k, d, theta, n, t);
        if (!r.ok) {
          skipped.push_back(
              {k.name, n, t, "child died under the RSS budget backstop"});
          continue;
        }
        if (!have_baseline) {
          baseline = r.checksum;
          have_baseline = true;
        }
        if (r.checksum != baseline) {
          all_identical = false;
          std::fprintf(stderr,
                       "DETERMINISM VIOLATION: %s n=%zu threads=%d\n",
                       k.name, n, t);
        }
        results.push_back(r);
        last_rss[ki] = {n, std::max(last_rss[ki].rss_mb, r.rss_mb)};
        std::printf(
            "sweep %-24s n=%-7zu threads=%-2d %10.2f ms  rss %7.1f MB\n",
            k.name, n, t, r.ms, r.rss_mb);
        std::fflush(stdout);
      }
    }
  }
  tn::set_num_threads(1);

  // speedup vs the 1-thread entry of the same (kernel, n); anything below
  // 0.9 means adding threads made the kernel *slower* — a scaling
  // regression (shared-state contention, allocator serialization) that the
  // output asserts loudly so bench_compare / reviewers cannot miss it.
  // Entries whose 1-thread run is under 5 ms are exempt: a sub-5 ms
  // microbenchmark cannot resolve a 10% ratio from scheduler jitter (the
  // same noise floor bench_compare applies via --min-ms).
  const auto base_ms_of = [&](const SweepResult& r) {
    for (const SweepResult& b : results)
      if (b.kernel == r.kernel && b.n == r.n && b.threads == 1) return b.ms;
    return r.ms;
  };
  const auto speedup = [&](const SweepResult& r) {
    return r.ms > 0.0 ? base_ms_of(r) / r.ms : 0.0;
  };
  std::vector<const SweepResult*> regressions;
  for (const SweepResult& r : results)
    if (r.threads > 1 && base_ms_of(r) >= 5.0 && speedup(r) < 0.9)
      regressions.push_back(&r);
  for (const SweepResult* r : regressions)
    std::fprintf(stderr,
                 "SPEEDUP REGRESSION: %s n=%zu threads=%d speedup_vs_1=%.3f "
                 "(< 0.9)\n",
                 r->kernel, r->n, r->threads, speedup(*r));

  const TelemetryOverhead overhead = measure_telemetry_overhead();
  std::printf("telemetry overhead n=%zu: on %.2f ms, off %.2f ms (%+.2f%%)\n",
              overhead.n, overhead.on_ms, overhead.off_ms,
              overhead.overhead_pct);

  std::FILE* out = std::fopen("BENCH_kernels.json", "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_kernels.json\n");
    return 1;
  }
  std::fprintf(out, "{\n  \"hardware_concurrency\": %u,\n",
               std::thread::hardware_concurrency());
  std::fprintf(out, "  \"pool_threads_max\": %d,\n", threads.back());
  std::fprintf(out,
               "  \"telemetry_overhead\": {\"n\": %zu, \"on_ms\": %.3f, "
               "\"off_ms\": %.3f, \"overhead_pct\": %.2f},\n",
               overhead.n, overhead.on_ms, overhead.off_ms,
               overhead.overhead_pct);
  std::fprintf(out, "  \"outputs_bit_identical_across_threads\": %s,\n",
               all_identical ? "true" : "false");
  std::fprintf(out, "  \"max_rss_budget_mb\": %.1f,\n", g_max_rss_mb);
  std::fprintf(out, "  \"skipped\": [");
  for (std::size_t i = 0; i < skipped.size(); ++i)
    std::fprintf(out,
                 "%s\n    {\"kernel\": \"%s\", \"n\": %zu, \"threads\": %d, "
                 "\"reason\": \"%s\"}",
                 i ? "," : "", skipped[i].kernel, skipped[i].n,
                 skipped[i].threads, skipped[i].reason.c_str());
  std::fprintf(out, "%s],\n", skipped.empty() ? "" : "\n  ");
  std::fprintf(out, "  \"speedup_regressions\": [");
  for (std::size_t i = 0; i < regressions.size(); ++i)
    std::fprintf(out, "%s{\"kernel\": \"%s\", \"n\": %zu, \"threads\": %d}",
                 i ? ", " : "", regressions[i]->kernel, regressions[i]->n,
                 regressions[i]->threads);
  std::fprintf(out, "],\n  \"thread_counts\": [");
  for (std::size_t i = 0; i < threads.size(); ++i)
    std::fprintf(out, "%s%d", i ? ", " : "", threads[i]);
  std::fprintf(out, "],\n  \"results\": [\n");
  for (std::size_t i = 0; i < results.size(); ++i) {
    const SweepResult& r = results[i];
    std::fprintf(out,
                 "    {\"kernel\": \"%s\", \"n\": %zu, \"threads\": %d, "
                 "\"ms\": %.3f, \"speedup_vs_1\": %.3f, "
                 "\"ns_per_node\": %.1f, \"peak_rss_mb\": %.1f, "
                 "\"bytes_per_node\": %.1f, "
                 "\"checksum\": \"%016llx\", "
                 "\"grid_queries\": %llu, \"grid_points_examined\": %llu}%s\n",
                 r.kernel, r.n, r.threads, r.ms, speedup(r),
                 r.ms * 1e6 / static_cast<double>(r.n), r.rss_mb,
                 r.rss_mb * 1048576.0 / static_cast<double>(r.n),
                 static_cast<unsigned long long>(r.checksum),
                 static_cast<unsigned long long>(r.grid_queries),
                 static_cast<unsigned long long>(r.grid_points),
                 i + 1 < results.size() ? "," : "");
  }
  std::fprintf(out, "  ]\n}\n");
  std::fclose(out);
  std::printf("wrote BENCH_kernels.json\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  for (int i = 1; i < argc; i += 2) {
    if (std::strcmp(argv[i], "--max-rss-mb") != 0 || i + 1 == argc) {
      std::fprintf(stderr, "usage: bench_kernels [--max-rss-mb MB]\n");
      return 2;
    }
    g_max_rss_mb = bench::parse_flag<double>(argv[i], argv[i + 1]);
  }
  return run_thread_sweep();
}
