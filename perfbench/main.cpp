// perfbench_stack — end-to-end benchmark of the paper's stack: topology,
// interference bounds, MAC and (T, gamma)-balancing, ending in delivered
// packets. README.md in this directory describes the workloads and metrics.
//
//   perfbench_stack --workload NAME --seed N --seconds S --trace 0|1
//
// --trace 0 runs with telemetry recording off: set-up is repeated and timed
// (median reported), then the stack runs for S seconds and the end-to-end
// metrics are printed. --trace 1 sets up once, then runs the same number of
// rounds twice from the same start, untraced and traced, and prints the
// per-layer table and metrics. Both print, as the last line, one JSON object
// {"correct", "attempted", "failed", "metrics"}; the exit code is 0 only when
// every correctness check passed.

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "common/parallel.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "probe.h"
#include "stack.h"

namespace perfbench {
namespace {

/// Set-up is repeated at least kMinSetupReps times and until kSetupSeconds
/// have passed (at most kMaxSetupReps times); setup_s is the median.
constexpr int kMinSetupReps = 3;
constexpr int kMaxSetupReps = 50;
constexpr double kSetupSeconds = 1.0;
/// Windows are timed in slices of kSliceSeconds. The host is shared, and
/// other tenants slow the stack in bursts of tenths of a second to seconds
/// (a slice's round rate can halve). The round rate reported is the
/// kRateQuantile-quantile of the slice rates, the speed the stack keeps
/// whenever the host leaves it alone; a 20 s window has 400 slices, 20 of
/// them above it.
constexpr double kSliceSeconds = 0.05;
constexpr double kRateQuantile = 0.95;
/// Largest share of the traced window that may fall outside every layer
/// span (reported as other_s).
constexpr double kMaxOtherShare = 0.20;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

struct Report {
  std::vector<Metric> metrics;
  std::vector<std::string> failures;
  std::uint64_t attempted = 0;  ///< packets offered in the window
  std::uint64_t failed = 0;     ///< packets dropped in the window
};

bool parse_args(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* v = argv[i + 1];
    if (flag == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      a.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      a.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      a.trace = std::strcmp(v, "1") == 0;
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && have_workload && a.seconds > 0.0;
}

/// Checks every workload shares: packet conservation and deliveries.
void check_common(const Run& run, const Run& start,
                  std::vector<std::string>& failures) {
  const route::RunMetrics& m = run.m;
  if (m.injected_offered != m.injected_accepted + m.dropped_at_injection)
    failures.push_back(
        "conservation: offered != accepted + dropped at injection");
  if (m.injected_accepted != m.deliveries + m.dropped_in_transit +
                                 run.router.packets_in_flight())
    failures.push_back(
        "conservation: accepted != delivered + dropped in transit + in flight");
  if (m.deliveries == start.m.deliveries)
    failures.push_back("no packet delivered in the run window");
}

void count_packets(const Run& run, const Run& start, Report& r) {
  r.attempted = run.m.injected_offered - start.m.injected_offered;
  r.failed = (run.m.dropped_at_injection + run.m.dropped_in_transit) -
             (start.m.dropped_at_injection + start.m.dropped_in_transit);
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t k = v.size() / 2;
  return v.size() % 2 == 1 ? v[k] : 0.5 * (v[k - 1] + v[k]);
}

/// Round-rate clock of one window (see kSliceSeconds).
class SliceTimer {
 public:
  /// Count one finished round; returns the seconds since the window opened.
  double tick() {
    ++slice_rounds_;
    const Clock::time_point now = Clock::now();
    const double slice_s =
        std::chrono::duration<double>(now - slice_t0_).count();
    if (slice_s >= kSliceSeconds) {
      rates_.push_back(static_cast<double>(slice_rounds_) / slice_s);
      slice_t0_ = now;
      slice_rounds_ = 0;
    }
    return std::chrono::duration<double>(now - t0_).count();
  }

  /// The reported round rate; the whole window's mean when it was shorter
  /// than one slice.
  double rate() const {
    if (rates_.empty())
      return static_cast<double>(slice_rounds_) / seconds_since(t0_);
    return quantile(rates_, kRateQuantile);
  }

  void print(const char* label) const {
    if (rates_.empty()) return;
    std::printf("%s: %zu slices of %.2f s, rounds/s min %.0f median %.0f "
                "p%.0f %.0f max %.0f\n",
                label, rates_.size(), kSliceSeconds, quantile(rates_, 0.0),
                quantile(rates_, 0.5), 100.0 * kRateQuantile, rate(),
                quantile(rates_, 1.0));
  }

 private:
  Clock::time_point t0_ = Clock::now();
  Clock::time_point slice_t0_ = t0_;
  std::uint64_t slice_rounds_ = 0;
  std::vector<double> rates_;
};

// --- untraced run: end-to-end metrics --------------------------------------

Report run_untraced(const Args& a) {
  Report r;
  thetanet::obs::set_recording(false);
  Probe probe(false);

  std::vector<double> setup_s;
  std::unique_ptr<Workload> w;
  const Clock::time_point setup_t0 = Clock::now();
  while (setup_s.size() < kMinSetupReps ||
         (setup_s.size() < kMaxSetupReps &&
          seconds_since(setup_t0) < kSetupSeconds)) {
    w.reset();
    const Clock::time_point t0 = Clock::now();
    w = make_workload(a.workload, a.seed, probe);
    setup_s.push_back(seconds_since(t0));
  }

  const Run start = w->start();
  Run run = start;
  const std::uint64_t k = w->checksum_rounds();
  Fnv fnv;
  SliceTimer timer;
  double elapsed = 0.0;
  while (run.counters.rounds < k || elapsed < a.seconds) {
    w->step(run, probe, run.counters.rounds < k ? &fnv : nullptr);
    elapsed = timer.tick();
  }
  const double rss = peak_rss_mb();

  check_common(run, start, r.failures);
  w->check(run, start, r.failures);
  count_packets(run, start, r);

  // Determinism: a fresh set-up from the same seed on one thread must plan
  // the same transmissions over the checksum prefix.
  const int threads = thetanet::tn::num_threads();
  thetanet::tn::set_num_threads(1);
  Fnv replay;
  {
    const auto w1 = make_workload(a.workload, a.seed, probe);
    Run r1 = w1->start();
    for (std::uint64_t i = 0; i < k; ++i) w1->step(r1, probe, &replay);
  }
  thetanet::tn::set_num_threads(threads);
  std::printf("checksum %s seed=%" PRIu64 " rounds=%" PRIu64
              ": threads=%d %016" PRIx64 ", threads=1 %016" PRIx64 "\n",
              a.workload.c_str(), a.seed, k, threads, fnv.h, replay.h);
  if (fnv.h != replay.h)
    r.failures.push_back("planned-tx checksum differs between thread counts");

  const double delivered =
      static_cast<double>(run.m.deliveries - start.m.deliveries);
  const double rounds = static_cast<double>(run.counters.rounds);
  const double rounds_per_s = timer.rate();
  std::printf("window %s: %.0f rounds, %.0f delivered in %.3f s; %zu set-ups\n",
              a.workload.c_str(), rounds, delivered, elapsed, setup_s.size());
  timer.print("window");
  r.metrics = {
      {"setup_s", median(setup_s), "s"},
      // Deliveries per round are a property of the simulated run; their
      // wall-clock rate follows the reported round rate.
      {"delivered_pps", delivered / rounds * rounds_per_s, "pkt/s"},
      {"rounds_per_s", rounds_per_s, "1/s"},
      {"peak_rss_mb", rss, "MB"},
  };
  return r;
}

// --- traced run: per-layer metrics -----------------------------------------

using thetanet::obs::SpanSnapshot;

const SpanSnapshot* find_child(const std::vector<SpanSnapshot>& nodes,
                               const std::string& name) {
  for (const SpanSnapshot& s : nodes)
    if (s.name == name) return &s;
  return nullptr;
}

double span_s(const SpanSnapshot* parent, const char* name) {
  if (parent == nullptr) return 0.0;
  const SpanSnapshot* s = find_child(parent->children, name);
  return s == nullptr ? 0.0 : static_cast<double>(s->wall_ns) * 1e-9;
}

double self_s(const SpanSnapshot& s) {
  std::uint64_t covered = 0;
  for (const SpanSnapshot& c : s.children) covered += c.wall_ns;
  return static_cast<double>(s.wall_ns - std::min(covered, s.wall_ns)) * 1e-9;
}

/// One row per span: calls, total and self wall time, and self time as a
/// share of the tree's root.
void print_tree(const SpanSnapshot& s, int depth, double root_s) {
  std::printf("  %*s%-*s %10" PRIu64 " %12.6f %12.6f %7.2f%%\n", 2 * depth, "",
              36 - 2 * depth, s.name.c_str(), s.count,
              static_cast<double>(s.wall_ns) * 1e-9, self_s(s),
              root_s > 0.0 ? 100.0 * self_s(s) / root_s : 0.0);
  for (const SpanSnapshot& c : s.children) print_tree(c, depth + 1, root_s);
}

Report run_traced(const Args& a) {
  Report r;
  thetanet::obs::set_recording(true);
  thetanet::obs::reset_spans();
  Probe probe(true);

  const double rss_base = peak_rss_mb();
  std::unique_ptr<Workload> w;
  {
    thetanet::obs::Span span(kSetupSpan);
    w = make_workload(a.workload, a.seed, probe);
  }
  const double rss_setup = peak_rss_mb();

  // Untraced reference pass, then the same rounds again traced.
  const Run start = w->start();
  thetanet::obs::set_recording(false);
  Probe off(false);
  Run ref = start;
  const std::uint64_t min_rounds = w->checksum_rounds();
  SliceTimer untraced;
  double untraced_s = 0.0;
  while (ref.counters.rounds < min_rounds || untraced_s < a.seconds / 2.0) {
    w->step(ref, off, nullptr);
    untraced_s = untraced.tick();
  }
  const std::uint64_t rounds = ref.counters.rounds;

  thetanet::obs::set_recording(true);
  Run run = start;
  SliceTimer traced;
  {
    thetanet::obs::Span span(kWindowSpan);
    for (std::uint64_t i = 0; i < rounds; ++i) {
      w->step(run, probe, nullptr);
      traced.tick();
    }
  }
  thetanet::obs::set_recording(false);
  const double rss_peak = peak_rss_mb();

  check_common(run, start, r.failures);
  w->check(run, start, r.failures);
  count_packets(run, start, r);

  const std::vector<SpanSnapshot> roots = thetanet::obs::span_snapshot();
  const SpanSnapshot* setup = find_child(roots, kSetupSpan);
  const SpanSnapshot* window = find_child(roots, kWindowSpan);
  const double window_s =
      window == nullptr ? 0.0 : static_cast<double>(window->wall_ns) * 1e-9;
  const double other_s = window == nullptr ? 0.0 : self_s(*window);

  untraced.print("untraced pass");
  traced.print("traced pass");
  std::printf("per-layer table: %s seed=%" PRIu64 " threads=%d, %" PRIu64
              " traced rounds\n",
              a.workload.c_str(), a.seed, thetanet::tn::num_threads(), rounds);
  std::printf("  %-36s %10s %12s %12s %8s\n", "span", "calls", "total_s",
              "self_s", "self%");
  if (setup != nullptr)
    print_tree(*setup, 0, static_cast<double>(setup->wall_ns) * 1e-9);
  if (window != nullptr) print_tree(*window, 0, window_s);

  // Peak-RSS growth by set-up call; with the base and the window the rows
  // tile the traced run's peak RSS.
  double rss_sum = rss_base;
  std::printf("  %-36s %10.3f MB\n", "rss.base", rss_base);
  for (const Probe::SetupRow& row : probe.setup_rows()) {
    std::printf("  %-36s %10.3f MB\n", row.name, row.rss_mb);
    rss_sum += row.rss_mb;
  }
  const double rss_unattributed = rss_setup - rss_sum;
  std::printf("  %-36s %10.3f MB\n", "setup.unattributed", rss_unattributed);
  std::printf("  %-36s %10.3f MB\n", "window", rss_peak - rss_setup);
  rss_sum += rss_unattributed + (rss_peak - rss_setup);
  std::printf("  %-36s %10.3f MB (peak %.3f MB)\n", "sum", rss_sum, rss_peak);
  if (std::abs(rss_sum - rss_peak) > 1e-6)
    r.failures.push_back("per-layer RSS rows do not sum to the peak RSS");
  if (window_s <= 0.0 || other_s > kMaxOtherShare * window_s)
    r.failures.push_back("layer spans cover less than 80% of the window");

  const auto rss_of = [&](const char* name) {
    for (const Probe::SetupRow& row : probe.setup_rows())
      if (std::strcmp(row.name, name) == 0) return row.rss_mb;
    return 0.0;
  };
  const auto per_round = [&](std::uint64_t count) {
    return static_cast<double>(count) / static_cast<double>(rounds);
  };
  const auto p = [&](Layer layer, double q) {
    return quantile(probe.samples(layer), q);
  };
  const RoundCounters& c = run.counters;
  const route::RunMetrics& m = run.m;
  const double delivered =
      static_cast<double>(m.deliveries - start.m.deliveries);
  const double opt = w->opt_deliveries(run, start);
  const auto attempted_tx =
      static_cast<double>(m.attempted_tx - start.m.attempted_tx);
  const auto failed_tx = static_cast<double>(m.failed_tx - start.m.failed_tx);

  r.metrics = {
      {"topology.build_s", span_s(setup, "topology.build"), "s"},
      {"topology.rss_mb", rss_of("topology.build"), "MB"},
      {"interference.bounds_s", span_s(setup, "interference.bounds"), "s"},
      {"interference.rss_mb", rss_of("interference.bounds"), "MB"},
      {"interference.bound_I", static_cast<double>(w->interference_bound()),
       "count"},
      {"adversary.certify_s", span_s(setup, "adversary.certify"), "s"},
      {"mac.activate_ns.p50", p(kMacActivate, 0.5), "ns"},
      {"mac.activate_ns.p99", p(kMacActivate, 0.99), "ns"},
      {"mac.resolve_ns.p50", p(kMacResolve, 0.5), "ns"},
      {"mac.resolve_ns.p99", p(kMacResolve, 0.99), "ns"},
      {"mac.active_edges_per_round", per_round(c.active_edges), "count"},
      {"honeycomb.select_ns.p50", p(kHoneycombSelect, 0.5), "ns"},
      {"honeycomb.select_ns.p99", p(kHoneycombSelect, 0.99), "ns"},
      {"honeycomb.resolve_ns.p50", p(kHoneycombResolve, 0.5), "ns"},
      {"honeycomb.candidate_pairs_per_round", per_round(c.candidate_pairs),
       "count"},
      {"honeycomb.contestants_per_round", per_round(c.contestants), "count"},
      {"router.plan_ns.p50", p(kRouterPlan, 0.5), "ns"},
      {"router.plan_ns.p99", p(kRouterPlan, 0.99), "ns"},
      {"router.execute_ns.p50", p(kRouterExecute, 0.5), "ns"},
      {"router.execute_ns.p99", p(kRouterExecute, 0.99), "ns"},
      {"router.inject_ns_per_packet",
       c.injected == 0 ? 0.0
                       : static_cast<double>(probe.total_ns(kRouterInject)) /
                             static_cast<double>(c.injected),
       "ns"},
      {"router.end_step_ns.p50", p(kRouterEndStep, 0.5), "ns"},
      {"router.planned_tx_per_round", per_round(c.planned_tx), "count"},
      {"router.delivered_per_tx",
       c.planned_tx == 0 ? 0.0 : delivered / static_cast<double>(c.planned_tx),
       "ratio"},
      {"injection.step_ns.p50", p(kInjectionStep, 0.5), "ns"},
      {"throughput_ratio", opt > 0.0 ? delivered / opt : 0.0, "ratio"},
      {"collision_rate", attempted_tx > 0.0 ? failed_tx / attempted_tx : 0.0,
       "ratio"},
      {"drop_fraction",
       r.attempted == 0 ? 0.0
                        : static_cast<double>(r.failed) /
                              static_cast<double>(r.attempted),
       "ratio"},
      {"other_s", other_s, "s"},
      {"obs.trace_overhead_pct",
       100.0 * (untraced.rate() / traced.rate() - 1.0), "%"},
  };
  for (const Metric& mt : r.metrics)
    std::printf("  %-36s %16.6f %s\n", mt.name.c_str(), mt.value, mt.unit);
  return r;
}

void print_json(const Report& r) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              r.failures.empty() ? "true" : "false", r.attempted, r.failed);
  for (std::size_t i = 0; i < r.metrics.size(); ++i)
    std::printf("%s\"%s\": {\"value\": %.10g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", r.metrics[i].name.c_str(),
                r.metrics[i].value, r.metrics[i].unit);
  std::printf("}}\n");
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args a;
  if (!parse_args(argc, argv, a)) {
    std::fprintf(stderr,
                 "usage: perfbench_stack --workload NAME --seed N --seconds S "
                 "--trace 0|1\n");
    return 2;
  }
  const auto& names = workload_names();
  if (std::find(names.begin(), names.end(), a.workload) == names.end()) {
    std::fprintf(stderr, "perfbench_stack: unknown workload '%s'\n",
                 a.workload.c_str());
    return 2;
  }
  std::printf("workload %s seed=%" PRIu64 " threads=%d (TN_NUM_THREADS=%s)\n",
              a.workload.c_str(), a.seed, thetanet::tn::num_threads(),
              std::getenv("TN_NUM_THREADS") ? std::getenv("TN_NUM_THREADS")
                                            : "unset");
  const Report r = a.trace ? run_traced(a) : run_untraced(a);
  for (const std::string& f : r.failures)
    std::printf("CHECK FAILED: %s\n", f.c_str());
  std::fflush(stdout);
  print_json(r);
  return r.failures.empty() ? 0 : 1;
}
