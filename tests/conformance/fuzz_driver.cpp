// Conformance fuzzer: seeded scenario sweep running every paper-guarantee
// checker (src/verify) per instance, with greedy shrinking of failures to
// minimal reproducers. Exits 0 iff every scenario conforms.
//
//   fuzz_driver [--scenarios N] [--seed S] [--long] [--churn] [--zoo]
//               [--plant-churn-bug] [--plant-routing-bug]
//               [--report-out FILE] [--corpus-out DIR]
//               [--replay DIR] [--telemetry FILE]
//
// --zoo switches to zoo-wide conformance: each scenario audits *every*
// registered TopologyBuilder (verify/zoo.h) against exactly the guarantees
// it claims, plus the O(1)-memory routing checks (compass ratio-1 on
// G*-adjacent pairs; the Bose et al. 17x routing-ratio bound for Θ₄ on
// complete instances). A coverage check fails loudly if any registered
// builder was silently skipped. Failures ddmin-shrink over the node set.
// --plant-routing-bug flips the compass tie-break to prefer the *farther*
// neighbor on exact angle ties (collinear chains) — the mutation test
// proving the compass ratio-1 oracle catches real routing rot; the sweep
// is restricted to the G* oracle rows so every failure is attributable.
//
// --churn switches to temporal conformance: each scenario drives a seeded
// event schedule (join/leave/crash/sleep/wake/regional failure, plus
// duty-cycled variants) through the incremental ThetaMaintainer and re-runs
// the checkers after every round. Failures ddmin-shrink over both the node
// set and the event list. --plant-churn-bug injects the stale-wake
// maintainer bug (skipped neighbor recomputes on wake) — the mutation test
// proving the temporal harness catches real maintenance rot.
// --replay DIR re-runs every committed corpus case instead of fuzzing
// (regression mode: shrunk reproducers of fixed bugs must stay green);
// v2 (temporal) cases replay through run_churn_conformance.
// The report written by --report-out is bit-deterministic: for a fixed
// command line it is byte-identical for any TN_NUM_THREADS, which the ctest
// determinism job diffs directly. --telemetry FILE writes the deterministic
// telemetry JSON (stable metrics + span counts, no wall time) under the
// same contract — the telemetry_determinism ctest diffs these dumps across
// thread counts too.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "core/theta_topology.h"
#include "interference/model.h"
#include "obs/trace_sink.h"
#include "topology/transmission_graph.h"
#include "verify/conformance.h"
#include "verify/invariants.h"
#include "verify/scenario.h"
#include "verify/zoo.h"

namespace {

using namespace thetanet;

/// Lemma 2.10 ceiling: I(N) <= this * log2(n) on the constant-density
/// uniform sweep. Calibrated over seeds {1,11,21,31,41} at n in 128..2048:
/// observed I/log2(n) stays in 7.4..12.9 with no upward drift; 18 leaves
/// seed-variance slack while still failing any super-logarithmic regime
/// within one octave of growth.
constexpr double kGrowthBoundPerLog2N = 18.0;

struct Options {
  std::size_t scenarios = 200;
  std::uint64_t seed = 1;
  bool long_mode = false;
  bool churn = false;
  bool zoo = false;
  bool plant_churn_bug = false;
  bool plant_routing_bug = false;
  std::string report_out;
  std::string corpus_out;
  std::string replay_dir;
  std::string emit_dir;
  std::string telemetry_out;
};

[[noreturn]] void usage_and_exit(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--scenarios N] [--seed S] [--long] [--churn] [--zoo]"
               " [--plant-churn-bug] [--plant-routing-bug]"
               " [--report-out FILE]"
               " [--corpus-out DIR] [--replay DIR] [--emit-corpus DIR]"
               " [--telemetry FILE]\n";
  std::exit(2);
}

Options parse_args(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage_and_exit(argv[0]);
      return argv[++i];
    };
    if (a == "--scenarios")
      o.scenarios = static_cast<std::size_t>(std::stoull(value()));
    else if (a == "--seed")
      o.seed = static_cast<std::uint64_t>(std::stoull(value()));
    else if (a == "--long")
      o.long_mode = true;
    else if (a == "--churn")
      o.churn = true;
    else if (a == "--zoo")
      o.zoo = true;
    else if (a == "--plant-churn-bug")
      o.plant_churn_bug = true;
    else if (a == "--plant-routing-bug")
      o.plant_routing_bug = true;
    else if (a == "--report-out")
      o.report_out = value();
    else if (a == "--corpus-out")
      o.corpus_out = value();
    else if (a == "--replay")
      o.replay_dir = value();
    else if (a == "--emit-corpus")
      o.emit_dir = value();
    else if (a == "--telemetry")
      o.telemetry_out = value();
    else
      usage_and_exit(argv[0]);
  }
  return o;
}

/// The i-th scenario of a sweep: cycles all distribution families, a ladder
/// of sizes (including the degenerate n in {0, 1, 2}), the paper's kappa
/// range, and an occasional mobility warp.
verify::ScenarioSpec spec_for(std::size_t i, const Options& o) {
  static constexpr std::size_t kSmokeSizes[] = {0, 1, 2, 3, 6, 12, 24, 40};
  static constexpr std::size_t kLongSizes[] = {0, 1, 2, 5, 16, 48, 96, 160};
  verify::ScenarioSpec spec;
  const std::size_t ndists = std::size(verify::kAllDistributions);
  spec.dist = verify::kAllDistributions[i % ndists];
  spec.n = o.long_mode ? kLongSizes[(i / ndists) % std::size(kLongSizes)]
                       : kSmokeSizes[(i / ndists) % std::size(kSmokeSizes)];
  spec.seed = o.seed + i;
  spec.kappa = static_cast<double>(2 + (i / 3) % 3);
  spec.mobility_steps = (i % 7 == 6) ? 3 : 0;
  return spec;
}

/// The i-th churn scenario: cycles the same distribution families over a
/// smaller size ladder (temporal runs re-audit every round, so per-scenario
/// cost is rounds x the static cost), alternating duty-cycled and regional-
/// failure variants so every event kind gets continuous coverage.
verify::ChurnSpec churn_spec_for(std::size_t i, const Options& o) {
  static constexpr std::size_t kSmokeSizes[] = {2, 4, 6, 9, 12, 16, 20, 24};
  static constexpr std::size_t kLongSizes[] = {4, 8, 16, 24, 40, 64, 96, 128};
  verify::ChurnSpec spec;
  const std::size_t ndists = std::size(verify::kAllDistributions);
  spec.base.dist = verify::kAllDistributions[i % ndists];
  spec.base.n = o.long_mode
                    ? kLongSizes[(i / ndists) % std::size(kLongSizes)]
                    : kSmokeSizes[(i / ndists) % std::size(kSmokeSizes)];
  spec.base.seed = o.seed + i;
  spec.base.kappa = static_cast<double>(2 + (i / 3) % 3);
  spec.rounds = o.long_mode ? 24 : 10;
  spec.events_per_round = o.long_mode ? 2.5 : 1.5;
  spec.duty_cycle = i % 3 == 1;
  spec.regional_weight = (i % 5 == 4) ? 0.3 : 0.0;
  return spec;
}

verify::ZooOptions zoo_options_for(std::uint64_t trace_seed,
                                   const Options& o) {
  verify::ZooOptions zopt;
  zopt.checks.trace_seed = trace_seed;
  zopt.plant_routing_bug = o.plant_routing_bug;
  // The planted tie-break only manifests through the compass ratio-1
  // oracle, which runs on the G* row; restricting the sweep keeps every
  // failure attributable to the mutation (and the mutation run fast).
  if (o.plant_routing_bug) zopt.only = {"gstar"};
  // Bose et al.'s 17x is a theorem for their Θ₄-specific routing
  // algorithm; this harness drives plain theta-routing, for which 17x is
  // an empirical ceiling that holds through the smoke ladder (n <= 40,
  // observed max 2.9 at seed 1) but not at long-mode sizes (hub rings at
  // n=160 reach 30.1). Calibrated like kGrowthBoundPerLog2N: 48 leaves
  // seed-variance slack while still catching an unbounded-spiral regime.
  if (o.long_mode) zopt.theta4_routing_ratio_bound = 48.0;
  return zopt;
}

verify::ChurnOptions churn_options_for(const verify::ChurnSpec& spec,
                                       const Options& o) {
  verify::ChurnOptions copt;
  copt.checks.trace_seed = spec.base.seed;
  copt.dynamics_seed = spec.base.seed;
  copt.rounds = spec.rounds;
  if (spec.duty_cycle) copt.dynamics.duty = verify::churn_duty_config();
  copt.dynamics.test_skip_wake_neighbor_recompute = o.plant_churn_bug;
  return copt;
}

/// Lemma 2.10 n-sweep: interference number of ThetaALG topologies on uniform
/// deployments must scale like O(log n). The lemma's regime is constant
/// density (range ~ 1/sqrt(n), so a guard disk holds O(1) expected nodes and
/// the max over n disks concentrates at Theta(log n)); at the
/// connectivity-threshold range the guard disks cover a constant fraction of
/// the unit square for any feasible n and I(N) tracks the edge count instead.
verify::CheckReport growth_sweep(const Options& o) {
  const std::vector<std::size_t> ns =
      o.long_mode ? std::vector<std::size_t>{128, 256, 512, 1024, 2048}
                  : std::vector<std::size_t>{128, 256, 512, 1024};
  std::vector<verify::InterferenceSample> samples;
  const interf::InterferenceModel model{1.0};
  for (const std::size_t n : ns) {
    verify::ScenarioSpec spec;
    spec.dist = verify::Distribution::kUniform;
    spec.n = n;
    spec.seed = o.seed + 7919 * n;
    topo::Deployment d = verify::build_scenario_deployment(spec);
    d.max_range = 1.2 / std::sqrt(static_cast<double>(n));
    const core::ThetaTopology tt(d, 0.3490658503988659);
    samples.push_back(
        {n, interf::interference_number(tt.graph(), d, model)});
  }
  return verify::check_interference_growth(samples, kGrowthBoundPerLog2N);
}

/// Write the canonical nasty-input regression scenarios as corpus cases.
/// These are the committed contents of tests/conformance/corpus/: inputs
/// that stress past construction bugs' failure modes (hub concentration,
/// coincident points, exponential gaps, multi-scale clusters) and must stay
/// green under replay forever.
int run_emit(const Options& o, std::ostream& report) {
  struct Pick {
    verify::Distribution dist;
    std::size_t n;
    std::uint64_t seed;
  };
  static constexpr Pick kPicks[] = {
      {verify::Distribution::kHubRing, 12, 2},
      {verify::Distribution::kCoincident, 8, 1},
      {verify::Distribution::kExponentialChain, 16, 3},
      {verify::Distribution::kNestedClusters, 12, 4},
      {verify::Distribution::kGridJitter, 9, 5},
  };
  std::filesystem::create_directories(o.emit_dir);
  for (const Pick& p : kPicks) {
    verify::ScenarioSpec spec;
    spec.dist = p.dist;
    spec.n = p.n;
    spec.seed = p.seed;
    verify::CorpusCase c;
    c.name = verify::scenario_name(spec);
    c.seed = spec.seed;
    c.deployment = verify::build_scenario_deployment(spec);
    const std::string path = o.emit_dir + "/" + c.name + ".case";
    if (!verify::save_corpus_case(path, c)) {
      report << "emit: failed to write " << path << "\n";
      return 1;
    }
    report << "emit: " << path << "\n";
  }

  // The temporal regression case: the minimal stale-wake reproducer the
  // churn mutation test shrinks to. v and w share u's theta-sector with v
  // nearer, while u and v land in different sectors seen from w — so a wake
  // of v that skips neighbour-row recomputes (the planted maintainer bug)
  // leaves u's stale selection of w alive through phase-2 admission. With a
  // healthy maintainer the sleep/wake pair must stay a no-op forever.
  verify::CorpusCase churn;
  churn.name = "churn-stale-wake-trio";
  churn.seed = 37;
  churn.deployment.positions = {
      {0.1, 0.1}, {0.29924, 0.11743}, {0.58296, 0.22941}};
  churn.deployment.max_range = 0.7;
  churn.deployment.kappa = 2.0;
  sim::DynEvent sleep_mid;
  sleep_mid.round = 0;
  sleep_mid.kind = sim::DynEventKind::kSleep;
  sleep_mid.node = 1;
  sim::DynEvent wake_mid = sleep_mid;
  wake_mid.round = 1;
  wake_mid.kind = sim::DynEventKind::kWake;
  churn.events = {sleep_mid, wake_mid};
  churn.dynamics_seed = 37;
  churn.rounds = 2;
  const std::string churn_path = o.emit_dir + "/" + churn.name + ".case";
  if (!verify::save_corpus_case(churn_path, churn)) {
    report << "emit: failed to write " << churn_path << "\n";
    return 1;
  }
  report << "emit: " << churn_path << "\n";

  // The routing regression case: the minimal reproducer the
  // --plant-routing-bug mutation shrinks to. s, t, w sit on one horizontal
  // line with w beyond t, all mutually in range, so from s both t and w
  // are *exact* angle-0 compass candidates (identical atan2 bearings). The
  // correct nearest-first tie-break delivers s -> t in one hop at ratio
  // exactly 1; the planted farthest-first tie-break overshoots to w, and
  // from w both s and t tie at angle 0 again, so it bounces w -> s -> w
  // forever and never delivers. Replayed (bug off, --zoo) it must stay
  // green forever.
  verify::CorpusCase trio;
  trio.name = "routing-compass-collinear-trio";
  trio.seed = 1;
  trio.deployment.positions = {{0.1, 0.5}, {0.6, 0.5}, {0.85, 0.5}};
  trio.deployment.max_range = 0.8;
  trio.deployment.kappa = 2.0;
  const std::string trio_path = o.emit_dir + "/" + trio.name + ".case";
  if (!verify::save_corpus_case(trio_path, trio)) {
    report << "emit: failed to write " << trio_path << "\n";
    return 1;
  }
  report << "emit: " << trio_path << "\n";
  return 0;
}

int run_replay(const Options& o, std::ostream& report) {
  std::vector<std::filesystem::path> files;
  for (const auto& entry : std::filesystem::directory_iterator(o.replay_dir))
    if (entry.path().extension() == ".case") files.push_back(entry.path());
  std::sort(files.begin(), files.end());
  if (files.empty()) {
    report << "replay: no .case files in " << o.replay_dir << "\n";
    return 0;
  }
  int failures = 0;
  for (const auto& f : files) {
    const std::optional<verify::CorpusCase> c =
        verify::load_corpus_case(f.string());
    if (!c) {
      report << "replay " << f.filename().string() << ": PARSE ERROR\n";
      ++failures;
      continue;
    }
    verify::ConformanceReport r;
    if (c->events.empty() && o.zoo) {
      // Zoo replay: static reproducers (including the shrunk compass
      // tie-break case) re-audit the whole builder registry plus the
      // routing oracles, with no bug planted — they must stay green.
      verify::ZooOptions zopt = zoo_options_for(c->seed, o);
      zopt.checks.theta = c->theta;
      zopt.checks.delta = c->delta;
      r = verify::run_zoo_conformance(c->deployment, zopt);
    } else if (c->events.empty()) {
      verify::ConformanceOptions copt;
      copt.theta = c->theta;
      copt.delta = c->delta;
      r = verify::run_conformance(c->deployment, copt);
    } else {
      // Temporal case: replay the recorded schedule with duty cycling off
      // (the schedule already encodes every sleep/wake that mattered).
      verify::ChurnOptions copt;
      copt.checks.theta = c->theta;
      copt.checks.delta = c->delta;
      copt.dynamics_seed = c->dynamics_seed;
      copt.rounds = c->rounds;
      r = verify::run_churn_conformance(c->deployment, c->events, copt);
    }
    r.scenario = c->name;
    report << r.to_string();
    if (!r.pass()) ++failures;
  }
  return failures == 0 ? 0 : 1;
}

int run_churn_fuzz(const Options& o, std::ostream& report) {
  int failures = 0;
  for (std::size_t i = 0; i < o.scenarios; ++i) {
    const verify::ChurnSpec spec = churn_spec_for(i, o);
    const topo::Deployment d = verify::build_scenario_deployment(spec.base);
    const std::vector<sim::DynEvent> schedule =
        verify::build_churn_schedule(spec, d.size());
    const verify::ChurnOptions copt = churn_options_for(spec, o);
    verify::ConformanceReport r =
        verify::run_churn_conformance(d, schedule, copt);
    r.scenario = verify::churn_scenario_name(spec);
    report << r.to_string();
    if (r.pass()) continue;
    ++failures;
    verify::ChurnShrinkResult shrunk =
        verify::shrink_churn(d, schedule, copt);
    report << "shrunk " << r.scenario << ": " << d.size() << " -> "
           << shrunk.reproducer.size() << " nodes, " << schedule.size()
           << " -> " << shrunk.events.size() << " events ("
           << shrunk.evaluations << " evaluations)\n";
    if (!o.corpus_out.empty()) {
      std::filesystem::create_directories(o.corpus_out);
      verify::CorpusCase c;
      c.name = r.scenario;
      c.seed = spec.base.seed;
      c.theta = copt.checks.theta;
      c.delta = copt.checks.delta;
      c.deployment = shrunk.reproducer;
      c.events = shrunk.events;
      c.dynamics_seed = copt.dynamics_seed;
      c.rounds = spec.rounds;
      const std::string path = o.corpus_out + "/" + r.scenario + ".case";
      if (verify::save_corpus_case(path, c))
        report << "reproducer written to " << path << "\n";
    }
  }
  report << "churn-fuzz: " << o.scenarios << " scenarios, " << failures
         << " failing\n";
  return failures == 0 ? 0 : 1;
}

int run_zoo_fuzz(const Options& o, std::ostream& report) {
  int failures = 0;
  for (std::size_t i = 0; i < o.scenarios; ++i) {
    const verify::ScenarioSpec spec = spec_for(i, o);
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    const verify::ZooOptions zopt = zoo_options_for(spec.seed, o);
    verify::ConformanceReport r = verify::run_zoo_conformance(d, zopt);
    r.scenario = "zoo-" + verify::scenario_name(spec);
    report << r.to_string();
    if (r.pass()) continue;
    ++failures;
    verify::ShrinkResult shrunk = verify::shrink_zoo_deployment(d, zopt);
    report << "shrunk " << r.scenario << ": " << d.size() << " -> "
           << shrunk.reproducer.size() << " nodes (" << shrunk.evaluations
           << " evaluations)\n";
    if (!o.corpus_out.empty()) {
      std::filesystem::create_directories(o.corpus_out);
      verify::CorpusCase c;
      c.name = r.scenario;
      c.seed = spec.seed;
      c.deployment = shrunk.reproducer;
      const std::string path = o.corpus_out + "/" + r.scenario + ".case";
      if (verify::save_corpus_case(path, c))
        report << "reproducer written to " << path << "\n";
    }
  }
  report << "zoo-fuzz: " << o.scenarios << " scenarios, " << failures
         << " failing\n";
  return failures == 0 ? 0 : 1;
}

int run_fuzz(const Options& o, std::ostream& report) {
  int failures = 0;
  for (std::size_t i = 0; i < o.scenarios; ++i) {
    const verify::ScenarioSpec spec = spec_for(i, o);
    const topo::Deployment d = verify::build_scenario_deployment(spec);
    verify::ConformanceOptions copt;
    copt.trace_seed = spec.seed;
    verify::ConformanceReport r = verify::run_conformance(d, copt);
    r.scenario = verify::scenario_name(spec);
    report << r.to_string();
    if (r.pass()) continue;
    ++failures;
    verify::ShrinkResult shrunk = verify::shrink_deployment(d, copt);
    report << "shrunk " << r.scenario << ": " << d.size() << " -> "
           << shrunk.reproducer.size() << " nodes ("
           << shrunk.evaluations << " evaluations)\n";
    if (!o.corpus_out.empty()) {
      std::filesystem::create_directories(o.corpus_out);
      verify::CorpusCase c;
      c.name = r.scenario;
      c.seed = spec.seed;
      c.theta = copt.theta;
      c.delta = copt.delta;
      c.deployment = shrunk.reproducer;
      const std::string path = o.corpus_out + "/" + r.scenario + ".case";
      if (verify::save_corpus_case(path, c))
        report << "reproducer written to " << path << "\n";
    }
  }

  verify::ConformanceReport growth;
  growth.scenario = "interference-growth-sweep";
  growth.checks.push_back(growth_sweep(o));
  report << growth.to_string();
  if (!growth.pass()) ++failures;

  report << "fuzz: " << o.scenarios << " scenarios, " << failures
         << " failing\n";
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Options o = parse_args(argc, argv);

  std::ostringstream report;
  int rc = 0;
  if (!o.emit_dir.empty())
    rc = run_emit(o, report);
  else if (!o.replay_dir.empty())
    rc = run_replay(o, report);
  else if (o.churn)
    rc = run_churn_fuzz(o, report);
  else if (o.zoo)
    rc = run_zoo_fuzz(o, report);
  else
    rc = run_fuzz(o, report);
  std::cout << report.str();
  if (!o.report_out.empty()) {
    std::ofstream out(o.report_out);
    out << report.str();
    if (!out) {
      std::cerr << "failed to write " << o.report_out << "\n";
      return 2;
    }
  }
  if (!o.telemetry_out.empty()) {
    // Deterministic dump: metrics + span structure/counts only, so the file
    // is byte-identical for any TN_NUM_THREADS on a fixed command line (the
    // telemetry_determinism ctest relies on this).
    if (!thetanet::obs::write_telemetry_json(o.telemetry_out)) {
      std::cerr << "failed to write " << o.telemetry_out << "\n";
      return 2;
    }
  }
  return rc;
}
