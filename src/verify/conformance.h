#pragma once
// The per-instance conformance run (all paper-guarantee checkers over one
// deployment), the temporal conformance run (the same checkers re-applied
// after every event batch of a churn schedule driven through the
// incremental ThetaMaintainer), the greedy shrinkers that minimize a
// failing instance — over the node set and, for temporal cases, over the
// event sequence as a second ddmin dimension — and the corpus format that
// persists shrunk reproducers as committed regression cases
// (tests/conformance/corpus/).

#include <functional>
#include <iosfwd>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "routing/adversary.h"
#include "sim/dynamics.h"
#include "topology/deployment.h"
#include "verify/invariants.h"
#include "verify/report.h"

namespace thetanet::verify {

/// Test-only hook: mutates a copy of the constructed topology N before the
/// checkers see it. Used to inject deliberate bugs (shrinker self-tests,
/// checker unit tests); production runs pass none.
using TopologyMutator =
    std::function<void(graph::Graph&, const topo::Deployment&)>;

struct ConformanceOptions {
  double theta = 0.3490658503988659;  ///< pi/9
  double delta = 1.0;                 ///< interference guard zone
  double max_energy_stretch = kDefaultEnergyStretchBound;
  std::uint32_t max_replacement_reuse = kDefaultReplacementReuseBound;

  bool run_stretch = true;
  bool run_replacement = true;
  bool run_router = true;

  // Router sub-run (a small certified trace over N).
  std::uint64_t trace_seed = 1;
  route::Time trace_horizon = 48;
  route::Time trace_drain = 48;
  double router_eps = 0.25;
};

/// Run every applicable checker on the deployment: builds G* and ThetaALG's
/// N, audits Lemma 2.1 / Theorem 2.2 / Lemma 2.9, then drives a certified
/// (T,gamma)-balancing run over N and audits the Section 3 bounds.
/// Degenerate inputs are handled, not rejected: n < 2 trivially passes, and
/// duplicate points (unique-distance violation) skip the replacement-path
/// checker with a note. `mutator`, when set, corrupts the audited copy of N
/// (never the ThetaTopology used to derive replacement paths).
ConformanceReport run_conformance(const topo::Deployment& d,
                                  const ConformanceOptions& opt,
                                  const TopologyMutator& mutator = {});

/// Greedy node-removal bisection (delta-debugging style): repeatedly delete
/// the largest chunk of nodes that keeps run_conformance failing, down to
/// single nodes. Returns the minimal reproducer together with its failing
/// report and the number of conformance evaluations spent.
struct ShrinkResult {
  topo::Deployment reproducer;
  ConformanceReport report;
  std::size_t evaluations = 0;
};

ShrinkResult shrink_deployment(const topo::Deployment& failing,
                               const ConformanceOptions& opt,
                               const TopologyMutator& mutator = {},
                               std::size_t max_evaluations = 2000);

/// The node-removal shrink behind shrink_deployment and
/// shrink_zoo_deployment, for any conformance run `run` that fails on
/// `failing`. Never removes the last node.
ShrinkResult shrink_nodes(
    const topo::Deployment& failing,
    const std::function<ConformanceReport(const topo::Deployment&)>& run,
    std::size_t max_evaluations);

// ---------------------------------------------------------------------------
// Temporal conformance: paper guarantees under churn. The maintained
// overlay must stay exactly ThetaALG's N of the *surviving* node set after
// every event batch (the §2.4 self-maintenance claim), and that N must keep
// satisfying Lemma 2.1 / Theorem 2.2 / Lemma 2.9 throughout the schedule.

struct ChurnOptions {
  ConformanceOptions checks;     ///< thresholds shared with the static run
  sim::DynamicsConfig dynamics;  ///< duty cycle, het ranges, planted bug
  std::uint64_t dynamics_seed = 1;
  std::uint32_t rounds = 0;      ///< 0: derived from the schedule
  std::uint32_t check_every = 1; ///< audit cadence in rounds (final always)
  /// The router sub-run costs more than every other checker combined, so
  /// temporal runs drive it once, over the final surviving topology, rather
  /// than per batch (checks.run_router gates it entirely).
  bool router_on_final_only = true;
};

/// check_maintenance_conformance: audit one maintainer state. (a) The
/// maintained overlay is edge-identical (under the compact-id mapping) to a
/// fresh ThetaTopology of the active sub-deployment — Lemma 2.1/2.9 rest on
/// N being *exactly* ThetaALG's output for the current node set; (b) the
/// dynamics energy ledger conserves (granted + harvested = drained +
/// remaining, exact u64). Used per batch by run_churn_conformance.
CheckReport check_maintenance_conformance(const core::ThetaMaintainer& m,
                                          const sim::DynamicsEngine* engine);

/// Drive the schedule through a fresh ThetaMaintainer + DynamicsEngine and
/// re-run the checkers after every check_every-th event batch (and after
/// the final one): check_maintenance_conformance plus the full static
/// battery of run_conformance over the surviving nodes, with the *audited*
/// topology replaced by the maintained one — so a maintenance bug surfaces
/// both as an equivalence diff and as concrete Lemma/Theorem violations.
/// Check names are prefixed "r<round>/" so reports stay deterministic and
/// self-describing.
ConformanceReport run_churn_conformance(const topo::Deployment& d0,
                                        std::span<const sim::DynEvent> events,
                                        const ChurnOptions& opt);

/// ddmin over both dimensions of a failing temporal case: alternate greedy
/// chunked removal over the event list and over the node set until neither
/// shrinks further. Node removal never invalidates the schedule — events
/// addressing dropped ids become counted no-ops by the engine's contract.
struct ChurnShrinkResult {
  topo::Deployment reproducer;
  std::vector<sim::DynEvent> events;
  ConformanceReport report;
  std::size_t evaluations = 0;
};

ChurnShrinkResult shrink_churn(const topo::Deployment& failing,
                               std::span<const sim::DynEvent> events,
                               const ChurnOptions& opt,
                               std::size_t max_evaluations = 4000);

/// A committed regression case: the shrunk deployment plus everything needed
/// to re-run the checkers that failed. Static cases serialize as
///
///   conformance v1 <name> <seed>
///   theta <theta> delta <delta>
///   deployment v1 <n> <max_range> <kappa>
///   <x> <y> ...
///
/// Temporal (churn) cases — any case with a non-empty event list — bump the
/// version and append the schedule:
///
///   conformance v2 <name> <seed>
///   theta <theta> delta <delta>
///   dynamics seed <dseed> rounds <rounds>
///   deployment v1 <n> <max_range> <kappa>
///   <x> <y> ...
///   events v1 <k>
///   <round> <kind> <node> <x> <y> <radius> ...
///
/// (<kind> is the dyn_event_kind_name token; replay drives the schedule
/// through run_churn_conformance with duty cycling off.) Loaders accept
/// both versions; savers emit v1 for event-free cases so the existing
/// corpus stays byte-stable.
struct CorpusCase {
  std::string name;        ///< scenario label (no spaces)
  std::uint64_t seed = 0;  ///< originating fuzz seed, for provenance
  double theta = 0.3490658503988659;
  double delta = 1.0;
  topo::Deployment deployment;
  std::vector<sim::DynEvent> events;  ///< non-empty: a temporal case
  std::uint64_t dynamics_seed = 1;
  std::uint32_t rounds = 0;  ///< schedule rounds (0: derived from events)
};

void save_corpus_case(std::ostream& os, const CorpusCase& c);
bool save_corpus_case(const std::string& path, const CorpusCase& c);
std::optional<CorpusCase> load_corpus_case(std::istream& is);
std::optional<CorpusCase> load_corpus_case(const std::string& path);

}  // namespace thetanet::verify
