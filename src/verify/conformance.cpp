#include "verify/conformance.h"

#include <algorithm>
#include <fstream>
#include <string>
#include <utility>
#include <vector>

#include "core/theta_maintenance.h"
#include "core/theta_topology.h"
#include "geom/rng.h"
#include "interference/model.h"
#include "sim/scenarios.h"
#include "topology/io.h"
#include "topology/transmission_graph.h"

namespace thetanet::verify {

namespace {

CheckReport skipped(const char* checker, std::string why) {
  CheckReport r;
  r.checker = checker;
  r.notes.push_back("skipped: " + std::move(why));
  return r;
}

topo::Deployment without_range(const topo::Deployment& d, std::size_t begin,
                               std::size_t end) {
  topo::Deployment out;
  out.max_range = d.max_range;
  out.kappa = d.kappa;
  out.positions.reserve(d.size() - (end - begin));
  for (std::size_t i = 0; i < d.size(); ++i)
    if (i < begin || i >= end) out.positions.push_back(d.positions[i]);
  return out;
}

/// Greedy chunked removal (ddmin flavour), the one loop behind every
/// shrinker: over a sequence of `size` items, try to delete progressively
/// smaller contiguous blocks [begin, end). `remove(begin, end)` evaluates
/// the case without that block and, if it still fails, keeps the deletion
/// and returns true. Each call counts towards `evaluations`, and no call is
/// made once it reaches `max_evaluations`. `keep_one` forbids removing the
/// whole sequence. Returns whether anything was removed.
bool ddmin(std::size_t size, bool keep_one, std::size_t& evaluations,
           std::size_t max_evaluations,
           const std::function<bool(std::size_t, std::size_t)>& remove) {
  bool shrunk_any = false;
  std::size_t chunk = std::max<std::size_t>(1, size / 2);
  for (;;) {
    bool removed_any = false;
    std::size_t begin = 0;
    while (begin < size) {
      if (evaluations >= max_evaluations) return shrunk_any;
      const std::size_t end = std::min(begin + chunk, size);
      if (keep_one && end - begin == size) break;
      const bool removed = remove(begin, end);
      ++evaluations;
      if (removed) {
        size -= end - begin;
        removed_any = shrunk_any = true;
        // keep `begin`: the next block slid into this position
      } else {
        begin = end;
      }
    }
    if (chunk == 1 && !removed_any) return shrunk_any;
    if (!removed_any) chunk /= 2;
  }
}

}  // namespace

ConformanceReport run_conformance(const topo::Deployment& d,
                                  const ConformanceOptions& opt,
                                  const TopologyMutator& mutator) {
  ConformanceReport rep;
  rep.scenario = "deployment-n" + std::to_string(d.size());

  if (d.size() < 2) {
    CheckReport trivial;
    trivial.checker = "conformance";
    trivial.checks = 1;
    trivial.notes.push_back("n < 2: every guarantee holds vacuously");
    rep.checks.push_back(std::move(trivial));
    return rep;
  }

  const graph::Graph gstar = topo::build_transmission_graph(d);
  const core::ThetaTopology tt(d, opt.theta);

  // Duplicate points void the paper's unique-distance assumption; the
  // guarantees that presuppose it (connectivity, stretch, theta-paths) are
  // skipped on such inputs while the structural checks still run.
  const double min_dist = min_max_pairwise_distance(d).first;
  const bool unique_distances = min_dist > 0.0;

  graph::Graph n_audit = tt.graph();
  if (mutator) mutator(n_audit, d);

  // The audited copy is checked against the construction state even when a
  // mutator corrupted it — that mismatch is precisely what the shrinker
  // self-tests rely on detecting.
  rep.checks.push_back(check_theta_invariants(n_audit, d, opt.theta, gstar,
                                              &tt, unique_distances));

  if (!opt.run_stretch) {
    rep.checks.push_back(skipped("theorem2.2/energy-stretch", "disabled"));
  } else if (!unique_distances) {
    rep.checks.push_back(skipped(
        "theorem2.2/energy-stretch",
        "duplicate points void the unique-distance assumption"));
  } else {
    rep.checks.push_back(
        check_energy_stretch(n_audit, d, gstar, opt.max_energy_stretch));
  }

  // Lemma 2.9's theta-path recursion likewise assumes unique pairwise
  // distances; coincident points can cycle it.
  if (!opt.run_replacement) {
    rep.checks.push_back(skipped("lemma2.9/replacement-reuse", "disabled"));
  } else if (!unique_distances) {
    rep.checks.push_back(skipped("lemma2.9/replacement-reuse",
                                 "duplicate points break the theta-path "
                                 "recursion's distance ordering"));
  } else if (gstar.num_edges() == 0) {
    rep.checks.push_back(
        skipped("lemma2.9/replacement-reuse", "G* has no edges"));
  } else {
    const interf::InterferenceModel model{opt.delta};
    rep.checks.push_back(check_replacement_reuse(
        tt, gstar, model, opt.max_replacement_reuse));
  }

  if (!opt.run_router) {
    rep.checks.push_back(skipped("theorem3.1/router-bounds", "disabled"));
  } else if (n_audit.num_edges() == 0) {
    rep.checks.push_back(
        skipped("theorem3.1/router-bounds", "topology has no edges"));
  } else {
    route::TraceParams tp;
    tp.horizon = opt.trace_horizon;
    tp.drain = opt.trace_drain;
    tp.injections_per_step = 2.0;
    tp.num_destinations = 2;
    geom::Rng rng(opt.trace_seed * 0x9e3779b97f4a7c15ULL + 0x2545f4914f6cdd1dULL);
    const route::AdversaryTrace trace = make_certified_trace(n_audit, tp, rng);
    const core::BalancingParams params =
        core::theorem31_params(trace.opt, opt.router_eps, opt.delta);
    const sim::ScenarioResult result =
        sim::run_mac_given(trace, params, /*extra_drain=*/opt.trace_drain);
    RouterBoundsParams rb;
    rb.theorem31_delta = opt.delta;
    rb.expect_no_collisions = true;  // scenario 1: the MAC is given
    rep.checks.push_back(check_router_bounds(trace, params, result, rb));
  }

  return rep;
}

CheckReport check_maintenance_conformance(const core::ThetaMaintainer& m,
                                          const sim::DynamicsEngine* engine) {
  CheckReport r;
  r.checker = "maintenance/equivalence";

  // (a) Edge-identity with a from-scratch build on the surviving nodes.
  std::vector<graph::NodeId> ids;
  const topo::Deployment compact = m.active_deployment(&ids);
  ++r.checks;
  if (compact.size() >= 2) {
    const core::ThetaTopology fresh(compact, m.theta());
    // Map fresh's compact endpoints back to original ids (ids ascending, so
    // orientation and sort order survive), then diff against the maintained
    // edge list.
    std::vector<std::pair<graph::NodeId, graph::NodeId>> want;
    want.reserve(fresh.graph().num_edges());
    for (graph::EdgeId e = 0; e < fresh.graph().num_edges(); ++e)
      want.emplace_back(ids[fresh.graph().edge(e).u],
                        ids[fresh.graph().edge(e).v]);
    std::sort(want.begin(), want.end());
    std::vector<std::pair<graph::NodeId, graph::NodeId>> have;
    have.reserve(m.graph().num_edges());
    for (graph::EdgeId e = 0; e < m.graph().num_edges(); ++e)
      have.emplace_back(m.graph().edge(e).u, m.graph().edge(e).v);
    std::sort(have.begin(), have.end());
    if (want != have) {
      std::size_t reported = 0;
      for (const auto& [u, v] : want)
        if (!std::binary_search(have.begin(), have.end(), std::pair(u, v)) &&
            reported++ < 4)
          r.add_violation("maintenance/missing-edge",
                          "maintained N lacks fresh-build edge (" +
                              std::to_string(u) + ", " + std::to_string(v) +
                              ")");
      for (const auto& [u, v] : have)
        if (!std::binary_search(want.begin(), want.end(), std::pair(u, v)) &&
            reported++ < 8)
          r.add_violation("maintenance/extra-edge",
                          "maintained N carries edge (" + std::to_string(u) +
                              ", " + std::to_string(v) +
                              ") absent from a fresh build");
      if (reported == 0)
        r.add_violation("maintenance/equivalence",
                        "edge lists differ (count " +
                            std::to_string(have.size()) + " vs " +
                            std::to_string(want.size()) + ")");
    }
  } else if (m.graph().num_edges() != 0) {
    r.add_violation("maintenance/ghost-edges",
                    "fewer than 2 active nodes but the maintained overlay "
                    "has " + std::to_string(m.graph().num_edges()) + " edges");
  }

  // (b) No edge may touch an inactive (asleep/dead) node.
  ++r.checks;
  for (graph::EdgeId e = 0; e < m.graph().num_edges(); ++e) {
    const graph::Edge& ed = m.graph().edge(e);
    if (!m.active(ed.u) || !m.active(ed.v)) {
      r.add_violation("maintenance/inactive-endpoint",
                      "edge (" + std::to_string(ed.u) + ", " +
                          std::to_string(ed.v) +
                          ") touches an inactive node");
      break;
    }
  }

  // (c) Exact energy conservation of the duty-cycle ledger.
  if (engine) {
    ++r.checks;
    const std::uint64_t in =
        engine->energy_granted() + engine->energy_harvested();
    const std::uint64_t out =
        engine->energy_drained() + engine->energy_remaining();
    if (in != out)
      r.add_violation("dynamics/energy-conservation",
                      "granted+harvested = " + std::to_string(in) +
                          " but drained+remaining = " + std::to_string(out));
  }
  return r;
}

namespace {

/// The maintained overlay compacted to active ids — substituted for the
/// audited N inside run_conformance so the static checkers (Lemma 2.1,
/// Theorem 2.2, Lemma 2.9 reuse surface) judge the *maintained* topology,
/// not a fresh rebuild.
graph::Graph compact_maintained_graph(const core::ThetaMaintainer& m,
                                      const std::vector<graph::NodeId>& ids) {
  std::vector<graph::NodeId> to_compact(m.deployment().size(),
                                        graph::kInvalidNode);
  for (std::size_t i = 0; i < ids.size(); ++i)
    to_compact[ids[i]] = static_cast<graph::NodeId>(i);
  graph::GraphBuilder out(ids.size());
  for (graph::EdgeId e = 0; e < m.graph().num_edges(); ++e) {
    const graph::Edge& ed = m.graph().edge(e);
    TN_ASSERT(to_compact[ed.u] != graph::kInvalidNode &&
              to_compact[ed.v] != graph::kInvalidNode);
    out.add_edge(to_compact[ed.u], to_compact[ed.v], ed.length, ed.cost);
  }
  return std::move(out).build();
}

}  // namespace

ConformanceReport run_churn_conformance(const topo::Deployment& d0,
                                        std::span<const sim::DynEvent> events,
                                        const ChurnOptions& opt) {
  ConformanceReport rep;
  rep.scenario = "churn-deployment-n" + std::to_string(d0.size());

  core::ThetaMaintainer m(d0, opt.checks.theta);
  sim::DynamicsEngine engine(m, opt.dynamics, opt.dynamics_seed);

  std::uint64_t rounds = opt.rounds;
  for (const sim::DynEvent& e : events)
    rounds = std::max<std::uint64_t>(rounds, e.round + 1);
  if (rounds == 0) rounds = 1;  // audit the initial state at least once

  const auto audit = [&](std::uint64_t round, bool final_round) {
    const std::string prefix = "r" + std::to_string(round) + "/";
    CheckReport eq = check_maintenance_conformance(m, &engine);
    eq.checker = prefix + eq.checker;
    rep.checks.push_back(std::move(eq));

    std::vector<graph::NodeId> ids;
    const topo::Deployment compact = m.active_deployment(&ids);
    ConformanceOptions copt = opt.checks;
    if (opt.router_on_final_only && !final_round) copt.run_router = false;
    const graph::Graph maintained = compact_maintained_graph(m, ids);
    ConformanceReport batch = run_conformance(
        compact, copt,
        [&](graph::Graph& g, const topo::Deployment&) { g = maintained; });
    for (CheckReport& c : batch.checks) {
      c.checker = prefix + c.checker;
      rep.checks.push_back(std::move(c));
    }
  };

  std::size_t next = 0;
  for (std::uint64_t r = 0; r < rounds; ++r) {
    std::size_t end = next;
    while (end < events.size() && events[end].round == r) ++end;
    engine.step(events.subspan(next, end - next));
    next = end;
    const bool final_round = r + 1 == rounds;
    if (final_round || opt.check_every <= 1 ||
        r % opt.check_every == opt.check_every - 1)
      audit(r, final_round);
  }
  return rep;
}

namespace {

/// Greedy chunked subsequence removal over the event list (the second ddmin
/// dimension). Keeps any deletion under which the run still fails.
bool ddmin_events(ChurnShrinkResult& res, const ChurnOptions& opt,
                  std::size_t max_evaluations) {
  return ddmin(
      res.events.size(), /*keep_one=*/false, res.evaluations, max_evaluations,
      [&](std::size_t begin, std::size_t end) {
        std::vector<sim::DynEvent> candidate;
        candidate.reserve(res.events.size() - (end - begin));
        candidate.insert(candidate.end(), res.events.begin(),
                         res.events.begin() + static_cast<std::ptrdiff_t>(begin));
        candidate.insert(candidate.end(),
                         res.events.begin() + static_cast<std::ptrdiff_t>(end),
                         res.events.end());
        ConformanceReport r =
            run_churn_conformance(res.reproducer, candidate, opt);
        if (r.pass()) return false;
        res.events = std::move(candidate);
        res.report = std::move(r);
        return true;
      });
}

/// Dropping deployment nodes [begin, end) renumbers every id at or above
/// `end` (base nodes and later joins alike), so event targets must shift
/// with them. Targets inside the dropped block become kInvalidNode — the
/// engine counts those as no-ops, keeping any candidate well-formed.
std::vector<sim::DynEvent> remap_events_for_removal(
    const std::vector<sim::DynEvent>& events, std::size_t begin,
    std::size_t end) {
  std::vector<sim::DynEvent> out = events;
  const auto removed = static_cast<graph::NodeId>(end - begin);
  for (sim::DynEvent& e : out) {
    if (e.node == graph::kInvalidNode) continue;
    if (e.node >= end)
      e.node -= removed;
    else if (e.node >= begin)
      e.node = graph::kInvalidNode;
  }
  return out;
}

/// Greedy chunked node removal for temporal cases, with the event targets
/// remapped per candidate so the surviving schedule keeps addressing the
/// same surviving nodes.
bool ddmin_nodes(ChurnShrinkResult& res, const ChurnOptions& opt,
                 std::size_t max_evaluations) {
  return ddmin(
      res.reproducer.size(), /*keep_one=*/true, res.evaluations,
      max_evaluations, [&](std::size_t begin, std::size_t end) {
        topo::Deployment candidate = without_range(res.reproducer, begin, end);
        std::vector<sim::DynEvent> cand_events =
            remap_events_for_removal(res.events, begin, end);
        ConformanceReport r =
            run_churn_conformance(candidate, cand_events, opt);
        if (r.pass()) return false;
        res.reproducer = std::move(candidate);
        res.events = std::move(cand_events);
        res.report = std::move(r);
        return true;
      });
}

}  // namespace

ChurnShrinkResult shrink_churn(const topo::Deployment& failing,
                               std::span<const sim::DynEvent> events,
                               const ChurnOptions& opt,
                               std::size_t max_evaluations) {
  ChurnShrinkResult res;
  res.reproducer = failing;
  res.events.assign(events.begin(), events.end());
  res.report = run_churn_conformance(failing, events, opt);
  res.evaluations = 1;
  TN_ASSERT_MSG(!res.report.pass(),
                "shrink_churn() needs a failing temporal case to shrink");

  // Alternate the two dimensions to a fixpoint: a smaller event list often
  // unlocks further node removals and vice versa.
  for (;;) {
    bool progress = ddmin_events(res, opt, max_evaluations);
    progress |= ddmin_nodes(res, opt, max_evaluations);
    if (!progress || res.evaluations >= max_evaluations) break;
  }
  return res;
}

ShrinkResult shrink_nodes(
    const topo::Deployment& failing,
    const std::function<ConformanceReport(const topo::Deployment&)>& run,
    std::size_t max_evaluations) {
  ShrinkResult res;
  res.reproducer = failing;
  res.report = run(failing);
  res.evaluations = 1;
  TN_ASSERT_MSG(!res.report.pass(), "a shrinker needs a failing instance");
  ddmin(res.reproducer.size(), /*keep_one=*/true, res.evaluations,
        max_evaluations, [&](std::size_t begin, std::size_t end) {
          topo::Deployment candidate =
              without_range(res.reproducer, begin, end);
          ConformanceReport r = run(candidate);
          if (r.pass()) return false;
          res.reproducer = std::move(candidate);
          res.report = std::move(r);
          return true;
        });
  return res;
}

ShrinkResult shrink_deployment(const topo::Deployment& failing,
                               const ConformanceOptions& opt,
                               const TopologyMutator& mutator,
                               std::size_t max_evaluations) {
  return shrink_nodes(
      failing,
      [&](const topo::Deployment& d) { return run_conformance(d, opt, mutator); },
      max_evaluations);
}

void save_corpus_case(std::ostream& os, const CorpusCase& c) {
  // Event-free cases keep emitting v1 so the existing corpus stays
  // byte-stable; only temporal cases pay the version bump.
  const bool temporal = !c.events.empty();
  os << "conformance " << (temporal ? "v2 " : "v1 ")
     << (c.name.empty() ? "unnamed" : c.name) << ' ' << c.seed << '\n';
  os << "theta " << format_double(c.theta) << " delta "
     << format_double(c.delta) << '\n';
  if (temporal)
    os << "dynamics seed " << c.dynamics_seed << " rounds " << c.rounds
       << '\n';
  topo::save_deployment(os, c.deployment);
  if (temporal) {
    os << "events v1 " << c.events.size() << '\n';
    for (const sim::DynEvent& e : c.events)
      os << e.round << ' ' << sim::dyn_event_kind_name(e.kind) << ' '
         << e.node << ' ' << format_double(e.pos.x) << ' '
         << format_double(e.pos.y) << ' ' << format_double(e.radius) << '\n';
  }
}

bool save_corpus_case(const std::string& path, const CorpusCase& c) {
  std::ofstream os(path);
  if (!os) return false;
  save_corpus_case(os, c);
  return static_cast<bool>(os);
}

std::optional<CorpusCase> load_corpus_case(std::istream& is) {
  std::string magic, version;
  CorpusCase c;
  if (!(is >> magic >> version >> c.name >> c.seed)) return std::nullopt;
  if (magic != "conformance" || (version != "v1" && version != "v2"))
    return std::nullopt;
  std::string kw_theta, kw_delta;
  if (!(is >> kw_theta >> c.theta >> kw_delta >> c.delta)) return std::nullopt;
  if (kw_theta != "theta" || kw_delta != "delta") return std::nullopt;
  if (version == "v2") {
    std::string kw_dyn, kw_seed, kw_rounds;
    if (!(is >> kw_dyn >> kw_seed >> c.dynamics_seed >> kw_rounds >> c.rounds))
      return std::nullopt;
    if (kw_dyn != "dynamics" || kw_seed != "seed" || kw_rounds != "rounds")
      return std::nullopt;
  }
  std::optional<topo::Deployment> d = topo::load_deployment(is);
  if (!d) return std::nullopt;
  c.deployment = std::move(*d);
  if (version == "v2") {
    std::string kw_events, ev_version;
    std::size_t count = 0;
    if (!(is >> kw_events >> ev_version >> count)) return std::nullopt;
    if (kw_events != "events" || ev_version != "v1") return std::nullopt;
    c.events.reserve(count);
    for (std::size_t i = 0; i < count; ++i) {
      sim::DynEvent e;
      std::string kind;
      if (!(is >> e.round >> kind >> e.node >> e.pos.x >> e.pos.y >>
            e.radius))
        return std::nullopt;
      const std::optional<sim::DynEventKind> k = sim::parse_dyn_event_kind(kind);
      if (!k) return std::nullopt;
      e.kind = *k;
      c.events.push_back(e);
    }
  }
  return c;
}

std::optional<CorpusCase> load_corpus_case(const std::string& path) {
  std::ifstream is(path);
  if (!is) return std::nullopt;
  return load_corpus_case(is);
}

}  // namespace thetanet::verify
