#include "verify/invariants.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "geom/angles.h"
#include "graph/connectivity.h"
#include "graph/stretch.h"

namespace thetanet::verify {
namespace {

/// Keeps reports bounded on badly broken instances: the first
/// kMaxViolations are recorded verbatim, the rest are summarized.
constexpr std::size_t kMaxViolations = 32;

class Collector {
 public:
  explicit Collector(CheckReport& r) : r_(r) {}
  ~Collector() {
    if (suppressed_ > 0)
      r_.add_violation("report/truncated",
                       std::to_string(suppressed_) +
                           " further violations suppressed");
  }

  /// Evaluate one assertion; record a violation when `ok` is false.
  template <typename DetailFn>
  void expect(bool ok, const char* rule, const DetailFn& detail) {
    ++r_.checks;
    if (ok) return;
    if (r_.violations.size() < kMaxViolations)
      r_.add_violation(rule, detail());
    else
      ++suppressed_;
  }

 private:
  CheckReport& r_;
  std::size_t suppressed_ = 0;
};

std::string node_str(graph::NodeId v) { return std::to_string(v); }

std::string edge_str(const graph::Edge& e) {
  return "(" + node_str(e.u) + "," + node_str(e.v) + ")";
}

/// Rebuild a graph with costs |uv|^kappa (topology structure unchanged).
graph::Graph recost(const graph::Graph& g, double kappa) {
  graph::GraphBuilder out(g.num_nodes());
  for (const graph::Edge& e : g.edges())
    out.add_edge(e.u, e.v, e.length, std::pow(e.length, kappa));
  return std::move(out).build();
}

}  // namespace

CheckReport check_theta_invariants(const graph::Graph& n,
                                   const topo::Deployment& d, double theta,
                                   const graph::Graph& gstar,
                                   const core::ThetaTopology* tt,
                                   bool assume_unique_distances) {
  CheckReport report;
  report.checker = "theta_invariants";
  Collector c(report);

  c.expect(n.num_nodes() == d.size() && gstar.num_nodes() == d.size(),
           "structure/node-count", [&] {
             return "topology has " + std::to_string(n.num_nodes()) +
                    " nodes, G* has " + std::to_string(gstar.num_nodes()) +
                    ", deployment has " + std::to_string(d.size());
           });
  if (n.num_nodes() != d.size() || gstar.num_nodes() != d.size()) return report;

  // Lemma 2.1: max degree <= 4*pi/theta, per node.
  const double degree_bound = 4.0 * std::numbers::pi / theta;
  for (graph::NodeId v = 0; v < n.num_nodes(); ++v) {
    c.expect(static_cast<double>(n.degree(v)) <= degree_bound,
             "lemma2.1/degree", [&] {
               return "node " + node_str(v) + " has degree " +
                      std::to_string(n.degree(v)) + " > 4*pi/theta = " +
                      format_double(degree_bound);
             });
  }

  // N is a subgraph of G* with consistent weights.
  for (const graph::Edge& e : n.edges()) {
    const double len = d.distance(e.u, e.v);
    c.expect(len <= d.max_range, "structure/edge-in-range", [&] {
      return "edge " + edge_str(e) + " has length " + format_double(len) +
             " > max_range " + format_double(d.max_range);
    });
    c.expect(gstar.has_edge(e.u, e.v), "structure/subgraph-of-gstar", [&] {
      return "edge " + edge_str(e) + " missing from G*";
    });
    const double tol = 1e-12 * std::max(1.0, len);
    c.expect(std::abs(e.length - len) <= tol, "structure/edge-length", [&] {
      return "edge " + edge_str(e) + " stores length " +
             format_double(e.length) + ", deployment says " +
             format_double(len);
    });
    const double cost = d.cost_of_length(len);
    c.expect(std::abs(e.cost - cost) <= 1e-12 * std::max(1.0, cost),
             "structure/edge-cost", [&] {
               return "edge " + edge_str(e) + " stores cost " +
                      format_double(e.cost) + ", deployment says " +
                      format_double(cost);
             });
  }

  // Lemma 2.1 connectivity: N must preserve G*'s component structure (N is
  // connected whenever G* is; being a subgraph it can only split, never
  // merge, so component-count equality is the exact statement). The lemma
  // presupposes unique pairwise distances — with coincident points phase 2
  // can legitimately orphan duplicates, so the check is gated.
  if (assume_unique_distances) {
    const std::size_t comps_n = graph::num_components(n);
    const std::size_t comps_g = graph::num_components(gstar);
    c.expect(comps_n == comps_g, "lemma2.1/connectivity", [&] {
      return "N has " + std::to_string(comps_n) + " components, G* has " +
             std::to_string(comps_g);
    });
  } else {
    report.notes.push_back(
        "connectivity check skipped: duplicate points void Lemma 2.1's "
        "unique-distance assumption");
  }

  if (tt != nullptr) {
    // Phase-2 admission structure (the constructive core of Lemma 2.1).
    for (graph::NodeId v = 0; v < d.size(); ++v) {
      for (int s = 0; s < tt->sectors(); ++s) {
        const graph::NodeId w = tt->admitted(v, s);
        if (w == graph::kInvalidNode) continue;
        c.expect(n.find_edge(v, w) != graph::kInvalidEdge,
                 "phase2/admitted-edge-materialized", [&] {
                   return "admitted edge (" + node_str(v) + "," + node_str(w) +
                          ") at sector " + std::to_string(s) + " not in N";
                 });
        c.expect(
            geom::sector_index(d.positions[v], d.positions[w], theta) == s,
            "phase2/admitted-in-sector", [&] {
              return "admitted node " + node_str(w) + " not in sector " +
                     std::to_string(s) + " of node " + node_str(v);
            });
        c.expect(tt->selects(w, v), "phase2/admitted-was-selected", [&] {
          return "node " + node_str(v) + " admitted " + node_str(w) +
                 " which never selected it in phase 1";
        });
      }
    }
    for (const graph::Edge& e : n.edges()) {
      const int su =
          geom::sector_index(d.positions[e.u], d.positions[e.v], theta);
      const int sv =
          geom::sector_index(d.positions[e.v], d.positions[e.u], theta);
      c.expect(tt->admitted(e.u, su) == e.v || tt->admitted(e.v, sv) == e.u,
               "phase2/edge-was-admitted", [&] {
                 return "edge " + edge_str(e) +
                        " in N but admitted by neither endpoint";
               });
      c.expect(tt->selects(e.u, e.v) || tt->selects(e.v, e.u),
               "phase1/subgraph-of-yao", [&] {
                 return "edge " + edge_str(e) +
                        " in N but selected by neither endpoint in phase 1";
               });
    }
  }
  return report;
}

CheckReport check_energy_stretch(const graph::Graph& n,
                                 const topo::Deployment& d,
                                 const graph::Graph& gstar,
                                 double max_stretch) {
  CheckReport report;
  report.checker = "energy_stretch";
  Collector c(report);
  report.notes.push_back("deployment kappa=" + format_double(d.kappa) +
                         " (sweep checks kappa in {2,3,4})");

  if (n.num_nodes() != gstar.num_nodes()) {
    c.expect(false, "structure/node-count", [&] {
      return "topology has " + std::to_string(n.num_nodes()) +
             " nodes, G* has " + std::to_string(gstar.num_nodes());
    });
    return report;
  }

  // Coincident points produce zero-weight base edges for which a stretch
  // ratio is undefined; edge_stretch skips them, we note the condition.
  bool has_zero_edge = false;
  for (const graph::Edge& e : gstar.edges())
    if (e.length <= 0.0) has_zero_edge = true;
  if (has_zero_edge)
    report.notes.push_back("zero-length G* edges skipped (coincident points)");

  for (const double kappa : {2.0, 3.0, 4.0}) {
    const graph::Graph h = recost(n, kappa);
    const graph::Graph base = recost(gstar, kappa);
    const graph::StretchStats s =
        graph::edge_stretch(h, base, graph::Weight::kCost);
    c.expect(!s.disconnected, "theorem2.2/reachability", [&] {
      return "kappa=" + format_double(kappa) +
             ": some G* edge's endpoints are unreachable in N";
    });
    c.expect(s.max <= max_stretch, "theorem2.2/energy-stretch", [&] {
      return "kappa=" + format_double(kappa) + ": edge stretch " +
             format_double(s.max) + " > bound " + format_double(max_stretch) +
             " (argmax pair " + node_str(s.argmax_u) + "," +
             node_str(s.argmax_v) + ")";
    });
  }
  return report;
}

CheckReport check_replacement_reuse(const core::ThetaTopology& tt,
                                    const graph::Graph& gstar,
                                    const interf::InterferenceModel& m,
                                    std::uint32_t max_reuse) {
  CheckReport report;
  report.checker = "replacement_reuse";
  Collector c(report);
  const topo::Deployment& d = tt.deployment();

  // Greedy maximal non-interfering edge set T of G* (the universe Lemma 2.9
  // quantifies over is "any non-interfering set"; greedy maximal is the
  // densest stress the model admits).
  std::vector<std::pair<graph::NodeId, graph::NodeId>> matching;
  std::vector<graph::EdgeId> chosen;
  for (graph::EdgeId e = 0; e < gstar.num_edges(); ++e) {
    const graph::Edge& ge = gstar.edge(e);
    bool ok = true;
    for (const graph::EdgeId f : chosen) {
      const graph::Edge& fe = gstar.edge(f);
      if (m.in_interference_set(d.positions[ge.u], d.positions[ge.v],
                                d.positions[fe.u], d.positions[fe.v])) {
        ok = false;
        break;
      }
    }
    if (ok) {
      chosen.push_back(e);
      matching.push_back({ge.u, ge.v});
    }
  }
  report.notes.push_back("non-interfering set size " +
                         std::to_string(matching.size()));

  // Path validity: every replacement path is a connected u..v walk in N.
  std::vector<std::uint32_t> uses(tt.graph().num_edges(), 0);
  std::vector<bool> counted(tt.graph().num_edges(), false);
  std::uint32_t worst = 0;
  for (const auto& [u, v] : matching) {
    const std::vector<graph::EdgeId> path = tt.replacement_path(u, v);
    c.expect(!path.empty(), "lemma2.9/path-nonempty", [&] {
      return "replacement path for (" + node_str(u) + "," + node_str(v) +
             ") is empty";
    });
    graph::NodeId at = u;
    bool connected = true;
    for (const graph::EdgeId pe : path) {
      if (pe >= tt.graph().num_edges()) {
        connected = false;
        break;
      }
      const graph::Edge& edge = tt.graph().edge(pe);
      if (edge.u != at && edge.v != at) {
        connected = false;
        break;
      }
      at = edge.other(at);
    }
    c.expect(connected && at == v, "lemma2.9/path-connects", [&] {
      return "replacement path for (" + node_str(u) + "," + node_str(v) +
             ") is not a connected u..v walk";
    });
    if (!connected) continue;
    // Reuse accounting: a path counts once per distinct edge.
    std::fill(counted.begin(), counted.end(), false);
    for (const graph::EdgeId pe : path) {
      if (counted[pe]) continue;
      counted[pe] = true;
      worst = std::max(worst, ++uses[pe]);
    }
  }
  c.expect(worst <= max_reuse, "lemma2.9/reuse-bound", [&] {
    return "an N edge is shared by " + std::to_string(worst) +
           " replacement paths > bound " + std::to_string(max_reuse);
  });
  report.notes.push_back("max observed reuse " + std::to_string(worst));
  return report;
}

CheckReport check_interference_growth(
    std::span<const InterferenceSample> samples, double max_per_log_n,
    double growth_slack) {
  CheckReport report;
  report.checker = "interference_growth";
  Collector c(report);

  const InterferenceSample* first = nullptr;
  const InterferenceSample* last = nullptr;
  for (const InterferenceSample& s : samples) {
    if (s.n < 2) continue;
    const double log_n = std::log2(static_cast<double>(s.n));
    c.expect(static_cast<double>(s.interference) <= max_per_log_n * log_n,
             "lemma2.10/log-bound", [&] {
               return "n=" + std::to_string(s.n) + ": I(N)=" +
                      std::to_string(s.interference) + " > " +
                      format_double(max_per_log_n) + "*log2(n)=" +
                      format_double(max_per_log_n * log_n);
             });
    if (first == nullptr) first = &s;
    last = &s;
  }

  // Sweep shape: growth of I across the sweep must track growth of log n.
  if (first != nullptr && last != first && first->interference > 0) {
    const double i_growth = static_cast<double>(last->interference) /
                            static_cast<double>(first->interference);
    const double log_growth = std::log2(static_cast<double>(last->n)) /
                              std::log2(static_cast<double>(first->n));
    c.expect(i_growth <= growth_slack * log_growth, "lemma2.10/growth", [&] {
      return "I grew " + format_double(i_growth) + "x from n=" +
             std::to_string(first->n) + " to n=" + std::to_string(last->n) +
             ", allowed " + format_double(growth_slack * log_growth) + "x";
    });
  }
  return report;
}

CheckReport check_router_bounds(const route::AdversaryTrace& trace,
                                const core::BalancingParams& params,
                                const sim::ScenarioResult& result,
                                const RouterBoundsParams& bounds) {
  CheckReport report;
  report.checker = "router_bounds";
  Collector c(report);
  const route::RunMetrics& m = result.metrics;

  // Packet conservation across the run.
  c.expect(m.injected_offered == m.injected_accepted + m.dropped_at_injection,
           "conservation/injection", [&] {
             return "offered " + std::to_string(m.injected_offered) +
                    " != accepted " + std::to_string(m.injected_accepted) +
                    " + injection drops " +
                    std::to_string(m.dropped_at_injection);
           });
  c.expect(m.injected_accepted ==
               m.deliveries + m.dropped_in_transit + m.leftover_packets,
           "conservation/accepted", [&] {
             return "accepted " + std::to_string(m.injected_accepted) +
                    " != delivered " + std::to_string(m.deliveries) +
                    " + transit drops " + std::to_string(m.dropped_in_transit) +
                    " + leftover " + std::to_string(m.leftover_packets);
           });

  // Queue bound: no buffer ever exceeds H.
  c.expect(m.peak_buffer <= params.max_height, "section3/buffer-height", [&] {
    return "peak buffer " + std::to_string(m.peak_buffer) + " > H = " +
           std::to_string(params.max_height);
  });

  // The certified optimum is an upper bound on deliveries.
  c.expect(m.deliveries <= result.opt.deliveries, "section3/opt-upper-bound",
           [&] {
             return "delivered " + std::to_string(m.deliveries) +
                    " > certified OPT " + std::to_string(result.opt.deliveries);
           });

  // Theorem 3.1: with T >= B + 2*(delta-1), only newly injected packets are
  // ever deleted — an in-transit drop is a hard violation in that regime.
  const double t31_threshold =
      static_cast<double>(result.opt.max_buffer) +
      2.0 * (bounds.theorem31_delta - 1.0);
  if (params.threshold >= t31_threshold) {
    c.expect(m.dropped_in_transit == 0, "theorem3.1/no-transit-drops", [&] {
      return std::to_string(m.dropped_in_transit) +
             " in-transit drops with T=" + format_double(params.threshold) +
             " >= B + 2*(delta-1) = " + format_double(t31_threshold);
    });
  } else {
    report.notes.push_back("T below Theorem 3.1 regime; transit-drop check skipped");
  }

  if (bounds.expect_no_collisions) {
    c.expect(m.failed_tx == 0 && m.wasted_energy == 0.0,
             "scenario1/no-collisions", [&] {
               return "MAC-given run reports " + std::to_string(m.failed_tx) +
                      " collisions / wasted energy " +
                      format_double(m.wasted_energy);
             });
  }

  if (bounds.min_throughput_ratio > 0.0 && result.opt.deliveries > 0) {
    const double ratio = result.throughput_ratio();
    c.expect(ratio >= bounds.min_throughput_ratio, "section3/throughput", [&] {
      return "throughput ratio " + format_double(ratio) + " < floor " +
             format_double(bounds.min_throughput_ratio);
    });
  }

  // Energy accounting sanity.
  c.expect(m.delivered_cost <= m.total_energy + 1e-9 * std::max(1.0, m.total_energy),
           "energy/delivered-within-total", [&] {
             return "delivered cost " + format_double(m.delivered_cost) +
                    " exceeds total successful-transmission energy " +
                    format_double(m.total_energy);
           });
  (void)trace;
  return report;
}

}  // namespace thetanet::verify
