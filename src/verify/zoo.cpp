#include "verify/zoo.h"

#include <algorithm>
#include <utility>

#include "core/theta_topology.h"
#include "graph/connectivity.h"
#include "routing/local_route.h"
#include "topology/transmission_graph.h"

namespace thetanet::verify {
namespace {

using graph::NodeId;

std::string edge_str(NodeId u, NodeId v) {
  return "(" + std::to_string(u) + ", " + std::to_string(v) + ")";
}

/// The shared edge-list contract (topology/normalize.h): u < v, strictly
/// increasing lexicographic order (hence duplicate-free), every edge within
/// range and weighted consistently with the deployment.
CheckReport check_structure(const graph::Graph& g, const topo::Deployment& d,
                            const graph::Graph& gstar) {
  CheckReport r;
  r.checker = "structure";
  std::pair<NodeId, NodeId> prev{0, 0};
  for (graph::EdgeId e = 0; e < g.num_edges(); ++e) {
    const graph::Edge ed = g.edge(e);
    ++r.checks;
    if (ed.u >= ed.v) {
      r.add_violation("zoo/edge-orientation",
                      "edge " + std::to_string(e) + " " +
                          edge_str(ed.u, ed.v) + " is not (min, max)");
      break;
    }
    if (e > 0 && std::pair(ed.u, ed.v) <= prev) {
      r.add_violation("zoo/edge-order",
                      "edge " + std::to_string(e) + " " +
                          edge_str(ed.u, ed.v) +
                          " breaks strict lexicographic order");
      break;
    }
    prev = {ed.u, ed.v};
    if (ed.length > d.max_range) {
      r.add_violation("zoo/edge-range",
                      "edge " + edge_str(ed.u, ed.v) + " has length " +
                          format_double(ed.length) + " > D = " +
                          format_double(d.max_range));
      break;
    }
    if (ed.length != d.distance(ed.u, ed.v) ||
        ed.cost != d.cost_of_length(ed.length)) {
      r.add_violation("zoo/edge-weights",
                      "edge " + edge_str(ed.u, ed.v) +
                          " weights disagree with the deployment");
      break;
    }
    if (gstar.find_edge(ed.u, ed.v) == graph::kInvalidEdge) {
      r.add_violation("zoo/not-subgraph",
                      "edge " + edge_str(ed.u, ed.v) + " is not in G*");
      break;
    }
  }
  return r;
}

CheckReport check_connectivity(const graph::Graph& g,
                               const graph::Graph& gstar, bool complete_only,
                               bool gstar_complete, bool unique_distances) {
  CheckReport r;
  r.checker = complete_only ? "connectivity-complete" : "connectivity";
  if (!unique_distances) {
    r.notes.push_back(
        "skipped: duplicate points void the unique-distance assumption");
    return r;
  }
  if (complete_only && !gstar_complete) {
    r.notes.push_back("skipped: claim requires a complete G*");
    return r;
  }
  ++r.checks;
  const std::size_t comps_g = graph::num_components(gstar);
  const std::size_t comps_n = graph::num_components(g);
  if (comps_n > comps_g)
    r.add_violation("zoo/connectivity",
                    "topology has " + std::to_string(comps_n) +
                        " components, G* has " + std::to_string(comps_g));
  return r;
}

CheckReport check_degree(const graph::Graph& g, double bound,
                         bool unique_distances) {
  CheckReport r;
  r.checker = "degree-bound";
  if (!unique_distances) {
    r.notes.push_back(
        "skipped: duplicate points void the unique-distance assumption");
    return r;
  }
  ++r.checks;
  const std::size_t deg = g.max_degree();
  if (static_cast<double>(deg) > bound)
    r.add_violation("zoo/degree",
                    "max degree " + std::to_string(deg) + " exceeds bound " +
                        format_double(bound));
  return r;
}

/// The compass unit-ratio oracle: over a structure where every angle-0 hop
/// provably stays adjacent to the target (G*), compass routing delivers
/// each adjacent pair with walked length == |st| (up to fp rounding of the
/// per-hop sum). This is the checker --plant-routing-bug must trip.
CheckReport check_compass_adjacent(const graph::Graph& g,
                                   const topo::Deployment& d,
                                   const ZooOptions& opt) {
  CheckReport r;
  r.checker = "compass-adjacent-unit";
  route::LocalRouteOptions lr;
  lr.policy = route::LocalPolicy::kCompass;
  lr.plant_wrong_tie_break = opt.plant_routing_bug;
  const std::size_t budget = std::min<std::size_t>(
      g.num_edges(), std::max<std::size_t>(opt.compass_edges, 1));
  for (graph::EdgeId e = 0; e < budget; ++e) {
    const graph::Edge ed = g.edge(e);
    if (ed.length == 0.0) continue;  // coincident pair: ratio undefined
    for (const auto& [s, t] : {std::pair(ed.u, ed.v), std::pair(ed.v, ed.u)}) {
      ++r.checks;
      const route::LocalRouteResult res = route::local_route(g, d, s, t, lr);
      if (!res.delivered) {
        r.add_violation("routing/compass-no-delivery",
                        "compass failed to deliver adjacent pair " +
                            edge_str(s, t) + " (hops walked: " +
                            std::to_string(res.hops) + ")");
        return r;
      }
      const double ratio = res.length / ed.length;
      if (ratio > 1.0 + 1e-9) {
        r.add_violation("routing/compass-ratio",
                        "compass walked ratio " + format_double(ratio) +
                            " on adjacent pair " + edge_str(s, t) +
                            " (exactness oracle: 1)");
        return r;
      }
    }
  }
  return r;
}

}  // namespace

ConformanceReport run_zoo_conformance(const topo::Deployment& d,
                                      const ZooOptions& opt) {
  ConformanceReport rep;
  rep.scenario = "zoo-deployment-n" + std::to_string(d.size());

  if (d.size() < 2) {
    CheckReport trivial;
    trivial.checker = "zoo";
    trivial.checks = 1;
    trivial.notes.push_back("n < 2: every guarantee holds vacuously");
    rep.checks.push_back(std::move(trivial));
    return rep;
  }

  const graph::Graph gstar = topo::build_transmission_graph(d);
  const std::size_t n = d.size();
  const bool gstar_complete = gstar.num_edges() == n * (n - 1) / 2;
  const bool unique_distances = topo::min_max_pairwise_distance(d).first > 0.0;

  const auto wanted = [&](const std::string& name) {
    return opt.only.empty() ||
           std::find(opt.only.begin(), opt.only.end(), name) != opt.only.end();
  };

  std::vector<std::string> audited;
  for (const topo::TopologyBuilder& b : topo::builder_registry()) {
    if (!wanted(b.name)) continue;
    audited.push_back(b.name);
    const graph::Graph g = b.build(d);
    const auto add = [&](CheckReport c) {
      c.checker = b.name + "/" + c.checker;
      rep.checks.push_back(std::move(c));
    };

    add(check_structure(g, d, gstar));
    if (b.guarantees.connected || b.guarantees.connected_complete)
      add(check_connectivity(g, gstar, !b.guarantees.connected,
                             gstar_complete, unique_distances));
    if (b.guarantees.degree_bound > 0.0)
      add(check_degree(g, b.guarantees.degree_bound, unique_distances));
    if (b.guarantees.constant_energy_stretch) {
      if (!unique_distances) {
        CheckReport s;
        s.checker = "energy-stretch";
        s.notes.push_back(
            "skipped: duplicate points void the unique-distance assumption");
        add(std::move(s));
      } else {
        add(check_energy_stretch(g, d, gstar, opt.checks.max_energy_stretch));
      }
    }
    if (b.guarantees.theta_alg) {
      // The paper's N: audit the full Lemma 2.1 battery against a fresh
      // ThetaTopology, and pin the registry build to its graph exactly
      // (phase 2 lives in the topology layer; this equivalence is what
      // keeps the two call sites one implementation).
      const core::ThetaTopology tt(d, opt.checks.theta);
      add(check_theta_invariants(g, d, opt.checks.theta, gstar, &tt,
                                 unique_distances));
      CheckReport eq;
      eq.checker = "registry-equivalence";
      ++eq.checks;
      bool same = g.num_edges() == tt.graph().num_edges();
      if (same)
        for (graph::EdgeId e = 0; e < g.num_edges(); ++e)
          if (g.edge(e).u != tt.graph().edge(e).u ||
              g.edge(e).v != tt.graph().edge(e).v) {
            same = false;
            break;
          }
      if (!same)
        eq.add_violation("zoo/registry-equivalence",
                         "registry theta build differs from ThetaTopology (" +
                             std::to_string(g.num_edges()) + " vs " +
                             std::to_string(tt.graph().num_edges()) +
                             " edges)");
      add(std::move(eq));
    }
    if (b.guarantees.compass_adjacent_unit)
      add(check_compass_adjacent(g, d, opt));
    if (b.name == "theta4") {
      CheckReport t4;
      t4.checker = "routing-ratio-17x";
      if (!gstar_complete || !unique_distances) {
        t4.notes.push_back(
            "skipped: the 17x bound is proven for complete point sets");
      } else {
        ++t4.checks;
        route::LocalRouteOptions lr;
        lr.policy = route::LocalPolicy::kTheta;
        lr.scheme = topo::theta4_scheme();
        const route::RoutingRatioStats st = route::measure_routing_ratio(
            g, d, lr, opt.routing_pairs, opt.routing_seed);
        if (st.delivered < st.pairs)
          t4.add_violation("routing/theta4-delivery",
                           "theta routing delivered " +
                               std::to_string(st.delivered) + "/" +
                               std::to_string(st.pairs) +
                               " pairs on a complete instance");
        else if (st.max_ratio > opt.theta4_routing_ratio_bound)
          t4.add_violation("routing/theta4-ratio",
                           "empirical routing ratio " +
                               format_double(st.max_ratio) + " exceeds " +
                               format_double(opt.theta4_routing_ratio_bound));
        t4.notes.push_back("max ratio " + format_double(st.max_ratio) +
                           " over " + std::to_string(st.delivered) +
                           " delivered pairs");
      }
      add(std::move(t4));
    }
  }

  // Coverage: every requested builder was audited; every registered builder
  // was audited unless explicitly filtered out. A silently skipped
  // competitor is a harness bug, and it fails here, loudly.
  CheckReport cov;
  cov.checker = "zoo/coverage";
  for (const std::string& name : opt.only) {
    ++cov.checks;
    if (std::find(audited.begin(), audited.end(), name) == audited.end())
      cov.add_violation("zoo/unknown-builder",
                        "requested builder '" + name +
                            "' is not in the registry (" +
                            topo::builder_names() + ")");
  }
  if (opt.only.empty()) {
    for (const topo::TopologyBuilder& b : topo::builder_registry()) {
      ++cov.checks;
      if (std::find(audited.begin(), audited.end(), b.name) == audited.end())
        cov.add_violation("zoo/not-audited", "registered builder '" + b.name +
                                                 "' was silently skipped");
    }
  }
  cov.notes.push_back("audited " + std::to_string(audited.size()) +
                      " builders");
  rep.checks.push_back(std::move(cov));
  return rep;
}

ShrinkResult shrink_zoo_deployment(const topo::Deployment& failing,
                                   const ZooOptions& opt,
                                   std::size_t max_evaluations) {
  return shrink_nodes(
      failing,
      [&](const topo::Deployment& d) { return run_zoo_conformance(d, opt); },
      max_evaluations);
}

}  // namespace thetanet::verify
