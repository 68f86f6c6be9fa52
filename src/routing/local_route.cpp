#include "routing/local_route.h"

#include <algorithm>

#include "common/parallel.h"
#include "geom/angles.h"
#include "geom/rng.h"

namespace thetanet::route {
namespace {

using graph::NodeId;

NodeId compass_step(const graph::Graph& g, const topo::Deployment& d,
                    NodeId cur, NodeId target, bool wrong_tie_break) {
  const geom::Vec2 pc = d.positions[cur];
  const double to_target = geom::bearing(pc, d.positions[target]);
  NodeId best = graph::kInvalidNode;
  double best_angle = 0.0;
  double best_d2 = 0.0;
  // The target is NOT short-circuited: it competes as an ordinary angle-0
  // candidate under the same strict key, so the step is a pure function of
  // the candidate set (not of adjacency order) and the planted tie-break
  // mutation expresses even when the target is adjacent.
  for (const graph::Half& h : g.neighbors(cur)) {
    const NodeId v = h.to;
    const double d2 = geom::dist_sq(pc, d.positions[v]);
    if (d2 == 0.0) {
      if (v == target) return v;  // coincident target: free delivery
      continue;                   // coincident non-target: bearing undefined
    }
    // For v == target this is exactly 0 (identical bearings).
    const double angle =
        geom::angle_between(to_target, geom::bearing(pc, d.positions[v]));
    bool wins;
    if (best == graph::kInvalidNode) {
      wins = true;
    } else if (angle != best_angle) {
      wins = angle < best_angle;
    } else if (d2 != best_d2) {
      // The planted mutation: prefer the farther neighbor on an exact
      // angle tie. On collinear chains this overshoots the target and
      // ping-pongs; the correct nearer-first rule walks the segment.
      wins = wrong_tie_break ? d2 > best_d2 : d2 < best_d2;
    } else {
      wins = v < best;
    }
    if (wins) {
      best = v;
      best_angle = angle;
      best_d2 = d2;
    }
  }
  return best;
}

NodeId theta_step(const graph::Graph& g, const topo::Deployment& d, NodeId cur,
                  NodeId target, const topo::ConeScheme& scheme,
                  bool wrong_tie_break) {
  const geom::Vec2 pc = d.positions[cur];
  const geom::Vec2 pt = d.positions[target];
  const int cone = scheme.cone_of(pc, pt);
  NodeId best = graph::kInvalidNode;
  double best_proj = 0.0;
  double best_d2 = 0.0;
  for (const graph::Half& h : g.neighbors(cur)) {
    const NodeId v = h.to;
    if (v == target) return v;
    const geom::Vec2 pv = d.positions[v];
    const double d2 = geom::dist_sq(pc, pv);
    if (d2 == 0.0) continue;
    if (scheme.cone_of(pc, pv) != cone) continue;
    const double proj = scheme.projection(cone, pc, pv);
    const bool wins =
        best == graph::kInvalidNode || proj < best_proj ||
        (proj == best_proj && (d2 < best_d2 || (d2 == best_d2 && v < best)));
    if (wins) {
      best = v;
      best_proj = proj;
      best_d2 = d2;
    }
  }
  // Empty cone (range restriction can starve it): compass fallback keeps
  // the walk moving without extra state.
  if (best == graph::kInvalidNode)
    return compass_step(g, d, cur, target, wrong_tie_break);
  return best;
}

}  // namespace

NodeId local_route_step(const graph::Graph& g, const topo::Deployment& d,
                        NodeId cur, NodeId target,
                        const LocalRouteOptions& opt) {
  TN_ASSERT(cur != target);
  switch (opt.policy) {
    case LocalPolicy::kCompass:
      return compass_step(g, d, cur, target, opt.plant_wrong_tie_break);
    case LocalPolicy::kTheta:
      return theta_step(g, d, cur, target, opt.scheme,
                        opt.plant_wrong_tie_break);
  }
  TN_ASSERT_MSG(false, "unreachable");
  return graph::kInvalidNode;
}

LocalRouteResult local_route(const graph::Graph& g, const topo::Deployment& d,
                             NodeId s, NodeId t,
                             const LocalRouteOptions& opt) {
  LocalRouteResult r;
  if (s == t) {
    r.delivered = true;
    return r;
  }
  const std::size_t budget =
      opt.max_hops != 0 ? opt.max_hops : 4 * d.size() + 16;
  NodeId cur = s;
  while (r.hops < budget) {
    const NodeId next = local_route_step(g, d, cur, t, opt);
    if (next == graph::kInvalidNode) return r;  // dead end
    r.length += d.distance(cur, next);
    ++r.hops;
    cur = next;
    if (cur == t) {
      r.delivered = true;
      return r;
    }
  }
  return r;  // budget exhausted: a cycle (only broken policies cycle)
}

RoutingRatioStats measure_routing_ratio(const graph::Graph& g,
                                        const topo::Deployment& d,
                                        const LocalRouteOptions& opt,
                                        std::size_t max_pairs,
                                        std::uint64_t seed) {
  RoutingRatioStats stats;
  const std::size_t n = d.size();
  if (n < 2 || max_pairs == 0) return stats;
  // Deterministic pair selection: exhaustive when the ordered-pair count
  // fits the budget, seeded sampling otherwise. The list is built serially;
  // routing is the expensive part and runs parallel below.
  std::vector<std::pair<NodeId, NodeId>> pairs;
  if (n * (n - 1) <= max_pairs) {
    pairs.reserve(n * (n - 1));
    for (NodeId s = 0; s < n; ++s)
      for (NodeId t = 0; t < n; ++t)
        if (s != t) pairs.emplace_back(s, t);
  } else {
    geom::Rng rng(seed);
    pairs.reserve(max_pairs);
    for (std::size_t i = 0; i < max_pairs; ++i) {
      const auto s = static_cast<NodeId>(rng.uniform_index(n));
      auto t = static_cast<NodeId>(rng.uniform_index(n - 1));
      if (t >= s) ++t;
      pairs.emplace_back(s, t);
    }
  }
  struct Acc {
    std::size_t routed = 0;
    std::size_t delivered = 0;
    double max_ratio = 0.0;
    double sum_ratio = 0.0;
  };
  const Acc acc = tn::parallel_reduce(
      pairs.size(), 64, Acc{},
      [&](std::size_t begin, std::size_t end) {
        Acc a;
        for (std::size_t i = begin; i < end; ++i) {
          const auto [s, t] = pairs[i];
          const double direct = d.distance(s, t);
          if (direct == 0.0) continue;
          ++a.routed;
          const LocalRouteResult r = local_route(g, d, s, t, opt);
          if (!r.delivered) continue;
          ++a.delivered;
          const double ratio = r.length / direct;
          a.max_ratio = std::max(a.max_ratio, ratio);
          a.sum_ratio += ratio;
        }
        return a;
      },
      [](Acc a, Acc b) {
        a.routed += b.routed;
        a.delivered += b.delivered;
        a.max_ratio = std::max(a.max_ratio, b.max_ratio);
        a.sum_ratio += b.sum_ratio;
        return a;
      });
  stats.pairs = acc.routed;
  stats.delivered = acc.delivered;
  stats.max_ratio = acc.max_ratio;
  stats.mean_ratio =
      acc.delivered == 0 ? 0.0 : acc.sum_ratio / static_cast<double>(acc.delivered);
  return stats;
}

}  // namespace thetanet::route
