#include "routing/adversary.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/assert.h"
#include "graph/shortest_paths.h"
#include "routing/anycast.h"

namespace thetanet::route {

AnycastGroups::AnycastGroups(std::vector<std::vector<graph::NodeId>> members)
    : members_(std::move(members)) {
  for (auto& g : members_) {
    std::sort(g.begin(), g.end());
    g.erase(std::unique(g.begin(), g.end()), g.end());
    TN_ASSERT_MSG(!g.empty(), "anycast group must have at least one member");
  }
}

bool AnycastGroups::contains(DestId g, graph::NodeId v) const {
  TN_ASSERT(g < members_.size());
  return std::binary_search(members_[g].begin(), members_[g].end(), v);
}

void StepTable::resize(std::size_t size) {
  TN_ASSERT_MSG(size >= index_.size(), "a step table never shrinks");
  index_.resize(size, 0);
}

StepSpec& StepTable::edit(Time t) {
  TN_ASSERT(t < index_.size());
  std::uint32_t& slot = index_[t];
  if (slot == 0) {
    slot = static_cast<std::uint32_t>(stored_.size());
    stored_.emplace_back();
    times_.push_back(t);
  }
  return stored_[slot];
}

std::vector<std::uint32_t> StepTable::slots_by_time() const {
  std::vector<std::uint32_t> slots(stored());
  std::iota(slots.begin(), slots.end(), 1U);
  std::sort(slots.begin(), slots.end(), [&](std::uint32_t a, std::uint32_t b) {
    return times_[a] < times_[b];
  });
  return slots;
}

namespace {

/// An endpoint pool: `pinned` if given, else all n nodes when k is 0 or at
/// least n, else k distinct random nodes (the only case that draws from
/// `rng`).
std::vector<graph::NodeId> draw_pool(const std::vector<graph::NodeId>& pinned,
                                     std::size_t k, std::size_t n,
                                     geom::Rng& rng) {
  if (!pinned.empty()) return pinned;
  std::vector<graph::NodeId> pool;
  if (k == 0 || k >= n) {
    pool.resize(n);
    std::iota(pool.begin(), pool.end(), graph::NodeId{0});
  } else {
    std::set<graph::NodeId> chosen;
    while (chosen.size() < k)
      chosen.insert(static_cast<graph::NodeId>(rng.uniform_index(n)));
    pool.assign(chosen.begin(), chosen.end());
  }
  return pool;
}

/// The certified generator behind both trace kinds. Per step it makes the
/// expected injections_per_step attempts; each draws a source from
/// `sources`, then `target(s, path)` draws the packet's destination, fills
/// `path` with the edges to its target and returns the destination id (or
/// graph::kInvalidNode to discard the attempt). The path is booked greedily
/// onto the earliest free slot of each edge within the slack; an attempt
/// that cannot be booked is never injected. OptStats are left to the caller,
/// whose replay knows when a schedule has arrived.
template <class Target>
AdversaryTrace certify(const graph::Graph& topo, const TraceParams& params,
                       const std::vector<graph::NodeId>& sources,
                       geom::Rng& rng, Target&& target) {
  AdversaryTrace trace;
  trace.topology = &topo;
  const Time total = params.horizon + params.drain;
  trace.steps.resize(total);

  // reserved[e]: the steps at which some schedule crosses edge e.
  std::vector<std::set<Time>> reserved(topo.num_edges());
  std::vector<graph::EdgeId> path;
  std::uint64_t next_packet_id = 1;
  for (Time t = 0; t < params.horizon; ++t) {
    // Expected injections_per_step attempts: fixed part + Bernoulli remainder.
    const double rate = params.injections_per_step;
    std::size_t attempts = static_cast<std::size_t>(rate);
    if (rng.bernoulli(rate - static_cast<double>(attempts))) ++attempts;

    for (std::size_t a = 0; a < attempts; ++a) {
      const graph::NodeId s = sources[rng.uniform_index(sources.size())];
      path.clear();
      const DestId dst = target(s, path);
      if (dst == graph::kInvalidNode) continue;
      TN_DCHECK(!path.empty());

      // Greedy conflict-free booking along the path.
      Schedule sched;
      sched.t0 = t;
      Time cur = t;
      bool ok = true;
      for (const graph::EdgeId e : path) {
        Time slot = cur + 1;
        while (slot < total && reserved[e].count(slot) != 0) ++slot;
        if (slot >= total || slot > cur + 1 + params.max_schedule_slack) {
          ok = false;
          break;
        }
        sched.hops.emplace_back(e, slot);
        cur = slot;
      }
      if (!ok) continue;  // could not be booked: the adversary never injects it

      for (const auto& [e, slot] : sched.hops) reserved[e].insert(slot);
      Injection inj;
      inj.packet = Packet{next_packet_id++, s, dst, t, 0.0, 0};
      inj.schedule = std::move(sched);
      trace.steps.edit(t).injections.push_back(std::move(inj));
    }
  }

  // Active edge sets: optional noise, plus exactly the reserved slots.
  if (params.extra_active_fraction > 0.0 && topo.num_edges() > 0) {
    const auto extras = static_cast<std::size_t>(
        params.extra_active_fraction * static_cast<double>(topo.num_edges()));
    if (extras > 0)
      for (Time t = 0; t < total; ++t) {
        std::vector<graph::EdgeId>& active = trace.steps.edit(t).active;
        for (std::size_t i = 0; i < extras; ++i)
          active.push_back(
              static_cast<graph::EdgeId>(rng.uniform_index(topo.num_edges())));
      }
  }
  for (graph::EdgeId e = 0; e < reserved.size(); ++e)
    for (const Time slot : reserved[e]) trace.steps.edit(slot).active.push_back(e);
  trace.steps.for_each_stored([](StepSpec& step) {
    std::sort(step.active.begin(), step.active.end());
    step.active.erase(std::unique(step.active.begin(), step.active.end()),
                      step.active.end());
  });

  // Per-step cost jitter (the adversary's prerogative to change edge costs).
  if (params.cost_jitter_pct > 0) {
    const double j = static_cast<double>(params.cost_jitter_pct) / 100.0;
    trace.steps.for_each_stored([&](StepSpec& step) {
      step.cost_overrides.reserve(step.active.size());
      for (const graph::EdgeId e : step.active)
        step.cost_overrides.emplace_back(
            e, topo.edge(e).cost * (1.0 + rng.uniform(-j, j)));
    });
  }
  return trace;
}

/// Replays every schedule of `trace` and recomputes its OptStats, auditing
/// that no two schedules share an edge at a step, that times increase and
/// that each path is connected. `arrived(at, dst)` is the end check.
template <class Arrived>
OptStats replay(const AdversaryTrace& trace, Arrived&& arrived) {
  TN_ASSERT(trace.topology != nullptr);
  const graph::Graph& topo = *trace.topology;
  OptStats opt;

  // Audit: no edge is used by two schedules at the same time.
  std::set<std::pair<graph::EdgeId, Time>> used;
  // Buffer-height events per (node, destination): +1 when a packet starts
  // occupying Q_{v,d} at the start of a step, -1 after it leaves.
  std::map<std::pair<graph::NodeId, DestId>, std::vector<std::pair<Time, int>>>
      events;

  // Per-step cost tables are materialized lazily (only steps with overrides
  // differ from base costs).
  const auto cost_of = [&](graph::EdgeId e, Time t) {
    if (t < trace.steps.size())
      for (const auto& [oe, c] : trace.steps[t].cost_overrides)
        if (oe == e) return c;
    return topo.edge(e).cost;
  };

  std::size_t total_hops = 0;
  trace.steps.for_each_stored([&](const StepSpec& step) {
    for (const Injection& inj : step.injections) {
      const Schedule& s = inj.schedule;
      TN_ASSERT_MSG(!s.hops.empty(), "certified schedule must reach its destination");
      graph::NodeId at = inj.packet.src;
      Time prev = s.t0;
      double cost = 0.0;
      for (const auto& [e, ti] : s.hops) {
        TN_ASSERT_MSG(ti > prev, "schedule times must be strictly increasing");
        TN_ASSERT_MSG(used.insert({e, ti}).second,
                      "two schedules use the same edge at the same time");
        const graph::Edge& edge = topo.edge(e);
        TN_ASSERT_MSG(edge.u == at || edge.v == at,
                      "schedule path is not connected");
        const graph::NodeId next = edge.other(at);
        // Occupies Q_{at, dst} from the step after arrival (or injection)
        // through the step it departs.
        events[{at, inj.packet.dst}].push_back({prev + 1, +1});
        events[{at, inj.packet.dst}].push_back({ti + 1, -1});
        cost += cost_of(e, ti);
        at = next;
        prev = ti;
      }
      TN_ASSERT_MSG(arrived(at, inj.packet.dst),
                    "schedule must end at the destination");
      ++opt.deliveries;
      opt.total_cost += cost;
      total_hops += s.hops.size();
      opt.makespan = std::max(opt.makespan, prev);
    }
  });

  for (auto& [key, evs] : events) {
    std::sort(evs.begin(), evs.end());
    long h = 0;
    for (const auto& [t, delta] : evs) {
      h += delta;
      opt.max_buffer = std::max(opt.max_buffer, static_cast<std::size_t>(
                                                    std::max(0L, h)));
    }
  }
  if (opt.deliveries > 0) {
    opt.avg_cost = opt.total_cost / static_cast<double>(opt.deliveries);
    opt.avg_path_length =
        static_cast<double>(total_hops) / static_cast<double>(opt.deliveries);
  }
  return opt;
}

graph::Weight route_weight(const TraceParams& params) {
  return params.route_min_cost ? graph::Weight::kCost : graph::Weight::kHops;
}

}  // namespace

AdversaryTrace make_certified_trace(const graph::Graph& topo,
                                    const TraceParams& params, geom::Rng& rng) {
  const std::size_t n = topo.num_nodes();
  TN_ASSERT(n >= 2);
  const std::vector<graph::NodeId> sources =
      draw_pool(params.source_pool, params.num_sources, n, rng);
  const std::vector<graph::NodeId> dests =
      draw_pool(params.dest_pool, params.num_destinations, n, rng);

  // Shortest-path trees per source, on demand (costs are the base costs;
  // jittered overrides stay within a bounded factor of them).
  std::map<graph::NodeId, graph::ShortestPathTree> trees;
  AdversaryTrace trace = certify(
      topo, params, sources, rng,
      [&](graph::NodeId s, std::vector<graph::EdgeId>& path) -> DestId {
        const graph::NodeId d = dests[rng.uniform_index(dests.size())];
        if (s == d) return graph::kInvalidNode;
        auto it = trees.find(s);
        if (it == trees.end())
          it = trees.emplace(s, graph::dijkstra(topo, s, route_weight(params)))
                   .first;
        const std::vector<graph::NodeId> nodes = it->second.path_to(d);
        for (std::size_t i = 0; i + 1 < nodes.size(); ++i)
          path.push_back(topo.find_edge(nodes[i], nodes[i + 1]));
        return nodes.empty() ? graph::kInvalidNode : d;  // empty: unreachable
      });
  trace.opt = replay_schedules(trace);
  return trace;
}

AdversaryTrace make_anycast_trace(const graph::Graph& topo,
                                  const AnycastGroups& groups,
                                  const TraceParams& params, geom::Rng& rng) {
  const std::size_t n = topo.num_nodes();
  TN_ASSERT(n >= 2 && groups.size() >= 1);
  const std::vector<graph::NodeId> sources =
      draw_pool(params.source_pool, params.num_sources, n, rng);

  // One multi-source tree per group: it gives every node a min-weight path
  // to its nearest member (the graph is undirected).
  std::vector<graph::ShortestPathTree> trees;
  trees.reserve(groups.size());
  for (DestId g = 0; g < groups.size(); ++g)
    trees.push_back(
        graph::dijkstra(topo, groups.members(g), route_weight(params)));

  AdversaryTrace trace = certify(
      topo, params, sources, rng,
      [&](graph::NodeId s, std::vector<graph::EdgeId>& path) -> DestId {
        const auto g = static_cast<DestId>(rng.uniform_index(groups.size()));
        const graph::ShortestPathTree& tree = trees[g];
        if (groups.contains(g, s) || tree.dist[s] == graph::kUnreachable)
          return graph::kInvalidNode;  // already satisfied, or unreachable
        for (graph::NodeId at = s; tree.parent[at] != graph::kInvalidNode;
             at = tree.parent[at])
          path.push_back(tree.via_edge[at]);
        return g;
      });
  trace.opt = replay_anycast_schedules(trace, groups);
  return trace;
}

OptStats replay_schedules(const AdversaryTrace& trace) {
  return replay(trace, [](graph::NodeId at, DestId dst) { return at == dst; });
}

OptStats replay_anycast_schedules(const AdversaryTrace& trace,
                                  const AnycastGroups& groups) {
  return replay(trace, [&](graph::NodeId at, DestId g) {
    return groups.contains(g, at);
  });
}

}  // namespace thetanet::route
