#include "routing/anycast.h"

#include <algorithm>
#include <map>
#include <queue>
#include <set>

#include "common/assert.h"
#include "graph/shortest_paths.h"

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

namespace {

/// Multi-source Dijkstra from all members of a group (cost weights): the
/// resulting tree gives, for every node, a min-cost path *to* its nearest
/// member (the graph is undirected, so the reversed tree path serves).
graph::ShortestPathTree group_tree(const graph::Graph& topo,
                                   const std::vector<graph::NodeId>& members,
                                   graph::Weight weight) {
  const std::size_t n = topo.num_nodes();
  graph::ShortestPathTree t;
  t.dist.assign(n, graph::kUnreachable);
  t.parent.assign(n, graph::kInvalidNode);
  t.via_edge.assign(n, graph::kInvalidEdge);
  using Entry = std::pair<double, graph::NodeId>;
  std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap;
  for (const graph::NodeId m : members) {
    t.dist[m] = 0.0;
    heap.emplace(0.0, m);
  }
  std::vector<bool> done(n, false);
  while (!heap.empty()) {
    const auto [dd, u] = heap.top();
    heap.pop();
    if (done[u]) continue;
    done[u] = true;
    for (const graph::Half& h : topo.neighbors(u)) {
      const double w = graph::edge_weight(topo.edge(h.edge), weight);
      if (dd + w < t.dist[h.to]) {
        t.dist[h.to] = dd + w;
        t.parent[h.to] = u;
        t.via_edge[h.to] = h.edge;
        heap.emplace(dd + w, h.to);
      }
    }
  }
  return t;
}

}  // namespace

AdversaryTrace make_anycast_trace(const graph::Graph& topo,
                                  const AnycastGroups& groups,
                                  const TraceParams& params, geom::Rng& rng) {
  AdversaryTrace trace;
  trace.topology = &topo;
  const Time total = params.horizon + params.drain;
  trace.steps.resize(total);
  const std::size_t n = topo.num_nodes();
  TN_ASSERT(n >= 2 && groups.size() >= 1);

  std::vector<graph::NodeId> sources = params.source_pool;
  if (sources.empty()) {
    if (params.num_sources == 0 || params.num_sources >= n) {
      sources.resize(n);
      for (graph::NodeId v = 0; v < n; ++v) sources[v] = v;
    } else {
      std::set<graph::NodeId> chosen;
      while (chosen.size() < params.num_sources)
        chosen.insert(static_cast<graph::NodeId>(rng.uniform_index(n)));
      sources.assign(chosen.begin(), chosen.end());
    }
  }

  const graph::Weight weight =
      params.route_min_cost ? graph::Weight::kCost : graph::Weight::kHops;
  std::vector<graph::ShortestPathTree> trees;
  trees.reserve(groups.size());
  for (DestId g = 0; g < groups.size(); ++g)
    trees.push_back(group_tree(topo, groups.members(g), weight));

  std::vector<std::set<Time>> reserved(topo.num_edges());
  std::uint64_t next_packet_id = 1;
  for (Time t = 0; t < params.horizon; ++t) {
    std::size_t attempts = static_cast<std::size_t>(params.injections_per_step);
    if (rng.bernoulli(params.injections_per_step -
                      static_cast<double>(attempts)))
      ++attempts;
    for (std::size_t a = 0; a < attempts; ++a) {
      const graph::NodeId s = sources[rng.uniform_index(sources.size())];
      const DestId g = static_cast<DestId>(rng.uniform_index(groups.size()));
      if (groups.contains(g, s)) continue;  // already satisfied
      const auto& tree = trees[g];
      if (tree.dist[s] == graph::kUnreachable) continue;

      // Walk towards the nearest member, booking conflict-free slots.
      Schedule sched;
      sched.t0 = t;
      Time cur = t;
      bool ok = true;
      for (graph::NodeId at = s; tree.parent[at] != graph::kInvalidNode;
           at = tree.parent[at]) {
        const graph::EdgeId e = tree.via_edge[at];
        Time slot = cur + 1;
        while (slot < total && reserved[e].count(slot) != 0) ++slot;
        if (slot >= total || slot > cur + 1 + params.max_schedule_slack) {
          ok = false;
          break;
        }
        sched.hops.emplace_back(e, slot);
        cur = slot;
      }
      if (!ok || sched.hops.empty()) continue;
      for (const auto& [e, slot] : sched.hops) reserved[e].insert(slot);
      Injection inj;
      inj.packet = Packet{next_packet_id++, s, g, t, 0.0, 0};
      inj.schedule = std::move(sched);
      trace.steps.edit(t).injections.push_back(std::move(inj));
    }
  }
  detail::activate_booked_slots(trace, reserved);
  trace.opt = replay_anycast_schedules(trace, groups);
  return trace;
}

OptStats replay_anycast_schedules(const AdversaryTrace& trace,
                                  const AnycastGroups& groups) {
  TN_ASSERT(trace.topology != nullptr);
  const graph::Graph& topo = *trace.topology;
  OptStats opt;
  std::set<std::pair<graph::EdgeId, Time>> used;
  std::size_t total_hops = 0;
  trace.steps.for_each_stored([&](const StepSpec& step) {
    for (const Injection& inj : step.injections) {
      const Schedule& s = inj.schedule;
      TN_ASSERT(!s.hops.empty());
      graph::NodeId at = inj.packet.src;
      Time prev = s.t0;
      double cost = 0.0;
      for (const auto& [e, ti] : s.hops) {
        TN_ASSERT_MSG(ti > prev, "schedule times must increase");
        TN_ASSERT_MSG(used.insert({e, ti}).second, "edge slot reused");
        const graph::Edge& edge = topo.edge(e);
        TN_ASSERT(edge.u == at || edge.v == at);
        at = edge.other(at);
        cost += edge.cost;
        prev = ti;
      }
      TN_ASSERT_MSG(groups.contains(inj.packet.dst, at),
                    "anycast schedule must end at a group member");
      ++opt.deliveries;
      opt.total_cost += cost;
      total_hops += s.hops.size();
      opt.makespan = std::max(opt.makespan, prev);
    }
  });
  if (opt.deliveries > 0) {
    opt.avg_cost = opt.total_cost / static_cast<double>(opt.deliveries);
    opt.avg_path_length =
        static_cast<double>(total_hops) / static_cast<double>(opt.deliveries);
  }
  // Buffer accounting mirrors the unicast replay.
  std::map<std::pair<graph::NodeId, DestId>, std::vector<std::pair<Time, int>>>
      events;
  trace.steps.for_each_stored([&](const StepSpec& step) {
    for (const Injection& inj : step.injections) {
      graph::NodeId at = inj.packet.src;
      Time prev = inj.schedule.t0;
      for (const auto& [e, ti] : inj.schedule.hops) {
        events[{at, inj.packet.dst}].push_back({prev + 1, +1});
        events[{at, inj.packet.dst}].push_back({ti + 1, -1});
        at = topo.edge(e).other(at);
        prev = ti;
      }
    }
  });
  for (auto& [key, evs] : events) {
    std::sort(evs.begin(), evs.end());
    long h = 0;
    for (const auto& [t, delta] : evs) {
      h += delta;
      opt.max_buffer =
          std::max(opt.max_buffer, static_cast<std::size_t>(std::max(0L, h)));
    }
  }
  return opt;
}

}  // namespace thetanet::route
