#include "routing/adversary.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <set>

#include "common/assert.h"
#include "graph/shortest_paths.h"

namespace thetanet::route {

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

std::vector<double> AdversaryTrace::costs_at(Time t) const {
  TN_ASSERT(topology != nullptr);
  std::vector<double> costs(topology->num_edges());
  for (graph::EdgeId e = 0; e < costs.size(); ++e)
    costs[e] = topology->edge(e).cost;
  if (t < steps.size())
    for (const auto& [e, c] : steps[t].cost_overrides) costs[e] = c;
  return costs;
}

AdversaryTrace make_certified_trace(const graph::Graph& topo,
                                    const TraceParams& params, geom::Rng& rng) {
  AdversaryTrace trace;
  trace.topology = &topo;
  const Time total = params.horizon + params.drain;
  trace.steps.resize(total);

  const std::size_t n = topo.num_nodes();
  TN_ASSERT(n >= 2);
  std::vector<std::set<Time>> reserved(topo.num_edges());
  std::uint64_t next_packet_id = 1;

  // Optional endpoint pools (traffic concentration).
  const auto pick_pool = [&](std::size_t k) {
    std::vector<graph::NodeId> pool;
    if (k == 0 || k >= n) {
      pool.resize(n);
      for (graph::NodeId v = 0; v < n; ++v) pool[v] = v;
    } else {
      std::set<graph::NodeId> chosen;
      while (chosen.size() < k)
        chosen.insert(static_cast<graph::NodeId>(rng.uniform_index(n)));
      pool.assign(chosen.begin(), chosen.end());
    }
    return pool;
  };
  const std::vector<graph::NodeId> sources =
      params.source_pool.empty() ? pick_pool(params.num_sources)
                                 : params.source_pool;
  const std::vector<graph::NodeId> dests = params.dest_pool.empty()
                                               ? pick_pool(params.num_destinations)
                                               : params.dest_pool;

  // Cache shortest-path trees per source on demand (costs are the base costs;
  // jittered overrides below stay within a bounded factor of them).
  std::map<graph::NodeId, graph::ShortestPathTree> trees;
  const graph::Weight weight =
      params.route_min_cost ? graph::Weight::kCost : graph::Weight::kHops;
  const auto tree_for = [&](graph::NodeId s) -> const graph::ShortestPathTree& {
    auto it = trees.find(s);
    if (it == trees.end())
      it = trees.emplace(s, graph::dijkstra(topo, s, weight)).first;
    return it->second;
  };

  for (Time t = 0; t < params.horizon; ++t) {
    // Expected injections_per_step attempts: fixed part + Bernoulli remainder.
    const double rate = params.injections_per_step;
    std::size_t attempts = static_cast<std::size_t>(rate);
    if (rng.bernoulli(rate - static_cast<double>(attempts))) ++attempts;

    for (std::size_t a = 0; a < attempts; ++a) {
      const graph::NodeId s = sources[rng.uniform_index(sources.size())];
      const graph::NodeId d = dests[rng.uniform_index(dests.size())];
      if (s == d) continue;
      const auto& tree = tree_for(s);
      const std::vector<graph::NodeId> path = tree.path_to(d);
      if (path.empty()) continue;  // unreachable; attempt discarded

      // Greedy conflict-free booking along the path.
      Schedule sched;
      sched.t0 = t;
      Time cur = t;
      bool ok = true;
      for (std::size_t i = 0; i + 1 < path.size(); ++i) {
        const graph::EdgeId e = topo.find_edge(path[i], path[i + 1]);
        TN_DCHECK(e != graph::kInvalidEdge);
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
      inj.packet = Packet{next_packet_id++, s, d, t, 0.0, 0};
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
  detail::activate_booked_slots(trace, reserved);

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

  trace.opt = replay_schedules(trace);
  return trace;
}

void detail::activate_booked_slots(
    AdversaryTrace& trace, const std::vector<std::set<Time>>& reserved) {
  for (graph::EdgeId e = 0; e < reserved.size(); ++e)
    for (const Time slot : reserved[e]) trace.steps.edit(slot).active.push_back(e);
  trace.steps.for_each_stored([](StepSpec& step) {
    std::sort(step.active.begin(), step.active.end());
    step.active.erase(std::unique(step.active.begin(), step.active.end()),
                      step.active.end());
  });
}

OptStats replay_schedules(const AdversaryTrace& trace) {
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
      for (std::size_t i = 0; i < s.hops.size(); ++i) {
        const auto [e, ti] = s.hops[i];
        TN_ASSERT_MSG(ti > prev || (i == 0 && ti > s.t0),
                      "schedule times must be strictly increasing");
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
      TN_ASSERT_MSG(at == inj.packet.dst, "schedule must end at the destination");
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

}  // namespace thetanet::route
