#include "routing/adversary.h"

#include <algorithm>
#include <limits>
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
  TN_ASSERT_MSG(size >= size_, "a step table never shrinks");
  size_ = size;
}

void StepTable::reserve(std::size_t stored) { stored_.reserve(stored + 1); }

StepSpec& StepTable::edit(Time t) {
  TN_ASSERT(t < size_);
  const std::size_t w = t / 64;
  const std::uint64_t bit = std::uint64_t{1} << (t % 64);
  if (w >= bits_.size()) {
    // Past the last stored word: the new words hold nothing before t.
    bits_.resize(w + 1, 0);
    rank_.resize(w + 1, static_cast<std::uint32_t>(stored_.size()));
  }
  const std::size_t slot =
      rank_[w] + static_cast<std::size_t>(std::popcount(bits_[w] & (bit - 1)));
  if ((bits_[w] & bit) != 0) return stored_[slot];
  TN_ASSERT(stored_.size() < std::numeric_limits<std::uint32_t>::max());
  bits_[w] |= bit;
  if (slot == stored_.size()) return stored_.emplace_back();
  // A step before the last stored one: shift the later steps up one slot.
  for (std::size_t later = w + 1; later < rank_.size(); ++later) ++rank_[later];
  return *stored_.emplace(stored_.begin() + static_cast<std::ptrdiff_t>(slot));
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
///
/// The steps are written in one ascending pass once every injection is
/// booked, so the table only ever appends.
template <class Target>
AdversaryTrace certify(const graph::Graph& topo, const TraceParams& params,
                       const std::vector<graph::NodeId>& sources,
                       geom::Rng& rng, Target&& target) {
  AdversaryTrace trace;
  trace.topology = &topo;
  const Time total = params.horizon + params.drain;
  trace.steps.resize(total);

  // reserved[e]: the steps at which some schedule crosses edge e, sorted.
  std::vector<std::vector<Time>> reserved(topo.num_edges());
  std::vector<Injection> injections;  // booked, in increasing t0
  std::size_t num_hops = 0;
  std::vector<graph::EdgeId> path;
  std::uint64_t next_packet_id = 1;
  // Expected injections_per_step attempts per step: the fixed part, plus one
  // with the remainder's probability (rng.bernoulli(remainder) through its
  // cut). The per-step draw goes through a local copy of `rng` that stays in
  // registers over the steps without an attempt; an attempt body draws from
  // `rng` itself (so does `target`), so the copy is written back before it
  // and reloaded after.
  const double rate = params.injections_per_step;
  const std::size_t fixed = static_cast<std::size_t>(rate);
  const std::uint64_t remainder_cut =
      geom::Rng::bernoulli_cut(rate - static_cast<double>(fixed));
  geom::Rng step_rng = rng;
  for (Time t = 0; t < params.horizon; ++t) {
    const std::size_t attempts =
        fixed + (step_rng.bernoulli_below(remainder_cut) ? 1 : 0);
    if (attempts == 0) continue;
    rng = step_rng;
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
        const std::vector<Time>& booked = reserved[e];
        Time slot = cur + 1;
        for (auto it = std::lower_bound(booked.begin(), booked.end(), slot);
             it != booked.end() && *it == slot; ++it)
          ++slot;
        if (slot >= total || slot > cur + 1 + params.max_schedule_slack) {
          ok = false;
          break;
        }
        sched.hops.emplace_back(e, slot);
        cur = slot;
      }
      if (!ok) continue;  // could not be booked: the adversary never injects it

      for (const auto& [e, slot] : sched.hops) {
        std::vector<Time>& booked = reserved[e];
        booked.insert(std::lower_bound(booked.begin(), booked.end(), slot),
                      slot);
      }
      num_hops += sched.hops.size();
      Injection& inj = injections.emplace_back();
      inj.packet = Packet{next_packet_id++, s, dst, t, 0.0, 0};
      inj.schedule = std::move(sched);
    }
    step_rng = rng;
  }
  rng = step_rng;
  reserved = {};  // freed before the sorted pairs below are built

  // Every booked (slot, edge), in increasing slot, then edge.
  std::vector<std::pair<Time, graph::EdgeId>> booked;
  booked.reserve(num_hops);
  for (const Injection& inj : injections)
    for (const auto& [e, slot] : inj.schedule.hops) booked.emplace_back(slot, e);
  std::sort(booked.begin(), booked.end());

  // Optional noise: `extras` random edges on every step.
  std::size_t extras = 0;
  if (params.extra_active_fraction > 0.0 && topo.num_edges() > 0)
    extras = static_cast<std::size_t>(params.extra_active_fraction *
                                      static_cast<double>(topo.num_edges()));

  // Calls visit(t, injections [i, i_end), booked [b, b_end)) for every step
  // that carries something, in increasing t: every step when there is
  // noise, else the steps with an injection or a booked edge.
  const auto for_each_step = [&](auto&& visit) {
    std::size_t i = 0, b = 0;
    for (Time t = 0;; ++t) {
      if (extras == 0) {
        t = total;
        if (i < injections.size()) t = injections[i].schedule.t0;
        if (b < booked.size()) t = std::min(t, booked[b].first);
      }
      if (t >= total) break;
      std::size_t i_end = i, b_end = b;
      while (i_end < injections.size() && injections[i_end].schedule.t0 == t)
        ++i_end;
      while (b_end < booked.size() && booked[b_end].first == t) ++b_end;
      visit(t, i, i_end, b, b_end);
      i = i_end;
      b = b_end;
    }
  };

  std::size_t stored = 0;
  for_each_step([&](Time, std::size_t, std::size_t, std::size_t,
                    std::size_t) { ++stored; });
  trace.steps.reserve(stored);
  // Active edge sets: the noise, plus exactly the booked slots.
  for_each_step([&](Time t, std::size_t i, std::size_t i_end, std::size_t b,
                    std::size_t b_end) {
    StepSpec& step = trace.steps.edit(t);
    std::vector<graph::EdgeId>& active = step.active;
    active.reserve(extras + (b_end - b));
    for (std::size_t k = 0; k < extras; ++k)
      active.push_back(
          static_cast<graph::EdgeId>(rng.uniform_index(topo.num_edges())));
    for (; b < b_end; ++b) active.push_back(booked[b].second);
    if (extras > 0) {
      std::sort(active.begin(), active.end());
      active.erase(std::unique(active.begin(), active.end()), active.end());
    }
    step.injections.reserve(i_end - i);
    for (; i < i_end; ++i) step.injections.push_back(std::move(injections[i]));
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

  std::size_t total_hops = 0;
  trace.steps.for_each_stored([&](const StepSpec& step) {
    for (const Injection& inj : step.injections)
      total_hops += inj.schedule.hops.size();
  });
  // Audit: every hop's (edge, step); no edge is used by two schedules at
  // the same step.
  std::vector<std::uint64_t> used;
  used.reserve(total_hops);
  // One hop's wait in Q_{v,d} (key v << 32 | d): it occupies the buffer
  // from the step after it arrived (or was injected) through the step it
  // departs, i.e. over [from, to).
  struct Stay {
    std::uint64_t key;
    Time from;
    Time to;
  };
  std::vector<Stay> stays;
  stays.reserve(total_hops);

  // Per-step cost tables are materialized lazily (only steps with overrides
  // differ from base costs).
  const auto cost_of = [&](graph::EdgeId e, Time t) {
    if (t < trace.steps.size())
      for (const auto& [oe, c] : trace.steps[t].cost_overrides)
        if (oe == e) return c;
    return topo.edge(e).cost;
  };

  trace.steps.for_each_stored([&](const StepSpec& step) {
    for (const Injection& inj : step.injections) {
      const Schedule& s = inj.schedule;
      TN_ASSERT_MSG(!s.hops.empty(), "certified schedule must reach its destination");
      graph::NodeId at = inj.packet.src;
      Time prev = s.t0;
      double cost = 0.0;
      for (const auto& [e, ti] : s.hops) {
        TN_ASSERT_MSG(ti > prev, "schedule times must be strictly increasing");
        used.push_back(std::uint64_t{e} << 32 | ti);
        const graph::Edge& edge = topo.edge(e);
        TN_ASSERT_MSG(edge.u == at || edge.v == at,
                      "schedule path is not connected");
        stays.push_back(
            {std::uint64_t{at} << 32 | inj.packet.dst, prev + 1, ti + 1});
        cost += cost_of(e, ti);
        at = edge.other(at);
        prev = ti;
      }
      TN_ASSERT_MSG(arrived(at, inj.packet.dst),
                    "schedule must end at the destination");
      ++opt.deliveries;
      opt.total_cost += cost;
      opt.makespan = std::max(opt.makespan, prev);
    }
  });
  std::sort(used.begin(), used.end());
  TN_ASSERT_MSG(std::adjacent_find(used.begin(), used.end()) == used.end(),
                "two schedules use the same edge at the same time");

  // B: per buffer, the most stays that overlap. Within one key the stays
  // come in increasing `from`; a stay that ends at step t has left before
  // one that starts at t arrives.
  std::sort(stays.begin(), stays.end(), [](const Stay& a, const Stay& b) {
    return a.key != b.key ? a.key < b.key : a.from < b.from;
  });
  std::vector<Time> ends;
  for (std::size_t first = 0; first < stays.size();) {
    std::size_t last = first;
    ends.clear();
    while (last < stays.size() && stays[last].key == stays[first].key)
      ends.push_back(stays[last++].to);
    std::sort(ends.begin(), ends.end());
    std::size_t left = 0;
    for (std::size_t i = first; i < last; ++i) {
      while (ends[left] <= stays[i].from) ++left;
      opt.max_buffer = std::max(opt.max_buffer, i - first + 1 - left);
    }
    first = last;
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
  // jittered overrides stay within a bounded factor of them). A tree keeps
  // only the edge that enters each node, enough to walk back from any
  // destination.
  std::map<graph::NodeId, std::vector<graph::EdgeId>> trees;
  AdversaryTrace trace = certify(
      topo, params, sources, rng,
      [&](graph::NodeId s, std::vector<graph::EdgeId>& path) -> DestId {
        const graph::NodeId d = dests[rng.uniform_index(dests.size())];
        if (s == d) return graph::kInvalidNode;
        auto it = trees.find(s);
        if (it == trees.end())
          it = trees
                   .emplace(s, graph::dijkstra(topo, s, route_weight(params))
                                   .via_edge)
                   .first;
        const std::vector<graph::EdgeId>& via = it->second;
        if (via[d] == graph::kInvalidEdge) return graph::kInvalidNode;
        for (graph::NodeId at = d; at != s;) {
          const graph::EdgeId e = via[at];
          path.push_back(e);
          at = topo.edge_u(e) == at ? topo.edge_v(e) : topo.edge_u(e);
        }
        std::reverse(path.begin(), path.end());
        return d;
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
