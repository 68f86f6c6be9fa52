#include "routing/baselines.h"

#include <algorithm>
#include <array>
#include <deque>
#include <limits>
#include <map>

#include "common/assert.h"
#include "geom/angles.h"
#include "geom/predicates.h"
#include "graph/shortest_paths.h"

namespace thetanet::route {
BaselineResult run_greedy_geographic(const AdversaryTrace& trace,
                                     const topo::Deployment& d,
                                     const graph::Graph& topo,
                                     std::size_t queue_cap, Time extra_drain) {
  // With no planar edges every greedy local minimum is a drop.
  return run_gpsr(trace, d, topo, graph::Graph(topo.num_nodes()), queue_cap,
                  extra_drain);
}

GpsrResult run_gpsr(const AdversaryTrace& trace, const topo::Deployment& d,
                    const graph::Graph& topo, const graph::Graph& planar,
                    std::size_t queue_cap, Time extra_drain) {
  TN_ASSERT(topo.num_nodes() == planar.num_nodes());
  GpsrResult result;
  result.opt = trace.opt;
  RunMetrics& m = result.metrics;

  // Counter-clockwise neighbour cycles of the planar graph (for the
  // right-hand rule).
  const std::size_t n = planar.num_nodes();
  std::vector<std::vector<graph::Half>> ccw(n);
  for (graph::NodeId v = 0; v < n; ++v) {
    ccw[v].assign(planar.neighbors(v).begin(), planar.neighbors(v).end());
    std::sort(ccw[v].begin(), ccw[v].end(),
              [&](const graph::Half& a, const graph::Half& b) {
                return geom::bearing(d.positions[v], d.positions[a.to]) <
                       geom::bearing(d.positions[v], d.positions[b.to]);
              });
  }
  // Next planar neighbour counterclockwise after `from`, as seen from v.
  const auto ccw_next = [&](graph::NodeId v,
                            graph::NodeId from) -> const graph::Half& {
    const auto& cyc = ccw[v];
    TN_DCHECK(!cyc.empty());
    const double a_from = geom::bearing(d.positions[v], d.positions[from]);
    std::size_t best = 0;
    double best_gap = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < cyc.size(); ++i) {
      double gap = geom::ccw_delta(a_from, geom::bearing(d.positions[v],
                                                         d.positions[cyc[i].to]));
      if (cyc[i].to == from || gap == 0.0) gap = geom::kTwoPi;  // full turn
      if (gap < best_gap) {
        best_gap = gap;
        best = i;
      }
    }
    return cyc[best];
  };

  struct Flight {
    Packet packet;
    bool perimeter = false;
    geom::Vec2 entry{};           // L_p: where perimeter mode was entered
    double cross_dist = 0.0;      // |crossing -> dst| of the best crossing
    graph::NodeId came_from = graph::kInvalidNode;
    graph::NodeId e0_from = graph::kInvalidNode;  // first edge of this face
    graph::NodeId e0_to = graph::kInvalidNode;
  };

  std::vector<std::deque<Flight>> queue(n);
  std::vector<bool> active(topo.num_edges(), false);
  std::vector<bool> planar_active(planar.num_edges(), false);
  std::vector<bool> edge_used(topo.num_edges(), false);
  std::vector<bool> planar_used(planar.num_edges(), false);

  // An activation in the trace refers to `topo` edge ids; a planar edge is
  // active iff the corresponding topo edge is (planar is a subgraph).
  std::vector<graph::EdgeId> planar_to_topo(planar.num_edges(),
                                            graph::kInvalidEdge);
  for (graph::EdgeId e = 0; e < planar.num_edges(); ++e)
    planar_to_topo[e] = topo.find_edge(planar.edge(e).u, planar.edge(e).v);

  const Time total = trace.horizon() + extra_drain;
  for (Time t = 0; t < total; ++t) {
    const StepSpec& step = trace.step_at(t);
    for (const graph::EdgeId e : step.active) active[e] = true;
    for (graph::EdgeId pe = 0; pe < planar.num_edges(); ++pe)
      planar_active[pe] = planar_to_topo[pe] != graph::kInvalidEdge &&
                          active[planar_to_topo[pe]];
    std::fill(edge_used.begin(), edge_used.end(), false);
    std::fill(planar_used.begin(), planar_used.end(), false);

    std::vector<std::pair<graph::NodeId, Flight>> arrivals;
    for (graph::NodeId u = 0; u < n; ++u) {
      if (queue[u].empty()) continue;
      Flight f = queue[u].front();  // working copy; persisted only on forward
      const geom::Vec2 dst_pos = d.positions[f.packet.dst];

      // Perimeter -> greedy recovery (persist: idempotent and monotone).
      if (f.perimeter && geom::dist_sq(d.positions[u], dst_pos) <
                             geom::dist_sq(f.entry, dst_pos)) {
        f.perimeter = false;
        queue[u].front() = f;
      }

      graph::NodeId next = graph::kInvalidNode;
      graph::EdgeId via_topo = graph::kInvalidEdge;
      graph::EdgeId via_planar = graph::kInvalidEdge;
      bool drop = false;
      bool perimeter_hop = false;

      if (!f.perimeter) {
        // Greedy over the full topology.
        double best_d = geom::dist_sq(d.positions[u], dst_pos);
        for (const graph::Half& h : topo.neighbors(u)) {
          const double dd = geom::dist_sq(d.positions[h.to], dst_pos);
          if (dd < best_d || (dd == best_d && h.to < next)) {
            best_d = dd;
            next = h.to;
            via_topo = h.edge;
          }
        }
        if (next == graph::kInvalidNode) {
          if (ccw[u].empty()) {
            drop = true;  // isolated on the planar graph: no recovery
          } else {
            // Enter perimeter mode (persist: idempotent).
            if (f.came_from != graph::kInvalidNode || !f.perimeter) {
              ++result.perimeter_entries;
            }
            f.perimeter = true;
            f.entry = d.positions[u];
            f.cross_dist = geom::dist(f.entry, dst_pos);
            f.came_from = graph::kInvalidNode;
            queue[u].front() = f;
          }
        }
      }

      if (!drop && f.perimeter) {
        perimeter_hop = true;
        graph::Half cand{graph::kInvalidNode, graph::kInvalidEdge};
        bool new_face = false;
        if (f.came_from == graph::kInvalidNode) {
          // At the entry node: first face edge = smallest ccw angle from the
          // direction towards the destination (GPSR's starting rule).
          const double a0 = geom::bearing(d.positions[u], dst_pos);
          double best_gap = std::numeric_limits<double>::infinity();
          for (const graph::Half& h : ccw[u]) {
            const double gap = geom::ccw_delta(
                a0, geom::bearing(d.positions[u], d.positions[h.to]));
            if (gap < best_gap) {
              best_gap = gap;
              cand = h;
            }
          }
          new_face = true;
        } else {
          cand = ccw_next(u, f.came_from);
          // Face-change rule: rotate past edges crossing (entry, dst) at a
          // point closer to the destination than the best crossing so far.
          for (std::size_t rot = 0; rot < ccw[u].size(); ++rot) {
            const auto x = geom::segment_intersection(
                d.positions[u], d.positions[cand.to], f.entry, dst_pos);
            if (!x) break;
            const double xd = geom::dist(*x, dst_pos);
            if (xd >= f.cross_dist) break;
            f.cross_dist = xd;  // applied to the forwarded copy only
            new_face = true;
            cand = ccw_next(u, cand.to);
          }
        }
        if (cand.to == graph::kInvalidNode) {
          drop = true;
        } else if (!new_face && u == f.e0_from && cand.to == f.e0_to) {
          // Completed the face without progress: unreachable on the planar
          // graph.
          drop = true;
        } else {
          if (new_face) {
            f.e0_from = u;
            f.e0_to = cand.to;
          }
          next = cand.to;
          via_planar = cand.edge;
        }
      }

      if (drop) {
        queue[u].pop_front();
        ++result.local_minimum_drops;
        continue;
      }
      if (next == graph::kInvalidNode) continue;

      // Gate by activation and per-step edge capacity. Nothing about the
      // flight was persisted beyond the idempotent mode switch, so a gated
      // hop simply retries next step.
      if (via_planar != graph::kInvalidEdge) {
        if (!planar_active[via_planar] || planar_used[via_planar]) continue;
        planar_used[via_planar] = true;
        via_topo = planar_to_topo[via_planar];
        if (via_topo != graph::kInvalidEdge) edge_used[via_topo] = true;
      } else {
        if (!active[via_topo] || edge_used[via_topo]) continue;
        edge_used[via_topo] = true;
      }

      queue[u].pop_front();
      ++m.attempted_tx;
      const double cost = via_topo != graph::kInvalidEdge
                              ? topo.edge(via_topo).cost
                              : planar.edge(via_planar).cost;
      m.total_energy += cost;
      f.packet.cost_spent += cost;
      ++f.packet.hops;
      if (perimeter_hop) {
        ++result.perimeter_hops;
        f.came_from = u;
      }
      arrivals.emplace_back(next, std::move(f));
    }

    for (auto& [v, f] : arrivals) {
      if (v == f.packet.dst) {
        ++m.deliveries;
        m.delivered_cost += f.packet.cost_spent;
        m.total_hops_delivered += f.packet.hops;
        m.sum_latency += t >= f.packet.injected_at ? t - f.packet.injected_at : 0;
      } else if (queue[v].size() < queue_cap) {
        queue[v].push_back(std::move(f));
      } else {
        ++m.dropped_in_transit;
      }
    }

    if (t < trace.horizon()) {
      for (const Injection& inj : step.injections) {
        ++m.injected_offered;
        if (queue[inj.packet.src].size() < queue_cap) {
          ++m.injected_accepted;
          Flight f;
          f.packet = inj.packet;
          queue[inj.packet.src].push_back(std::move(f));
        } else {
          ++m.dropped_at_injection;
        }
      }
    }
    for (const graph::EdgeId e : step.active) active[e] = false;
    std::size_t peak = 0;
    for (const auto& q : queue) peak = std::max(peak, q.size());
    m.peak_buffer = std::max(m.peak_buffer, peak);
  }
  for (const auto& q : queue) m.leftover_packets += q.size();
  return result;
}

BaselineResult run_source_routing(const AdversaryTrace& trace,
                                  const graph::Graph& topo,
                                  graph::Weight path_metric,
                                  std::size_t queue_cap, Time extra_drain) {
  BaselineResult result;
  result.opt = trace.opt;
  RunMetrics& m = result.metrics;

  // Packet state: remaining path (edge ids) + current position index.
  struct Flight {
    Packet packet;
    std::vector<graph::EdgeId> path;
    std::size_t next = 0;  ///< index into path
  };
  // Per (edge, direction) FIFO of flights waiting to cross.
  // direction 0: u -> v, 1: v -> u.
  std::vector<std::array<std::deque<Flight>, 2>> waiting(topo.num_edges());
  std::vector<std::size_t> node_load(topo.num_nodes(), 0);

  // Shortest-path trees are cached per destination (reverse tree; the graph
  // is undirected so dist/parents from the destination give paths to it).
  std::map<graph::NodeId, graph::ShortestPathTree> trees;
  const auto tree_for = [&](graph::NodeId dst) -> const graph::ShortestPathTree& {
    auto it = trees.find(dst);
    if (it == trees.end())
      it = trees.emplace(dst, graph::dijkstra(topo, dst, path_metric)).first;
    return it->second;
  };

  const auto enqueue = [&](Flight&& f, graph::NodeId at) {
    TN_DCHECK(f.next < f.path.size());
    const graph::EdgeId e = f.path[f.next];
    const graph::Edge& edge = topo.edge(e);
    const int dir = edge.u == at ? 0 : 1;
    TN_DCHECK(edge.u == at || edge.v == at);
    waiting[e][static_cast<std::size_t>(dir)].push_back(std::move(f));
    ++node_load[at];
  };

  const Time total = trace.horizon() + extra_drain;
  for (Time t = 0; t < total; ++t) {
    const StepSpec& step = trace.step_at(t);

    // One packet per active edge per direction.
    std::vector<std::pair<graph::NodeId, Flight>> arrivals;
    for (const graph::EdgeId e : step.active) {
      for (int dir = 0; dir < 2; ++dir) {
        auto& q = waiting[e][static_cast<std::size_t>(dir)];
        if (q.empty()) continue;
        Flight f = std::move(q.front());
        q.pop_front();
        const graph::Edge& edge = topo.edge(e);
        const graph::NodeId from = dir == 0 ? edge.u : edge.v;
        const graph::NodeId to = dir == 0 ? edge.v : edge.u;
        --node_load[from];
        ++m.attempted_tx;
        const double cost = edge.cost;
        m.total_energy += cost;
        f.packet.cost_spent += cost;
        ++f.packet.hops;
        ++f.next;
        arrivals.emplace_back(to, std::move(f));
      }
    }
    for (auto& [v, f] : arrivals) {
      if (v == f.packet.dst) {
        ++m.deliveries;
        m.delivered_cost += f.packet.cost_spent;
        m.total_hops_delivered += f.packet.hops;
        m.sum_latency += t >= f.packet.injected_at ? t - f.packet.injected_at : 0;
        continue;
      }
      TN_DCHECK(f.next < f.path.size());
      if (node_load[v] < queue_cap) {
        enqueue(std::move(f), v);
      } else {
        ++m.dropped_in_transit;
      }
    }

    if (t < trace.horizon()) {
      for (const Injection& inj : step.injections) {
        ++m.injected_offered;
        const auto& tree = tree_for(inj.packet.dst);
        // Walk from src towards dst along the reverse tree.
        if (tree.dist[inj.packet.src] == graph::kUnreachable ||
            node_load[inj.packet.src] >= queue_cap) {
          ++m.dropped_at_injection;
          continue;
        }
        Flight f;
        f.packet = inj.packet;
        for (graph::NodeId at = inj.packet.src; at != inj.packet.dst;
             at = tree.parent[at])
          f.path.push_back(tree.via_edge[at]);
        TN_DCHECK(!f.path.empty());
        ++m.injected_accepted;
        enqueue(std::move(f), inj.packet.src);
      }
    }
    std::size_t peak = 0;
    for (const std::size_t l : node_load) peak = std::max(peak, l);
    m.peak_buffer = std::max(m.peak_buffer, peak);
  }
  for (const std::size_t l : node_load) m.leftover_packets += l;
  return result;
}

}  // namespace thetanet::route
