#include "core/schedule_transform.h"

#include <algorithm>

#include "common/assert.h"

namespace thetanet::core {

namespace {

/// True iff edge e of g may not join `step`: it is already there (one
/// packet per edge per step), or it lies in the interference set of an edge
/// that is (the Section 2.4 pairwise test).
bool conflicts(const graph::Graph& g, const topo::Deployment& d,
               const interf::InterferenceModel& model,
               const std::vector<graph::EdgeId>& step, graph::EdgeId e) {
  const graph::Edge& a = g.edge(e);
  for (const graph::EdgeId other : step) {
    const graph::Edge& b = g.edge(other);
    if (other == e ||
        model.in_interference_set(d.positions[a.u], d.positions[a.v],
                                  d.positions[b.u], d.positions[b.v]))
      return true;
  }
  return false;
}

}  // namespace

TransformResult transform_schedule(const ThetaTopology& topology,
                                   const graph::Graph& gstar,
                                   std::span<const GStarStep> schedule,
                                   const interf::InterferenceModel& model) {
  const topo::Deployment& d = topology.deployment();
  const graph::Graph& n_graph = topology.graph();
  TransformResult result;
  result.gstar_steps = schedule.size();
  result.interference_number = interf::interference_number(n_graph, d, model);

  // occupied[s] = N edges transmitting in produced step s.
  std::vector<std::vector<graph::EdgeId>> occupied;
  const auto place = [&](graph::EdgeId e, std::size_t earliest) {
    std::size_t s = earliest;
    for (;; ++s) {
      if (s >= occupied.size()) occupied.resize(s + 1);
      if (!conflicts(n_graph, d, model, occupied[s], e)) break;
    }
    occupied[s].push_back(e);
    ++result.transmissions;
    return s;
  };

  // Causality barrier: every hop spawned by G* step k starts after all of
  // step k-1's hops finished.
  std::size_t barrier = 0;
  for (const GStarStep& gstep : schedule) {
    std::size_t step_completion = barrier;
    for (const graph::EdgeId ge : gstep) {
      const graph::Edge& edge = gstar.edge(ge);
      const std::vector<graph::EdgeId> path =
          topology.replacement_path(edge.u, edge.v);
      TN_DCHECK(!path.empty());
      std::size_t ready = barrier;  // hop j waits for hop j-1 (store & forward)
      for (const graph::EdgeId hop : path) {
        const std::size_t placed = place(hop, ready);
        ready = placed + 1;
      }
      step_completion = std::max(step_completion, ready);
    }
    barrier = step_completion;
  }

  result.n_steps = occupied.size();
  result.n_schedule.reserve(occupied.size());
  for (std::vector<graph::EdgeId>& step : occupied) {
    std::sort(step.begin(), step.end());
    result.n_schedule.push_back(std::move(step));
  }
  return result;
}

std::vector<GStarStep> random_noninterfering_schedule(
    const graph::Graph& gstar, const topo::Deployment& d,
    const interf::InterferenceModel& model, std::size_t steps, geom::Rng& rng) {
  // Each step is a greedy maximal independent set in G*'s interference
  // graph, built in a fresh random scan order.
  std::vector<GStarStep> schedule;
  schedule.reserve(steps);
  std::vector<graph::EdgeId> order(gstar.num_edges());
  for (graph::EdgeId e = 0; e < order.size(); ++e) order[e] = e;
  for (std::size_t s = 0; s < steps; ++s) {
    for (std::size_t i = order.size(); i > 1; --i)
      std::swap(order[i - 1], order[rng.uniform_index(i)]);
    GStarStep step;
    for (const graph::EdgeId e : order)
      if (!conflicts(gstar, d, model, step, e)) step.push_back(e);
    std::sort(step.begin(), step.end());
    schedule.push_back(std::move(step));
  }
  return schedule;
}

}  // namespace thetanet::core
