#include "topology/proximity.h"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "common/parallel.h"
#include "geom/delaunay.h"
#include "geom/predicates.h"
#include "geom/spatial_grid.h"
#include "graph/mst.h"
#include "topology/normalize.h"
#include "topology/transmission_graph.h"

namespace thetanet::topo {
namespace {

using graph::NodeId;

std::vector<EdgePair> concat(std::vector<EdgePair> acc,
                             std::vector<EdgePair> part) {
  acc.insert(acc.end(), part.begin(), part.end());
  return acc;
}

/// Shared scaffold for the disk/lune-emptiness graphs: consider every pair
/// within range and keep it iff `empty_region(u, v)` holds. Keep-tests are
/// read-only grid queries, so node ranges run in parallel; each chunk
/// collects its kept pairs with the candidate list of every node sorted, and
/// chunks concatenate in node order — edges come out (u, v) lexicographic
/// for any thread count.
///
/// The keep-lambdas run on SpatialGrid's template visitor path: a
/// std::function here would be constructed per *candidate pair*, and its
/// capture list exceeds the small-buffer size, so every test would hit the
/// (lock-shared) allocator — that contention made the 2-thread gabriel
/// build slower than serial before the template port.
template <typename Keep>
graph::Graph build_pairwise(const Deployment& d, const Keep& keep) {
  const std::size_t n = d.size();
  if (n < 2) return graph::Graph(n);
  const geom::SpatialGrid grid(d.positions, d.max_range);
  const std::vector<EdgePair> kept = tn::parallel_reduce(
      n, 32, std::vector<EdgePair>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<EdgePair> out;
        std::vector<NodeId> cand;
        for (std::size_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<NodeId>(ui);
          cand.clear();
          grid.for_each_within(d.positions[u], d.max_range,
                               [&](std::uint32_t v) {
                                 if (v > u) cand.push_back(v);
                               });
          std::sort(cand.begin(), cand.end());
          for (const NodeId v : cand)
            if (keep(grid, u, v)) out.emplace_back(u, v);
        }
        return out;
      },
      concat);
  return graph_from_pairs(d, kept);
}

}  // namespace

graph::Graph gabriel_graph(const Deployment& d) {
  return build_pairwise(
      d, [&](const geom::SpatialGrid& grid, NodeId u, NodeId v) {
        const geom::Vec2 pu = d.positions[u], pv = d.positions[v];
        const geom::Vec2 mid = geom::midpoint(pu, pv);
        const double r = geom::dist(pu, pv) / 2.0;
        // Completed scan <=> no witness inside the disk.
        return grid.for_each_within_until(mid, r, [&](std::uint32_t w) {
          return w == u || w == v ||
                 !geom::in_gabriel_disk(pu, pv, d.positions[w]);
        });
      });
}

graph::Graph relative_neighborhood_graph(const Deployment& d) {
  return build_pairwise(
      d, [&](const geom::SpatialGrid& grid, NodeId u, NodeId v) {
        const geom::Vec2 pu = d.positions[u], pv = d.positions[v];
        const double len = geom::dist(pu, pv);
        // The lune is contained in the disk of radius |uv| around either
        // endpoint; query around the midpoint with radius 1.5*|uv| to cover it.
        return grid.for_each_within_until(
            geom::midpoint(pu, pv), 1.5 * len, [&](std::uint32_t w) {
              return w == u || w == v ||
                     !geom::in_rng_lune(pu, pv, d.positions[w]);
            });
      });
}

graph::Graph restricted_delaunay_graph(const Deployment& d) {
  const std::size_t n = d.size();
  if (n < 2) return graph::Graph(n);
  std::vector<EdgePair> pairs;
  for (const auto& [u, v] : geom::delaunay_edges(d.positions))
    if (d.distance(u, v) <= d.max_range) pairs.emplace_back(u, v);
  // Gabriel ⊆ Delaunay under exact predicates, and that subset property is
  // what carries the RDG's connectivity and unit energy-stretch. The fp
  // Bowyer-Watson kernel can drop edges on near-degenerate inputs (the
  // zoo fuzzer's exponential chains disconnect it), so union the Gabriel
  // edges back in — a no-op on well-separated instances.
  const graph::Graph gg = gabriel_graph(d);
  for (graph::EdgeId e = 0; e < gg.num_edges(); ++e)
    pairs.emplace_back(gg.edge(e).u, gg.edge(e).v);
  normalize_edges(pairs);
  return graph_from_pairs(d, pairs);
}

graph::Graph knn_graph(const Deployment& d, std::size_t k) {
  const std::size_t n = d.size();
  if (n < 2) return graph::Graph(n);
  // Query a hair past D so no rounding in the grid's squared-distance
  // prefilter drops a node d.in_range accepts. In-range nodes are a prefix
  // of the (dist_sq, id) order, so cutting the k nearest candidates at the
  // first out-of-range one gives exactly the range-restricted k-NN. Cells
  // match the padded radius: a query then scans 3x3 cells, not 5x5.
  const double radius = d.max_range * (1.0 + 1e-12);
  const geom::SpatialGrid grid(d.positions, radius);
  // Per-chunk pair lists; normalize_edges owns the dedup (u and v can each
  // pick the other).
  std::vector<EdgePair> chosen = tn::parallel_reduce(
      n, 32, std::vector<EdgePair>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<EdgePair> out;
        std::vector<std::pair<double, NodeId>> cand;
        for (std::size_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<NodeId>(ui);
          cand.clear();
          grid.for_each_within(d.positions[u], radius,
                               [&](std::uint32_t v, double d2) {
                                 if (v != u) cand.emplace_back(d2, v);
                               });
          const auto kept = cand.begin() + static_cast<std::ptrdiff_t>(
                                                std::min(k, cand.size()));
          std::partial_sort(cand.begin(), kept, cand.end());
          for (auto it = cand.begin(); it != kept; ++it) {
            if (!d.in_range(u, it->second)) break;
            out.emplace_back(u, it->second);
          }
        }
        return out;
      },
      concat);
  normalize_edges(chosen);
  return graph_from_pairs(d, chosen);
}

graph::Graph euclidean_mst(const Deployment& d) {
  // mst_subgraph emits edges in Kruskal acceptance order (by weight);
  // renormalize so the MST honours the shared lexicographic edge-id
  // contract like every other builder.
  const graph::Graph t =
      graph::mst_subgraph(build_transmission_graph(d), graph::Weight::kLength);
  std::vector<EdgePair> pairs;
  pairs.reserve(t.num_edges());
  for (graph::EdgeId e = 0; e < t.num_edges(); ++e)
    pairs.push_back({t.edge(e).u, t.edge(e).v});
  normalize_edges(pairs);
  return graph_from_pairs(d, pairs);
}

graph::Graph beta_skeleton(const Deployment& d, double beta) {
  TN_ASSERT(beta > 0.0);
  return build_pairwise(
      d, [&](const geom::SpatialGrid& grid, NodeId u, NodeId v) {
        const geom::Vec2 pu = d.positions[u], pv = d.positions[v];
        const double len = geom::dist(pu, pv);
        geom::Vec2 c1, c2;
        double r;
        if (beta >= 1.0) {
          // Lune-based: disks centred on the segment.
          c1 = pu + (beta / 2.0) * (pv - pu);
          c2 = pv + (beta / 2.0) * (pu - pv);
          r = beta * len / 2.0;
        } else {
          // Circle-based: disks through u and v, centres on the bisector.
          r = len / (2.0 * beta);
          const geom::Vec2 mid = geom::midpoint(pu, pv);
          const double h = std::sqrt(std::max(0.0, r * r - len * len / 4.0));
          const geom::Vec2 perp =
              geom::normalized(geom::rotated(pv - pu, std::numbers::pi / 2.0));
          c1 = mid + h * perp;
          c2 = mid - h * perp;
        }
        // The region is contained in both disks; query the larger extent.
        return grid.for_each_within_until(
            geom::midpoint(pu, pv), r + len, [&](std::uint32_t w) {
              if (w == u || w == v) return true;
              const geom::Vec2 pw = d.positions[w];
              return !(geom::in_open_disk(c1, r, pw) &&
                       geom::in_open_disk(c2, r, pw));
            });
      });
}

}  // namespace thetanet::topo
