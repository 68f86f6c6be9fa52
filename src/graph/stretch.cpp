#include "graph/stretch.h"

#include <algorithm>
#include <cmath>

#include "common/parallel.h"
#include "graph/shortest_paths.h"

namespace thetanet::graph {
namespace {

StretchStats summarize(std::vector<double>& ratios, StretchStats partial) {
  if (ratios.empty()) return partial;
  double sum = 0.0;
  for (const double r : ratios) sum += r;
  std::sort(ratios.begin(), ratios.end());
  partial.pairs = ratios.size();
  partial.mean = sum / static_cast<double>(ratios.size());
  const std::size_t p99_idx =
      std::min(ratios.size() - 1,
               static_cast<std::size_t>(0.99 * static_cast<double>(ratios.size())));
  partial.p99 = ratios[p99_idx];
  return partial;
}

/// Per-chunk accumulator for the parallel sweeps. Chunk partials are
/// concatenated in chunk order by tn::parallel_reduce, so the ratio vector
/// (and hence the mean's summation order) is identical to a serial run for
/// any thread count; the max uses a strict > so the earliest chunk wins
/// ties, again matching serial.
struct StretchPartial {
  std::vector<double> ratios;
  StretchStats stats;
};

StretchPartial merge(StretchPartial acc, StretchPartial part) {
  acc.ratios.insert(acc.ratios.end(), part.ratios.begin(), part.ratios.end());
  acc.stats.disconnected = acc.stats.disconnected || part.stats.disconnected;
  if (part.stats.max > acc.stats.max) {
    acc.stats.max = part.stats.max;
    acc.stats.argmax_u = part.stats.argmax_u;
    acc.stats.argmax_v = part.stats.argmax_v;
  }
  return acc;
}

}  // namespace

StretchStats edge_stretch(const Graph& h, const Graph& base, Weight weight) {
  TN_ASSERT(h.num_nodes() == base.num_nodes());
  const std::size_t n = base.num_nodes();

  // One Dijkstra in H per node that has base-neighbours; compare against each
  // incident base edge once (u < v).
  StretchPartial merged = tn::parallel_reduce(
      n, 8, StretchPartial{},
      [&](std::size_t begin, std::size_t end) {
        StretchPartial local;
        for (std::size_t ui = begin; ui < end; ++ui) {
          const NodeId u = static_cast<NodeId>(ui);
          bool any = false;
          for (const Half& nb : base.neighbors(u))
            if (nb.to > u) {
              any = true;
              break;
            }
          if (!any) continue;
          const ShortestPathTree t = dijkstra(h, u, weight);
          for (const Half& nb : base.neighbors(u)) {
            if (nb.to <= u) continue;
            const double direct = edge_weight(base.edge(nb.edge), weight);
            const double via_h = t.dist[nb.to];
            if (via_h == kUnreachable) {
              local.stats.disconnected = true;
              continue;
            }
            // Coincident endpoints give a zero-weight base edge: no
            // meaningful ratio, and NaNs here would poison the sort in
            // summarize(). Skip the pair, as pairwise_stretch does.
            if (direct <= 0.0) continue;
            const double r = via_h / direct;
            local.ratios.push_back(r);
            if (r > local.stats.max) {
              local.stats.max = r;
              local.stats.argmax_u = u;
              local.stats.argmax_v = nb.to;
            }
          }
        }
        return local;
      },
      merge);
  return summarize(merged.ratios, merged.stats);
}

StretchStats pairwise_stretch(const Graph& h, const Graph& base, Weight weight) {
  TN_ASSERT(h.num_nodes() == base.num_nodes());
  const std::size_t n = base.num_nodes();
  if (n < 2) return {};

  StretchPartial merged = tn::parallel_reduce(
      n, 4, StretchPartial{},
      [&](std::size_t begin, std::size_t end) {
        StretchPartial local;
        for (std::size_t ui = begin; ui < end; ++ui) {
          const NodeId u = static_cast<NodeId>(ui);
          const ShortestPathTree th = dijkstra(h, u, weight);
          const ShortestPathTree tb = dijkstra(base, u, weight);
          for (NodeId v = u + 1; v < n; ++v) {
            const double db = tb.dist[v];
            if (db == kUnreachable) continue;  // pair not served by base either
            const double dh = th.dist[v];
            if (dh == kUnreachable) {
              local.stats.disconnected = true;
              continue;
            }
            if (db == 0.0) continue;
            const double r = dh / db;
            local.ratios.push_back(r);
            if (r > local.stats.max) {
              local.stats.max = r;
              local.stats.argmax_u = u;
              local.stats.argmax_v = v;
            }
          }
        }
        return local;
      },
      merge);
  return summarize(merged.ratios, merged.stats);
}

}  // namespace thetanet::graph
