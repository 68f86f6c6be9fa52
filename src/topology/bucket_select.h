#pragma once
// The one neighbour-selection kernel behind every cone-based builder.
// ThetaALG (Section 2.1), the Yao graph, the classical Θ_k and Θ₄ graphs,
// the Theta-Theta graph and the hierarchical neighbor graph all make the
// same passes and differ only in how they bucket and rank neighbours:
//
//   * nearest_per_bucket (phase 1): every node u files each in-range node v
//     under a bucket (u's sector or cone containing v, or v's HNG level)
//     and keeps, per bucket, the v minimizing (rank, dist_sq, id);
//   * admit_per_bucket (phase 2): every selection u -> v is an incoming
//     candidate at v, filed under v's bucket containing u, and v admits,
//     per bucket, the candidate minimizing the same key seen from v;
//   * graph_from_table: the undirected union of a node x bucket table.
//
// Both passes take the same two callables:
//   bucket_of(p_from, to, p_to) -> int in [0, buckets)
//   rank(bucket, p_from, p_to, dist_sq(p_from, p_to)) -> double
// Yao, ThetaALG and HNG rank by squared distance (rank_by_distance), so
// their key orders exactly like (dist_sq, id); the Θ family ranks by the
// projection onto the cone bisector. The key is a strict total order, so
// each winner is the unique minimum: tables are bit-identical for any
// thread count and for Morton ordering on or off.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "common/parallel.h"
#include "geom/spatial_grid.h"
#include "geom/spatial_order.h"
#include "topology/normalize.h"

namespace thetanet::topo {

/// Rank by squared distance: (d2, d2, id) orders like (d2, id).
inline constexpr auto rank_by_distance = [](int, geom::Vec2, geom::Vec2,
                                            double d2) { return d2; };

/// Phase 1. Row-major node x bucket table: entry u * buckets + b is the
/// in-range node v != u in bucket bucket_of(p[u], v, p[v]) == b minimizing
/// (rank, dist_sq, id), or kInvalidNode when the bucket is empty.
template <typename BucketOf, typename Rank>
std::vector<graph::NodeId> nearest_per_bucket(const Deployment& d,
                                              std::size_t buckets,
                                              const BucketOf& bucket_of,
                                              const Rank& rank) {
  const std::size_t n = d.size();
  std::vector<graph::NodeId> table(n * buckets, graph::kInvalidNode);
  if (n < 2) return table;
  // Morton-ordered traversal: the grid is built over the Z-order copy of
  // the points and nodes are processed in that order, so consecutive
  // queries land in the same (already cached) grid cells. Rows are
  // addressed by ORIGINAL id, which occurs once in the permutation, so
  // writes stay disjoint across chunks.
  const geom::SpatialOrder ord(d.positions);
  const geom::SpatialGrid grid(ord.points(), d.max_range);
  tn::parallel_for(n, 256, [&](std::size_t begin, std::size_t end) {
    // Per-chunk winner row, reset per node and copied out once per node
    // (no false sharing on table rows).
    std::vector<double> best_rank(buckets);
    std::vector<double> best_d2(buckets);
    std::vector<graph::NodeId> best(buckets);
    for (std::size_t si = begin; si < end; ++si) {
      const graph::NodeId u = ord.to_orig(static_cast<std::uint32_t>(si));
      const geom::Vec2 pu = ord.points()[si];
      std::fill(best_rank.begin(), best_rank.end(),
                std::numeric_limits<double>::infinity());
      std::fill(best_d2.begin(), best_d2.end(),
                std::numeric_limits<double>::infinity());
      std::fill(best.begin(), best.end(), graph::kInvalidNode);
      grid.for_each_within(
          pu, d.max_range, [&](std::uint32_t vs, double d2, geom::Vec2 pv) {
            if (vs == si) return;
            const graph::NodeId v = ord.to_orig(vs);
            const int b = bucket_of(pu, v, pv);
            const auto bi = static_cast<std::size_t>(b);
            const double r = rank(b, pu, pv, d2);
            // d2 from the scan is bit-identical to
            // dist_sq(positions[u], positions[v]).
            if (r < best_rank[bi] ||
                (r == best_rank[bi] &&
                 (d2 < best_d2[bi] || (d2 == best_d2[bi] && v < best[bi])))) {
              best_rank[bi] = r;
              best_d2[bi] = d2;
              best[bi] = v;
            }
          });
      std::copy(best.begin(), best.end(), table.data() + u * buckets);
    }
  });
  return table;
}

/// Phase 2 over a phase-1 table: entry v * buckets + b of the result is the
/// selector u (selected[u * buckets + c] == v for some c) in v's bucket
/// bucket_of(p[v], u, p[u]) == b minimizing (rank, dist_sq, id), or
/// kInvalidNode when no selector falls in that bucket.
template <typename BucketOf, typename Rank>
std::vector<graph::NodeId> admit_per_bucket(
    const Deployment& d, std::size_t buckets,
    std::span<const graph::NodeId> selected, const BucketOf& bucket_of,
    const Rank& rank) {
  const std::size_t n = d.size();
  std::vector<graph::NodeId> admitted(n * buckets, graph::kInvalidNode);
  // Candidate discovery (the bucket and rank trigonometry) runs in parallel
  // over selectors u; the min-merge is a serial fold over the chunk-ordered
  // concatenation. A candidate stays 16 bytes (ThetaALG files up to k per
  // node), so positions are gathered for dist_sq only when two ranks tie.
  struct Candidate {
    std::uint32_t slot;
    graph::NodeId u;
    double rank;
  };
  TN_DCHECK(n * buckets <= 0xffffffffu);
  const std::vector<Candidate> candidates = tn::parallel_reduce(
      n, 256, std::vector<Candidate>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<Candidate> part;
        for (std::size_t ui = begin; ui < end; ++ui) {
          const auto u = static_cast<graph::NodeId>(ui);
          const geom::Vec2 pu = d.positions[u];
          for (std::size_t c = 0; c < buckets; ++c) {
            const graph::NodeId v = selected[ui * buckets + c];
            if (v == graph::kInvalidNode) continue;
            const geom::Vec2 pv = d.positions[v];
            const int b = bucket_of(pv, u, pu);
            part.push_back(
                {static_cast<std::uint32_t>(v * buckets +
                                            static_cast<std::size_t>(b)),
                 u, rank(b, pv, pu, geom::dist_sq(pv, pu))});
          }
        }
        return part;
      },
      [](std::vector<Candidate> acc, std::vector<Candidate> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  std::vector<double> best_rank(n * buckets,
                                std::numeric_limits<double>::infinity());
  for (const Candidate& c : candidates) {
    graph::NodeId& cur = admitted[c.slot];
    double& br = best_rank[c.slot];
    // An empty slot has br == inf, which any finite rank beats, so a tie
    // always has a current holder to compare distances with.
    bool wins = c.rank < br;
    if (c.rank == br) {
      const geom::Vec2 pv = d.positions[c.slot / buckets];
      const double d2 = geom::dist_sq(pv, d.positions[c.u]);
      const double cur_d2 = geom::dist_sq(pv, d.positions[cur]);
      wins = d2 < cur_d2 || (d2 == cur_d2 && c.u < cur);
    }
    if (wins) {
      br = c.rank;
      cur = c.u;
    }
  }
  return admitted;
}

/// The undirected union of a row-major node x bucket table: one edge
/// {u, table[u * buckets + b]} per filled entry, canonicalized by
/// normalize_edges and weighted by graph_from_pairs.
inline graph::Graph graph_from_table(const Deployment& d, std::size_t buckets,
                                     std::span<const graph::NodeId> table) {
  std::vector<EdgePair> pairs;
  pairs.reserve(static_cast<std::size_t>(
      std::count_if(table.begin(), table.end(), [](graph::NodeId v) {
        return v != graph::kInvalidNode;
      })));
  for (graph::NodeId u = 0; u < d.size(); ++u)
    for (std::size_t b = 0; b < buckets; ++b) {
      const graph::NodeId v = table[u * buckets + b];
      if (v != graph::kInvalidNode) pairs.emplace_back(u, v);
    }
  normalize_edges(pairs);
  return graph_from_pairs(d, pairs);
}

}  // namespace thetanet::topo
