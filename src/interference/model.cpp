#include "interference/model.h"

#include <algorithm>
#include <functional>

#include "common/assert.h"
#include "common/hugepage.h"
#include "common/parallel.h"
#include "common/radix.h"
#include "geom/predicates.h"
#include "geom/spatial_grid.h"
#include "geom/spatial_order.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace thetanet::interf {

bool InterferenceModel::region_covers(geom::Vec2 a1, geom::Vec2 a2,
                                      geom::Vec2 p) const {
  const double r = guard_radius(geom::dist(a1, a2));
  return geom::in_open_disk(a1, r, p) || geom::in_open_disk(a2, r, p);
}

bool InterferenceModel::interferes(geom::Vec2 x1, geom::Vec2 x2, geom::Vec2 y1,
                                   geom::Vec2 y2) const {
  return region_covers(x1, x2, y1) || region_covers(x1, x2, y2);
}

namespace {

/// Grid cell size for guard-radius queries, driven by the edge-length
/// distribution instead of d.max_range: queries use r = (1+Delta)|e|, and
/// |e| is typically far below max_range in a sparse topology, so a
/// max_range-sized grid makes every query scan ~(max_range/r)^2 times more
/// points than the disk holds. Half the median guard radius matches the
/// bulk of the queries: a cell of r covers a median disk with a 3x3 block
/// (~9r^2 of area scanned for a pir^2 disk, ~2.9x over-scan) while r/2
/// needs 5x5 quarter-size cells (~6.25r^2, ~2x over-scan) — the extra
/// cell-loop iterations are cheaper than the extra distance tests. The
/// long-edge tail just spans a few more cells, which is fine because those
/// disks genuinely contain many points. (SpatialGrid itself caps the cell
/// count at O(n) for degenerate distributions.)
double guard_query_cell(const graph::Graph& g, const InterferenceModel& m) {
  std::vector<double> radii;
  radii.reserve(g.num_edges());
  for (const graph::Edge& e : g.edges())
    radii.push_back(m.guard_radius(e.length));
  auto mid = radii.begin() + static_cast<std::ptrdiff_t>(radii.size() / 2);
  std::nth_element(radii.begin(), mid, radii.end());
  return std::max(0.5 * *mid, 1e-9);
}

/// Per-kernel precomputed, read-only shared state. Everything the hot walk
/// touches is indexed by edge RANK — the edge's position in Morton order of
/// its (sorted-domain) lower endpoint — rather than by original edge id.
/// Sources are processed in rank order and their query disks only reach
/// nearby geometry, so every rank-indexed probe (dedup stamp, guard radius,
/// endpoint record) lands in a small sliding window of the array that stays
/// cache-resident; the same probes keyed by original edge id scatter across
/// the full E-sized array and miss to L2/L3 660M times per build. Pieces:
///   * `order` / rank_of: the rank<->original permutation. Pure function of
///     the graph and the Morton permutation (radix sort over unique
///     (sorted-endpoint, edge-id) keys), so rank-space processing is
///     thread-count independent.
///   * A flat CSR copy of the adjacency, indexed by SORTED node id (the
///     domain the grid reports). Each half carries the incident edge as
///     BOTH labels: its rank (for the stamp probe) and its original id
///     (ownership is decided in original-id order, so the owned pairs are
///     untouched by the relabeling).
///   * Edge geometry as a structure-of-arrays record (endpoints + guard
///     radius + its square), by RANK. guard_radius(e.length) is computed
///     once here; e.length is the exact Euclidean distance in every
///     topology builder, so the radius — and every predicate built on it —
///     is bit-identical to recomputing dist(u, v).
struct HalfRef {
  std::uint32_t rank;  // Morton rank of the incident edge
  graph::EdgeId orig;  // its original id
};

struct KernelContext {
  struct EdgeGeom {
    geom::Vec2 a, b;  // endpoints
    double r2;        // guard radius squared, the open-disk threshold
  };
  std::vector<graph::EdgeId> order;    // rank -> original edge id
  std::vector<std::uint32_t> adj_off;  // n + 1, by sorted node id
  std::vector<HalfRef> adj;            // 2E incident edges
  // The emission inner loop gathers one EdgeGeom per candidate — hundreds
  // of millions per build — so the record holds EXACTLY what that loop
  // reads (both endpoints and r2, one 40-byte load). The guard radius
  // itself is only read for the per-source grid query, a sequential
  // rank-order access, so it lives in its own side array.
  std::vector<EdgeGeom> egeom;    // E, by edge RANK
  std::vector<double> eradius;    // E, guard radius (1 + Delta)|e|, by RANK

  KernelContext(const graph::Graph& g, const topo::Deployment& d,
                const InterferenceModel& m, const geom::SpatialOrder& ord) {
    const std::size_t n = g.num_nodes();
    const std::size_t ne = g.num_edges();
    order.resize(ne);
    {
      std::vector<std::uint64_t> keys(ne);
      for (std::size_t e = 0; e < ne; ++e) {
        const std::uint32_t su =
            ord.to_sorted(g.edge_u(static_cast<graph::EdgeId>(e)));
        const std::uint32_t sv =
            ord.to_sorted(g.edge_v(static_cast<graph::EdgeId>(e)));
        keys[e] = (std::uint64_t{std::min(su, sv)} << 32) | e;
      }
      std::vector<std::uint64_t> staging(ne);
      tn::radix_sort_u64(keys, staging);
      for (std::size_t k = 0; k < ne; ++k)
        order[k] = static_cast<graph::EdgeId>(keys[k] & 0xffffffffu);
    }
    std::vector<std::uint32_t> rank_of(ne);
    for (std::size_t k = 0; k < ne; ++k)
      rank_of[order[k]] = static_cast<std::uint32_t>(k);
    adj_off.resize(n + 1);
    adj_off[0] = 0;
    for (std::uint32_t ws = 0; ws < n; ++ws)
      adj_off[ws + 1] =
          adj_off[ws] +
          static_cast<std::uint32_t>(g.neighbors(ord.to_orig(ws)).size());
    // The walk gathers from adj/egeom at unpredictable offsets; huge
    // pages keep the dTLB footprint of these tens-of-MB arrays tiny. The
    // hint must precede the first touch, hence reserve-advise-resize.
    adj.reserve(adj_off[n]);
    tn::advise_huge(adj.data(), adj_off[n] * sizeof(HalfRef));
    adj.resize(adj_off[n]);
    for (std::uint32_t ws = 0; ws < n; ++ws) {
      std::uint32_t at = adj_off[ws];
      for (const graph::Half h : g.neighbors(ord.to_orig(ws)))
        adj[at++] = {rank_of[h.edge], h.edge};
    }
    egeom.reserve(ne);
    tn::advise_huge(egeom.data(), ne * sizeof(EdgeGeom));
    egeom.resize(ne);
    eradius.resize(ne);
    for (std::size_t k = 0; k < ne; ++k) {
      const graph::Edge ed = g.edge(order[k]);
      const double r = m.guard_radius(ed.length);
      egeom[k] = {d.positions[ed.u], d.positions[ed.v], r * r};
      eradius[k] = r;
    }
  }
};

/// Discovery scratch: an epoch-stamped seen array over edge RANKS replaces
/// sort+unique dedup. Stamps cost O(1) per candidate and never sort
/// anything — per-source ~1000 raw candidates made the two sorts the
/// dominant cost of the whole kernel. Stamping by rank keeps the probes in
/// the cache-resident window rank locality buys (see KernelContext), and
/// ONE-BYTE stamps shrink the window pages 4x further. The byte epoch
/// wraps every 255 sources, so the array re-zeroes then (a 0.1% amortized
/// memset — E bytes per 255 sources), when the edge count changes, or on
/// first use; between resets the epoch increases strictly, so stale stamps
/// from earlier chunks and earlier kernel invocations never match.
struct DiscoveryScratch {
  std::vector<std::uint8_t> stamp;  // stamp[k] == epoch => rank k visited
  std::uint8_t epoch = 0;
  std::vector<std::uint32_t> touched;  // nodes in IR(e_i), deduped by scan
  std::vector<HalfRef> kept;           // deduped incident edges, one source

  static DiscoveryScratch& local() {
    static thread_local DiscoveryScratch s;
    return s;
  }
  void ensure(std::size_t num_edges) {
    if (stamp.size() != num_edges) {
      stamp.assign(num_edges, 0);
      epoch = 0;
    }
    if (kept.size() < 4096) kept.resize(4096);
  }
  std::uint8_t next_epoch() {
    if (epoch == 0xff) {
      std::fill(stamp.begin(), stamp.end(), std::uint8_t{0});
      epoch = 0;
    }
    return ++epoch;
  }
};

/// Discover S_i = edges with an endpoint strictly inside IR(e_i) and emit
/// each candidate partner once as emit(rank, take): rank the Morton rank
/// of the partner, and take 1 iff this source OWNS the unordered pair
/// {i, j} — summed over all sources every owned pair has take == 1 exactly
/// once. The flag is handed to the caller instead of being branched on
/// here: the ownership predicate is data-dependent and unpredictable, and
/// at ~400M candidates per build the mispredict stalls of a branchy emit
/// path cost more than computing four squared distances unconditionally.
/// Callers accumulate branchlessly (`counts[rank] += take`,
/// `max(acc[rank], take * size)`).
///
/// Discovery: two grid disk queries collect the touched nodes (the grid's
/// closed-disk prefilter is refined with the open-disk predicate,
/// dist_sq < r*r, matching geom::in_open_disk bit for bit; the union scan
/// reports each node once), then incident edges are deduplicated into
/// `s.kept` with a byte-epoch stamp over edge RANKS — branchlessly: every
/// half is written to the buffer, and the cursor advances only when the
/// stamp says it is fresh. The source edge is pre-stamped, so no j == i
/// test is needed. Touched node ids live in the sorted (Morton) domain.
///
/// Ownership: pair {i, j} with j in S_i is owned by i iff i < j or
/// A(j, i) is false — the smallest source that can discover the pair owns
/// it. The ordering is on original ids, so the owned-pair multiset is
/// untouched by the rank relabeling. The reverse test A(j, i) is pure
/// algebra on already-known quantities: the forward and reverse directed
/// tests compare the SAME four endpoint-to-endpoint distances against
/// r_i^2 and r_j^2 respectively (IR coverage is "some endpoint of the
/// other edge inside my open disks"), so A(j, i) false is exactly
/// r_j < r_i and min4 >= r_j^2. min4 >= rj2 matches the short-circuit
/// four-comparison form bit for bit (coordinates are finite, so no NaN
/// can flip the equivalence).
std::size_t discover_candidates(const KernelContext& kc,
                                const geom::SpatialGrid& grid,
                                std::uint32_t src_rank, DiscoveryScratch& s) {
  const KernelContext::EdgeGeom& ei = kc.egeom[src_rank];
  const double r2 = ei.r2;
  const std::uint8_t epoch = s.next_epoch();
  s.touched.clear();
  // One union scan over both disks; the strict open-disk refinement
  // (dist_sq < r*r, matching geom::in_open_disk bit for bit) reuses the
  // squared distances the prefilter just computed. The scan visits each
  // id at most once, so `touched` is deduped by construction.
  grid.for_each_within_two(
      ei.a, ei.b, kc.eradius[src_rank],
      [&](std::uint32_t w, double d1, double d2) {
        if (d1 < r2 || d2 < r2) s.touched.push_back(w);
      });
  s.stamp[src_rank] = epoch;  // never emit {i, i}
  std::size_t cnt = 0;
  for (const std::uint32_t w : s.touched) {
    const std::uint32_t half_end = kc.adj_off[w + 1];
    std::uint32_t hh = kc.adj_off[w];
    if (s.kept.size() < cnt + (half_end - hh))
      s.kept.resize(2 * (cnt + (half_end - hh)));
    for (; hh < half_end; ++hh) {
      const HalfRef h = kc.adj[hh];
      const bool fresh = s.stamp[h.rank] != epoch;
      s.stamp[h.rank] = epoch;
      s.kept[cnt] = h;
      cnt += fresh;
    }
  }
  return cnt;
}

template <typename Emit>
void emit_owned_pairs(const KernelContext& kc, std::uint32_t src_rank,
                      const DiscoveryScratch& s, std::size_t cnt,
                      Emit&& emit) {
  const graph::EdgeId i = kc.order[src_rank];
  const KernelContext::EdgeGeom& ei = kc.egeom[src_rank];
  const double r2 = ei.r2;
  for (std::size_t b = 0; b < cnt; ++b) {
    const HalfRef h = s.kept[b];
    const KernelContext::EdgeGeom& ej = kc.egeom[h.rank];
    const double rj2 = ej.r2;
    const double d1 = geom::dist_sq(ej.a, ei.a);
    const double d2 = geom::dist_sq(ej.b, ei.a);
    const double d3 = geom::dist_sq(ej.a, ei.b);
    const double d4 = geom::dist_sq(ej.b, ei.b);
    const double min4 = std::min(std::min(d1, d2), std::min(d3, d4));
    const bool take = (i < h.orig) | ((rj2 < r2) & (min4 >= rj2));
    emit(h.rank, static_cast<std::uint32_t>(take));
  }
}

/// One kernel set-up: the Morton order, the rank-space context and the
/// guard-radius grid over the sorted points.
struct Walk {
  geom::SpatialOrder ord;
  KernelContext kc;
  geom::SpatialGrid grid;

  Walk(const graph::Graph& g, const topo::Deployment& d,
       const InterferenceModel& m)
      : ord(d.positions),
        kc(g, d, m, ord),
        grid(ord.points(), guard_query_cell(g, m)) {}

  /// Run `chunk(acc, begin, end, scratch)` over the source ranks, each chunk
  /// into its own zeroed E-sized array by rank, and combine the arrays
  /// elementwise with `merge` in chunk order. Auto grain (about 32 chunks):
  /// a chunk's array lives until the calling thread folds it, after every
  /// earlier chunk's, so roughly one array per thread is live at once, at
  /// most one per chunk. `merge` is integer `+` or `max`, so the result is
  /// bit-identical for any chunking.
  template <typename Chunk, typename Merge>
  std::vector<std::uint32_t> fold(Chunk&& chunk, Merge merge) const {
    const std::size_t ne = kc.order.size();
    return tn::parallel_reduce(
        ne, 0, std::vector<std::uint32_t>{},
        [&](std::size_t begin, std::size_t end) {
          std::vector<std::uint32_t> acc(ne, 0);
          DiscoveryScratch& s = DiscoveryScratch::local();
          s.ensure(ne);
          chunk(acc, static_cast<std::uint32_t>(begin),
                static_cast<std::uint32_t>(end), s);
          return acc;
        },
        [&](std::vector<std::uint32_t> acc, std::vector<std::uint32_t> part) {
          if (acc.empty()) return part;
          for (std::size_t k = 0; k < acc.size(); ++k)
            acc[k] = merge(acc[k], part[k]);
          return acc;
        });
  }

  /// |I(e)| by edge rank: both edges of every owned pair counted once.
  /// Tallies accumulate by rank — the partner rank rides along on every
  /// emission, so both increments stay in the cache-resident rank window.
  std::vector<std::uint32_t> sizes() const {
    return fold(
        [&](std::vector<std::uint32_t>& counts, std::uint32_t begin,
            std::uint32_t end, DiscoveryScratch& s) {
          std::uint64_t pairs = 0;  // flushed once per chunk, never per pair
          for (std::uint32_t k = begin; k < end; ++k) {
            // Every owned pair involves the source: bank its side of the
            // tally in a register and pay only ONE scattered increment per
            // pair (the partner's).
            std::uint32_t mine = 0;
            const std::size_t cnt = discover_candidates(kc, grid, k, s);
            emit_owned_pairs(kc, k, s, cnt,
                             [&](std::uint32_t partner, std::uint32_t take) {
                               counts[partner] += take;
                               mine += take;
                             });
            counts[k] += mine;
            pairs += mine;
          }
          TN_OBS_COUNT("interference.pairs", pairs);
        },
        std::plus<std::uint32_t>{});
  }

  /// A by-rank array moved to original edge-id order.
  std::vector<std::uint32_t> to_original(
      const std::vector<std::uint32_t>& by_rank) const {
    std::vector<std::uint32_t> out(by_rank.size());
    for (std::size_t k = 0; k < by_rank.size(); ++k)
      out[kc.order[k]] = by_rank[k];
    return out;
  }
};

}  // namespace

std::vector<std::uint32_t> interference_set_sizes(const graph::Graph& g,
                                                  const topo::Deployment& d,
                                                  const InterferenceModel& m) {
  if (g.num_edges() == 0) return {};
  TN_OBS_SPAN("interference.set_sizes");
  const Walk w(g, d, m);
  return w.to_original(w.sizes());
}

std::vector<std::uint32_t> interference_bounds(const graph::Graph& g,
                                               const topo::Deployment& d,
                                               const InterferenceModel& m) {
  // Two walks over the same owned pairs: the size tally, then a max pass in
  // which each owned pair {i, j} raises i's entry to |I(j)| and j's entry
  // to |I(i)|. Every pair of the symmetric relation is owned exactly once,
  // so each edge sees all of I(e).
  if (g.num_edges() == 0) return {};
  TN_OBS_SPAN("interference.edge_bounds");
  const Walk w(g, d, m);
  const std::vector<std::uint32_t> sizes = w.sizes();
  std::vector<std::uint32_t> bounds = w.fold(
      [&](std::vector<std::uint32_t>& acc, std::uint32_t begin,
          std::uint32_t end, DiscoveryScratch& s) {
        for (std::uint32_t k = begin; k < end; ++k) {
          // Branchless like the tally: a pair this source does not own
          // raises nothing (take == 0).
          const std::uint32_t own = sizes[k];
          std::uint32_t mine = own;
          const std::size_t cnt = discover_candidates(w.kc, w.grid, k, s);
          emit_owned_pairs(w.kc, k, s, cnt,
                           [&](std::uint32_t partner, std::uint32_t take) {
                             acc[partner] = std::max(acc[partner], take * own);
                             mine = std::max(mine, take * sizes[partner]);
                           });
          acc[k] = std::max(acc[k], mine);
        }
      },
      [](std::uint32_t a, std::uint32_t b) { return std::max(a, b); });
  for (std::uint32_t& b : bounds) b = std::max(b, std::uint32_t{1});
  return w.to_original(bounds);
}

std::uint32_t interference_number(const graph::Graph& g,
                                  const topo::Deployment& d,
                                  const InterferenceModel& m) {
  std::uint32_t best = 0;
  for (const std::uint32_t s : interference_set_sizes(g, d, m))
    best = std::max(best, s);
  return best;
}

std::vector<bool> failed_transmissions(std::span<const graph::EdgeId> chosen,
                                       const graph::Graph& g,
                                       const topo::Deployment& d,
                                       const InterferenceModel& m) {
  std::vector<bool> failed(chosen.size(), false);
  // Chosen sets are small (one per hexagon / per activation round), so the
  // quadratic pass is the right tool; the grid machinery above is for the
  // static whole-topology sets.
  for (std::size_t i = 0; i < chosen.size(); ++i) {
    const graph::Edge& ei = g.edge(chosen[i]);
    const geom::Vec2 yi1 = d.positions[ei.u], yi2 = d.positions[ei.v];
    for (std::size_t j = 0; j < chosen.size(); ++j) {
      if (i == j) continue;
      const graph::Edge& ej = g.edge(chosen[j]);
      if (m.interferes(d.positions[ej.u], d.positions[ej.v], yi1, yi2)) {
        failed[i] = true;
        break;
      }
    }
  }
  return failed;
}

}  // namespace thetanet::interf
