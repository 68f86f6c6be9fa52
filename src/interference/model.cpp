#include "interference/model.h"

#include <algorithm>
#include <bit>
#include <memory>

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
///     (sorted-endpoint, edge-id) keys), so rank-space processing — and the
///     chunk partition built on it — is thread-count independent.
///   * A flat CSR copy of the adjacency, indexed by SORTED node id (the
///     domain the grid reports). Each half carries the incident edge as
///     BOTH labels: its rank (for the stamp probe) and its original id
///     (ownership order and every emitted pair stay in original-id space,
///     so outputs are untouched by the relabeling).
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
/// each candidate partner once as emit(lo, hi, rank, take): lo < hi in
/// ORIGINAL edge ids, rank the Morton rank of the partner, and take 1 iff
/// this source OWNS the unordered pair {i, j} — summed over all sources
/// every owned pair has take == 1 exactly once. The flag is handed to the
/// caller instead of being branched on here: the ownership predicate is
/// data-dependent and unpredictable, and at ~400M candidates per build the
/// mispredict stalls of a branchy emit path cost more than computing four
/// squared distances unconditionally. Callers accumulate branchlessly
/// (`counts[rank] += take`, `len += take`).
///
/// Discovery: two grid disk queries collect the touched nodes (the grid's
/// closed-disk prefilter is refined with the open-disk predicate,
/// dist_sq < r*r, matching geom::in_open_disk bit for bit; the union scan
/// reports each node once), then incident edges are deduplicated into
/// `s.kept` with a byte-epoch stamp over edge RANKS — branchlessly: every
/// half is written to the buffer, and the cursor advances only when the
/// stamp says it is fresh. The source edge is pre-stamped, so no j == i
/// test is needed. Touched node ids live in the sorted (Morton) domain;
/// only ORIGINAL edge ids leave this function in emitted pairs.
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
    const std::uint32_t hi_rank = i < h.orig ? h.rank : src_rank;
    emit(std::min(i, h.orig), std::max(i, h.orig), h.rank, hi_rank,
         static_cast<std::uint32_t>(take));
  }
}

/// Radix-sort `n` keys held in `src` through a digit plan (LSD, stable),
/// using `dst` as the ping-pong buffer. Digits whose histogram says every
/// key shares one value are skipped. Returns the pointer holding the
/// sorted keys (src or dst, depending on how many passes ran).
template <typename Key>
Key* radix_digit_sort(Key* src, Key* dst, std::size_t n,
                      const int* shs, const std::uint32_t* sizes, int nd) {
  // Histogram storage is thread-local and grown once: digits can be up to
  // 16 bits wide (65536 counters), and a stack array of six of those would
  // not fit comfortably.
  static thread_local std::vector<std::uint32_t> hist_buf;
  std::uint32_t off[6];
  std::uint32_t tot = 0;
  for (int d = 0; d < nd; ++d) {
    off[d] = tot;
    tot += sizes[d];
  }
  if (hist_buf.size() < tot) hist_buf.resize(tot);
  std::fill(hist_buf.begin(), hist_buf.begin() + tot, 0u);
  std::uint32_t* hist[6];
  for (int d = 0; d < nd; ++d) hist[d] = hist_buf.data() + off[d];
  for (std::size_t k = 0; k < n; ++k)
    for (int d = 0; d < nd; ++d)
      ++hist[d][(src[k] >> shs[d]) & (sizes[d] - 1)];
  for (int d = 0; d < nd; ++d) {
    std::uint32_t* h = hist[d];
    bool trivial = false;
    for (std::uint32_t v = 0; v < sizes[d]; ++v)
      if (h[v] == n) {
        trivial = true;
        break;
      }
    if (trivial) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t v = 0; v < sizes[d]; ++v) {
      const std::uint32_t c = h[v];
      h[v] = sum;
      sum += c;
    }
    const int sh = shs[d];
    const auto mask = static_cast<Key>(sizes[d] - 1);
    for (std::size_t k = 0; k < n; ++k)
      dst[h[static_cast<std::uint32_t>(src[k] >> sh) & mask]++] = src[k];
    std::swap(src, dst);
  }
  return src;
}

/// Build a digit plan covering [0, ne_bits) and [base2, base2 + shift) of
/// a key, with digits at most `maxw` (<= 16) bits wide. Returns the digit
/// count (<= 6: each field is <= 32 bits wide, so at most 3 digits per
/// field at the narrowest supported maxw of 11).
int plan_digits(int ne_bits, int base2, int shift, int maxw, int* shs,
                std::uint32_t* sizes) {
  int nd = 0;
  auto add = [&](int base, int width) {
    for (int at = 0; at < width; at += maxw) {
      const int w = std::min(maxw, width - at);
      shs[nd] = base + at;
      sizes[nd] = 1u << w;
      ++nd;
    }
  };
  add(0, ne_bits);
  add(base2, shift);
  return nd;
}

/// Sort one bucket of packed (lo << 32) | hi pairs by (lo, hi). Inside a
/// bucket only two bit fields vary — hi's low ne_bits and lo's low `shift`
/// bits (the high bits of lo ARE the bucket id) — so instead of byte-wise
/// LSD over the full word, radix passes run over a digit plan covering
/// exactly those fields (narrow digits, histograms built in one read).
/// Stable LSD over the plan from least to most significant yields the same
/// canonical (lo, hi)-sorted order as a full-key sort.
///
/// When the varying bits fit in 32 (shift + ne_bits <= 32 — true whenever
/// the bucket count can absorb the rest of lo), the bucket is first
/// compacted to u32 keys (lo_low << ne_bits) | hi. (lo_low, hi) ascending
/// IS (lo, hi) ascending within the bucket, and the pair is reconstructed
/// exactly from the key and the bucket id, so the result is bit-identical
/// to the wide path — but every radix pass moves half the bytes and packs
/// twice the keys per cache line.
void sort_bucket(std::span<std::uint64_t> a, std::span<std::uint64_t> tmp,
                 std::uint64_t bucket_base, int ne_bits, int shift) {
  const std::size_t n = a.size();
  int shs[6];
  std::uint32_t sizes[6];
  if (ne_bits + shift <= 32 && ne_bits < 32) {
    // tmp holds n u64s == 2n u32s: the two compact ping-pong buffers.
    auto* c0 = reinterpret_cast<std::uint32_t*>(tmp.data());
    std::uint32_t* c1 = c0 + n;
    const std::uint32_t himask = (1u << ne_bits) - 1u;
    const std::uint32_t lomask =
        (shift < 32 ? (1u << shift) : 0u) - 1u;
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint64_t p = a[k];
      c0[k] = (static_cast<std::uint32_t>(p >> 32) << ne_bits) |
              (static_cast<std::uint32_t>(p) & himask);
    }
    // 16-bit digits: the <= 32 varying bits sort in at most two scatter
    // passes, and the 64K-counter histograms stay cheap because every
    // bucket is sized to be cache-resident anyway.
    const int nd = plan_digits(ne_bits, ne_bits, shift, 16, shs, sizes);
    const std::uint32_t* s = radix_digit_sort(c0, c1, n, shs, sizes, nd);
    for (std::size_t k = 0; k < n; ++k) {
      const std::uint32_t ck = s[k];
      a[k] = bucket_base |
             (std::uint64_t{(ck >> ne_bits) & lomask} << 32) | (ck & himask);
    }
    return;
  }
  const int nd = plan_digits(ne_bits, 32, shift, 12, shs, sizes);
  std::uint64_t* s = radix_digit_sort(a.data(), tmp.data(), n, shs, sizes, nd);
  if (s != a.data()) std::copy(s, s + n, a.data());
}

}  // namespace

std::vector<std::uint32_t> interference_set_sizes(const graph::Graph& g,
                                                  const topo::Deployment& d,
                                                  const InterferenceModel& m) {
  // Count-only path: no pair list is materialized and nothing is globally
  // sorted. Each chunk accumulates a uint32 counter array (both endpoints
  // of every owned pair), and chunk partials merge elementwise in ascending
  // chunk order — integer addition, so the result is bit-identical for any
  // thread count and equals the pair-list degree exactly.
  const std::size_t ne = g.num_edges();
  if (ne == 0) return {};
  TN_OBS_SPAN("interference.set_sizes");
  const geom::SpatialOrder ord(d.positions);
  const KernelContext kc(g, d, m, ord);
  const geom::SpatialGrid grid(ord.points(), guard_query_cell(g, m));
  // Auto grain (~8 chunks per thread): every chunk holds a full E-sized
  // counter array until the fold, so the chunk count — not the chunk size —
  // bounds the transient memory. Tallies accumulate by edge RANK — the
  // partner rank rides along on every emission, so both increments stay in
  // the cache-resident rank window — and one permute at the end moves the
  // finished array to original-id order.
  std::vector<std::uint32_t> by_rank = tn::parallel_reduce(
      ne, 0, std::vector<std::uint32_t>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint32_t> counts(ne, 0);
        DiscoveryScratch& s = DiscoveryScratch::local();
        s.ensure(ne);
        std::uint64_t pairs = 0;  // flushed once per chunk, never per pair
        for (std::size_t k = begin; k < end; ++k) {
          // Every owned pair involves the source: bank its side of the
          // tally in a register and pay only ONE scattered increment per
          // pair (the partner's).
          std::uint32_t mine = 0;
          const std::size_t cnt =
              discover_candidates(kc, grid, static_cast<std::uint32_t>(k), s);
          emit_owned_pairs(kc, static_cast<std::uint32_t>(k), s, cnt,
                           [&](graph::EdgeId, graph::EdgeId,
                               std::uint32_t partner_rank, std::uint32_t,
                               std::uint32_t take) {
                             counts[partner_rank] += take;
                             mine += take;
                           });
          counts[k] += mine;
          pairs += mine;
        }
        TN_OBS_COUNT("interference.pairs", pairs);
        return counts;
      },
      [](std::vector<std::uint32_t> acc, std::vector<std::uint32_t> part) {
        if (acc.empty()) return part;
        for (std::size_t k = 0; k < acc.size(); ++k) acc[k] += part[k];
        return acc;
      });
  std::vector<std::uint32_t> out(ne);
  for (std::size_t k = 0; k < ne; ++k) out[kc.order[k]] = by_rank[k];
  return out;
}

std::vector<std::vector<graph::EdgeId>> interference_sets(
    const graph::Graph& g, const topo::Deployment& d,
    const InterferenceModel& m) {
  const std::size_t ne = g.num_edges();
  std::vector<std::vector<graph::EdgeId>> sets(ne);
  if (ne == 0) return sets;
  TN_OBS_SPAN("interference.sets");
  const geom::SpatialOrder ord(d.positions);
  const KernelContext kc(g, d, m, ord);
  const geom::SpatialGrid grid(ord.points(), guard_query_cell(g, m));
  // All unordered interfering pairs {e, e'}, packed (lo << 32) | hi, as a
  // LIST OF PER-CHUNK VECTORS in chunk order (fixed grain => the chunking,
  // and hence the order, is independent of the pool size). The combine
  // only moves chunk vectors — flattening 8 bytes/pair through the fold
  // would memcpy hundreds of MB twice. The ownership rule makes emissions
  // unique. The per-edge tallies the materialization needs (set sizes and
  // front widths) ride along in rank space: incrementing them here costs
  // almost nothing because the ranks are cache-window local during the
  // walk, whereas a separate counting pass over the finished pair list
  // would pay a random multi-MB access per pair. Elementwise integer adds
  // in the fold keep the totals chunk-order independent.
  // Pair storage is a raw uninitialized block, not a vector: vector::resize
  // value-initializes the grown region, and at ~400M emitted pairs that is
  // gigabytes of zero-stores immediately overwritten by the packed pairs.
  // The block grows geometrically (copying only the live prefix) and every
  // slot below `len` is written before it is read.
  struct PairBlock {
    std::unique_ptr<std::uint64_t[]> data;
    std::size_t len = 0;
    std::size_t cap = 0;
    void grow(std::size_t need) {
      std::size_t ncap = std::max(need, 2 * cap);
      std::unique_ptr<std::uint64_t[]> nd(new std::uint64_t[ncap]);
      tn::advise_huge(nd.get(), ncap * sizeof(std::uint64_t));
      std::copy(data.get(), data.get() + len, nd.get());
      data = std::move(nd);
      cap = ncap;
    }
  };
  struct Discovered {
    std::vector<PairBlock> parts;
    std::vector<std::uint32_t> counts;  // set sizes, by rank
    std::vector<std::uint32_t> front;   // pairs where the edge is hi, by rank
  };
  // Grain 16384 (fixed => chunk-count independent of the pool size): each
  // chunk carries two E-sized tally arrays, so fewer chunks means less
  // zero-fill and a shorter merge chain, at grain sizes still fine-grained
  // enough to balance 16 threads on six-figure edge counts.
  Discovered dis = tn::parallel_reduce(
      ne, 16384, Discovered{},
      [&](std::size_t begin, std::size_t end) {
        Discovered one;
        one.parts.resize(1);
        PairBlock& out = one.parts.front();
        one.counts.assign(ne, 0);
        one.front.assign(ne, 0);
        std::uint32_t* counts = one.counts.data();
        std::uint32_t* front = one.front.data();
        // Mean |I(e)| on dense instances runs in the hundreds; a generous
        // initial block avoids the chain of doubling growths (each one a
        // multi-MB copy). Overshoot is transient address space, not
        // touched pages.
        out.grow((end - begin) * 512 + 64);
        DiscoveryScratch& s = DiscoveryScratch::local();
        s.ensure(ne);
        for (std::size_t k = begin; k < end; ++k) {
          // Branchless append: candidates outnumber owned pairs ~1.4:1
          // and the ownership flag is unpredictable, so always write the
          // packed pair and advance the length only when it is owned. The
          // candidate count is known before emission, so one capacity
          // check per source replaces a branchy push_back per candidate.
          const std::size_t cnt =
              discover_candidates(kc, grid, static_cast<std::uint32_t>(k), s);
          if (out.len + cnt > out.cap) out.grow(out.len + cnt);
          std::uint64_t* raw = out.data.get();
          std::size_t len = out.len;
          std::uint32_t mine = 0;
          emit_owned_pairs(kc, static_cast<std::uint32_t>(k), s, cnt,
                           [&](graph::EdgeId lo, graph::EdgeId hi,
                               std::uint32_t partner_rank,
                               std::uint32_t hi_rank, std::uint32_t take) {
                             raw[len] =
                                 (static_cast<std::uint64_t>(lo) << 32) | hi;
                             len += take;
                             counts[partner_rank] += take;
                             front[hi_rank] += take;
                             mine += take;
                           });
          counts[k] += mine;
          out.len = len;
        }
        TN_OBS_COUNT("interference.pairs", out.len);
        return one;
      },
      [](Discovered acc, Discovered part) {
        if (acc.counts.empty()) return part;
        for (auto& v : part.parts) acc.parts.push_back(std::move(v));
        for (std::size_t k = 0; k < acc.counts.size(); ++k) {
          acc.counts[k] += part.counts[k];
          acc.front[k] += part.front[k];
        }
        return acc;
      });
  std::vector<PairBlock> parts = std::move(dis.parts);
  // Materialization: sort the packed pairs by (lo, hi), then one streaming
  // scatter that leaves every set ALREADY sorted — no per-set sort at all.
  // Streaming pairs in ascending (lo, hi) order means (a) for a fixed lo,
  // partners hi arrive ascending, so appends to the tail region of set lo
  // land sorted; (b) for a fixed hi, partners lo arrive ascending, so
  // appends to the front region of set hi land sorted; and front entries
  // (< e) precede tail entries (> e), so the concatenation is the
  // ascending set. The sorted pair list is canonical — independent of
  // chunking, emission order, and thread count — so the result is
  // bit-identical by construction.
  //
  // The sort itself is bucket-then-radix rather than one global LSD pass
  // chain: a flat radix sort streams the full multi-GB pair array once per
  // digit, which at 283M+ pairs is the single largest cost in the kernel.
  // Instead, one streaming pass scatters pairs into buckets by the high
  // bits of lo (a monotone prefix, so bucket-major order IS lo-major
  // order), sized so a bucket's pairs sit in ~2 MB of cache, and each
  // bucket then radix-sorts entirely in cache (the constant high bytes are
  // skipped by the sorter's histogram check). Buckets are independent and
  // their sorted contents canonical, so the parallel per-bucket pass keeps
  // the bit-identity argument intact. The pair buffers are allocated per
  // call and freed on return: at 10^6 nodes they run to tens of GB and
  // must go back to the OS when the kernel returns.
  std::size_t np = 0;
  for (const PairBlock& part : parts) np += part.len;
  const int ne_bits = static_cast<int>(std::bit_width(ne - 1));
  int log2nb = 0;
  while (log2nb < 12 && (np >> log2nb) > 262144) ++log2nb;
  const int shift = ne_bits > log2nb ? ne_bits - log2nb : 0;
  const std::size_t nb = ((ne - 1) >> shift) + 1;
  // Per-edge set sizes and front widths (the number of partners below e,
  // placing each set's tail cursor) were tallied during discovery in rank
  // space; two permutes move them to original-id order. The bucket
  // histogram follows from them without reading any pairs: edge e appears
  // as lo in exactly sizes[e] - front[e] pairs, all in bucket e >> shift.
  std::vector<std::uint32_t> sizes(ne);
  std::vector<std::uint32_t> front(ne);
  for (std::size_t k = 0; k < ne; ++k) {
    const graph::EdgeId e = kc.order[k];
    sizes[e] = dis.counts[k];
    front[e] = dis.front[k];
  }
  dis.counts = {};
  dis.front = {};
  std::vector<std::uint64_t> boff(nb + 1, 0);
  for (std::size_t e = 0; e < ne; ++e)
    boff[(e >> shift) + 1] += sizes[e] - front[e];
  for (std::size_t b = 0; b < nb; ++b) boff[b + 1] += boff[b];
  // Pass 2: scatter pairs into their bucket regions, freeing each chunk
  // part as it drains so peak memory stays ~one pair array, not two. The
  // destination is uninitialized on purpose — the bucket cursors cover
  // [0, np) exactly (their spans partition it and each pair lands in its
  // own slot), so every element is written before any later pass reads
  // it, and a value-initializing vector would just zero multiple GB for
  // nothing. Huge pages soften the scatter's dTLB cost.
  std::unique_ptr<std::uint64_t[]> bucketed(new std::uint64_t[np]);
  tn::advise_huge(bucketed.get(), np * sizeof(std::uint64_t));
  {
    std::vector<std::uint64_t> bcur(boff.begin(), boff.end() - 1);
    for (PairBlock& part : parts) {
      const std::uint64_t* const pend = part.data.get() + part.len;
      for (const std::uint64_t* pp = part.data.get(); pp != pend; ++pp)
        bucketed[bcur[*pp >> (32 + shift)]++] = *pp;
      part = {};
    }
  }
  parts.clear();
  // Pass 3: cache-resident sort of each bucket, in parallel, with radix
  // passes only over the bits that actually vary inside a bucket.
  // The staging buffer is thread-local and grows to the largest bucket the
  // thread has sorted (a few MB), like radix_digit_sort's histograms.
  tn::parallel_for(nb, 1, [&](std::size_t begin, std::size_t end) {
    static thread_local std::vector<std::uint64_t> staging;
    for (std::size_t b = begin; b < end; ++b) {
      const std::size_t len = boff[b + 1] - boff[b];
      if (len < 2) continue;
      if (staging.size() < len) staging.resize(len);
      sort_bucket(std::span<std::uint64_t>(bucketed.get() + boff[b], len),
                  std::span<std::uint64_t>(staging.data(), len),
                  std::uint64_t{b} << (32 + shift), ne_bits, shift);
    }
  });
  // Pass 4: allocate the sets and scatter both directions straight into
  // them — set-local cursors, no intermediate flat array to copy out of.
  tn::parallel_for(ne, 4096, [&](std::size_t begin, std::size_t end) {
    for (std::size_t e = begin; e < end; ++e) sets[e].resize(sizes[e]);
  });
  {
    std::vector<graph::EdgeId*> base(ne);
    for (std::size_t e = 0; e < ne; ++e) base[e] = sets[e].data();
    std::vector<std::uint32_t> cur(ne, 0);  // walks the front region
    std::vector<std::uint32_t>& tail = front;  // continues past it
    const std::uint64_t* const bend = bucketed.get() + np;
    for (const std::uint64_t* pp = bucketed.get(); pp != bend; ++pp) {
      const std::uint64_t p = *pp;
      const auto lo = static_cast<graph::EdgeId>(p >> 32);
      const auto hi = static_cast<graph::EdgeId>(p & 0xffffffffu);
      base[lo][tail[lo]++] = hi;
      base[hi][cur[hi]++] = lo;
    }
  }
  return sets;
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
