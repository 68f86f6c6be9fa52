#include "topology/transmission_graph.h"

#include <algorithm>

#include "common/parallel.h"
#include "common/radix.h"
#include "geom/spatial_grid.h"
#include "geom/spatial_order.h"

namespace thetanet::topo {

graph::Graph build_transmission_graph(const Deployment& d) {
  const std::size_t n = d.size();
  if (n < 2) return graph::Graph(n);
  // Morton-ordered discovery: grid and query loop both run over the Z-order
  // permutation, so consecutive queries scan adjacent (cached) cells. Each
  // unordered pair is discovered exactly twice — once from each endpoint —
  // and `vs > si` in the SORTED domain keeps exactly one copy, whichever
  // endpoint sorts first. Pairs are packed as (min << 32 | max) in ORIGINAL
  // ids; the pair SET is permutation-independent, so the global sort below
  // re-derives the exact (u, v)-lexicographic edge order the identity
  // ordering produces.
  const geom::SpatialOrder ord(d.positions);
  const geom::SpatialGrid grid(ord.points(), d.max_range);
  // Grain 0 (auto, about 32 chunks): a fixed fine grain paid one
  // partial-vector allocation + merge per 256 nodes, which at mid n ate the
  // parallel win. The pair set is dedup'd and radix-sorted below, so the
  // output is independent of the chunking (and thus of the thread count).
  std::vector<std::uint64_t> packed = tn::parallel_reduce(
      n, 0, std::vector<std::uint64_t>{},
      [&](std::size_t begin, std::size_t end) {
        std::vector<std::uint64_t> out;
        for (std::size_t si = begin; si < end; ++si) {
          const graph::NodeId u = ord.to_orig(static_cast<std::uint32_t>(si));
          grid.for_each_within(ord.points()[si], d.max_range,
                               [&](std::uint32_t vs) {
                                 if (vs <= si) return;
                                 const graph::NodeId v = ord.to_orig(vs);
                                 const auto [a, b] = std::minmax(u, v);
                                 out.push_back((std::uint64_t{a} << 32) | b);
                               });
        }
        return out;
      },
      [](std::vector<std::uint64_t> acc, std::vector<std::uint64_t> part) {
        acc.insert(acc.end(), part.begin(), part.end());
        return acc;
      });
  {
    // Keys are unique (one copy per pair), so the radix sort yields the
    // unique ascending order — no dedup pass needed.
    std::vector<std::uint64_t> staging(packed.size());
    tn::radix_sort_u64(packed, staging);
  }
  graph::GraphBuilder b(n);
  b.reserve_edges(packed.size());
  for (const std::uint64_t key : packed) {
    const auto u = static_cast<graph::NodeId>(key >> 32);
    const auto v = static_cast<graph::NodeId>(key & 0xffffffffu);
    const double len = d.distance(u, v);
    b.add_edge(u, v, len, d.cost_of_length(len));
  }
  return std::move(b).build();
}

}  // namespace thetanet::topo
