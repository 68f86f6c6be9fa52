#pragma once
// LSD radix sort for 64-bit keys. The construction kernels sort packed
// (u, v) edge keys and per-set interference lists whose sizes reach 10^7 at
// the million-node scale; std::sort's comparison overhead dominates there,
// while an 8-bit-per-pass counting sort is a handful of linear scans. All
// eight histograms are filled in ONE pass over the input (the scan is
// memory-bound; the extra shifts are free), and passes whose byte is
// constant across all keys are skipped — for keys packing two node ids
// below 2^25 that drops 8 passes to ~6.
//
// The caller supplies the staging buffer (at least the input's length),
// so a caller that sorts repeatedly can reuse one buffer. The sort is not
// stable ACROSS equal keys' original order — callers here only ever sort
// unique keys or accept any order of duplicates.

#include <array>
#include <cstddef>
#include <cstdint>
#include <cstring>
#include <span>

#include "common/assert.h"

namespace thetanet::tn {

inline void radix_sort_u64(std::span<std::uint64_t> keys,
                           std::span<std::uint64_t> scratch) {
  const std::size_t n = keys.size();
  if (n < 2) return;
  TN_ASSERT_MSG(scratch.size() >= n, "radix staging buffer too small");
  TN_DCHECK(n <= 0xffffffffu);

  std::array<std::array<std::uint32_t, 256>, 8> hist{};
  for (std::size_t i = 0; i < n; ++i) {
    const std::uint64_t k = keys[i];
    for (std::size_t p = 0; p < 8; ++p)
      ++hist[p][(k >> (8 * p)) & 0xffu];
  }

  std::uint64_t* src = keys.data();
  std::uint64_t* dst = scratch.data();
  for (std::size_t p = 0; p < 8; ++p) {
    std::array<std::uint32_t, 256>& h = hist[p];
    // A pass whose byte is constant over all keys is the identity.
    if (h[(src[0] >> (8 * p)) & 0xffu] == n) continue;
    std::uint32_t sum = 0;
    for (std::uint32_t& c : h) {
      const std::uint32_t count = c;
      c = sum;
      sum += count;
    }
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t k = src[i];
      dst[h[(k >> (8 * p)) & 0xffu]++] = k;
    }
    std::swap(src, dst);
  }
  if (src != keys.data()) std::memcpy(keys.data(), src, n * sizeof(keys[0]));
}

}  // namespace thetanet::tn
