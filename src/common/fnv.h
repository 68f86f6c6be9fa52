#pragma once
// Rolling FNV-1a over 64-bit words, byte by byte: the planned-tx checksum of
// the soak, its watchdog and bench_router, and bench_kernels' checksums.

#include <cstdint>
#include <cstring>
#include <vector>

namespace thetanet::tn {

struct Fnv {
  std::uint64_t h = 1469598103934665603ull;
  void mix(std::uint64_t x) {
    for (int i = 0; i < 8; ++i) {
      h ^= (x >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits = 0;
    static_assert(sizeof bits == sizeof d);
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

/// One round's plan: its size, then each tx's (edge, from, dest, benefit).
template <typename Tx>
void mix_txs(Fnv& f, const std::vector<Tx>& txs) {
  f.mix(txs.size());
  for (const Tx& tx : txs) {
    f.mix(tx.edge);
    f.mix(tx.from);
    f.mix(tx.dest);
    f.mix_double(tx.benefit);
  }
}

}  // namespace thetanet::tn
