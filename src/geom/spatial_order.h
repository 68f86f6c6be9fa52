#pragma once
// Morton-sorted view of a point set plus the id-remap layer. Construction
// kernels iterate nodes (and build their SpatialGrid) in this order so that
// neighbouring nodes — which a grid scan visits together — are adjacent in
// memory; every *output* (edges, sector tables, checksums, telemetry) is
// produced under original ids, so the reorder is invisible outside the
// kernel:
//
//   SpatialOrder ord(d.positions);
//   geom::SpatialGrid grid(ord.points(), r);   // grid over sorted points
//   ... iterate sorted index s, map ord.to_orig(s) for ties & outputs ...
//
// Determinism contract: the permutation is a pure function of the point set
// (Morton key, then original id on lattice ties) — independent of thread
// count. Coordinates are *copied bit-identically*, so any arithmetic a
// kernel performs on sorted-order points matches the original-order value
// exactly, and outputs canonicalized to original-id order are bit-identical
// with the ordering ON or OFF (tests/topology/spatial_order_test.cpp holds
// this property across TN_NUM_THREADS and the TN_MORTON toggle).
//
// TN_MORTON=0 (or set_spatial_order_enabled(false)) disables the reorder:
// the permutation degenerates to the identity and kernels behave exactly as
// the pre-reorder layout, which is the baseline the property tests compare
// against.

#include <cstdint>
#include <span>
#include <vector>

#include "geom/vec2.h"

namespace thetanet::geom {

/// Process-wide toggle, initialized from TN_MORTON (default on; "0", "off",
/// or "false" disable). Not thread-safe against concurrent kernel launches —
/// flip it between constructions, as the tests do.
bool spatial_order_enabled();
void set_spatial_order_enabled(bool enabled);

class SpatialOrder {
 public:
  /// Build the Morton permutation over `positions` (identity permutation
  /// when the toggle is off). Copies the coordinates into sorted order; the
  /// source span is not referenced afterwards.
  explicit SpatialOrder(std::span<const Vec2> positions);

  std::size_t size() const { return points_.size(); }

  /// The reordered coordinates: points()[s] == positions[to_orig(s)],
  /// bit-identical. Build grids and iterate over this span.
  std::span<const Vec2> points() const { return points_; }

  /// Sorted index -> original id.
  std::uint32_t to_orig(std::uint32_t sorted_id) const {
    return to_orig_[sorted_id];
  }

  /// Original id -> sorted index.
  std::uint32_t to_sorted(std::uint32_t orig_id) const {
    return to_sorted_[orig_id];
  }

  /// True when the permutation is the identity (toggle off or trivial n).
  bool identity() const { return identity_; }

 private:
  std::vector<Vec2> points_;
  std::vector<std::uint32_t> to_orig_;
  std::vector<std::uint32_t> to_sorted_;
  bool identity_ = true;
};

}  // namespace thetanet::geom
