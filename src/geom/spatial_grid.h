#pragma once
// Uniform-grid spatial index over a fixed point set. This is the workhorse
// for local neighbour discovery: transmission-graph construction (all nodes
// within range D), interference-set computation (nodes within (1+Delta)r),
// and Poisson-disk generation. Queries are O(points in the queried disk)
// when the cell size matches the query radius.
//
// The visitor entry points (`for_each_within`, `for_each_within_until`,
// `for_each_within_two`) are header-only templates: the visitor is inlined
// into the cell scan, with no std::function construction and no indirect
// call per point.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "geom/bbox.h"
#include "geom/vec2.h"
#include "obs/metrics.h"

namespace thetanet::geom {

class SpatialGrid {
 public:
  using NodeId = std::uint32_t;

  /// Build over `points` with the given cell size (typically the dominant
  /// query radius). Points are referenced by index; the caller keeps them
  /// alive for the lifetime of the grid. The cell size is grown as needed
  /// to keep the total cell count O(points): a tiny requested cell over a
  /// wide bounding box (degenerate inputs — one far outlier among
  /// near-coincident nodes) must not allocate an unbounded table.
  SpatialGrid(std::span<const Vec2> points, double cell_size);

  std::size_t size() const { return points_.size(); }

  /// The indexed point with the given id (ids are positions in the input
  /// span). Lets visitors reuse the coordinates the scan just compared
  /// against instead of re-reading the caller's point array.
  Vec2 point(NodeId id) const { return points_[id]; }

  /// Effective cell size — `>= ` the requested one when the cap kicked in.
  double cell_size() const { return cell_; }

  /// Ids of all points p with |p - center| <= radius, optionally excluding
  /// one id (a node never neighbours itself). Sorted ascending.
  std::vector<NodeId> within(Vec2 center, double radius,
                             NodeId exclude = kNone) const;

  /// Visit ids within radius without allocating. Fast path: the visitor is
  /// inlined into the scan, and coordinates come from the cell-ordered
  /// xs_/ys_ copies — a forward stream per cell, no indirection through the
  /// caller's point array. Enumeration order is cell-major (row by row),
  /// ascending id within a cell — callers needing a canonical order sort.
  /// A visitor invocable as `visit(id, d2)` additionally receives the
  /// squared distance the prefilter just computed (same value, same bits,
  /// as dist_sq(point(id), center)); `visit(id, d2, p)` also gets the
  /// point's coordinates (the scan just streamed them — callers that need
  /// them, like the sector classifier, skip a gather from their own point
  /// array). A plain `visit(id)` works unchanged.
  template <typename Visitor>
  void for_each_within(Vec2 center, double radius, Visitor&& visit) const {
    if (points_.empty()) return;
    const double r2 = radius * radius;
    const Extent e = extent_of(center, radius);
    std::uint64_t examined = 0;
    std::uint64_t hits = 0;
    for (std::int32_t cy = e.y_lo; cy <= e.y_hi; ++cy) {
      for (std::int32_t cx = e.x_lo; cx <= e.x_hi; ++cx) {
        const std::size_t c = cell_index(cx, cy);
        // Tally per cell, not per point: every point in the cell gets
        // distance-tested, and keeping the counter out of the inner loop
        // keeps the scan as tight as the uninstrumented one.
        examined += starts_[c + 1] - starts_[c];
        for (std::uint32_t k = starts_[c]; k < starts_[c + 1]; ++k) {
          const Vec2 p{xs_[k], ys_[k]};
          const double d2 = dist_sq(p, center);
          if (d2 <= r2) {
            ++hits;
            if constexpr (std::is_invocable_v<Visitor&, NodeId, double, Vec2>)
              visit(ids_[k], d2, p);
            else if constexpr (std::is_invocable_v<Visitor&, NodeId, double>)
              visit(ids_[k], d2);
            else
              visit(ids_[k]);
          }
        }
      }
    }
    record_scan(e, examined, hits);
  }

  /// Visit ids within `radius` of either center, each exactly once, in a
  /// single scan over the union of the two cell extents. The two disks of
  /// one interference query share most of their area (centers one edge
  /// length apart, radius a small multiple of it); two separate
  /// for_each_within calls would load the shared cells — the bulk of the
  /// scan — twice and force the caller to dedup. Same closed-disk
  /// prefilter and cell-major order as for_each_within. The visitor
  /// receives `(id, d1_sq, d2_sq)` — the squared distances to both
  /// centers the prefilter just computed — so callers refining with a
  /// different predicate (e.g. the open disk) pay no second distance
  /// evaluation.
  template <typename Visitor>
  void for_each_within_two(Vec2 c1, Vec2 c2, double radius,
                           Visitor&& visit) const {
    if (points_.empty()) return;
    const double r2 = radius * radius;
    const Extent e1 = extent_of(c1, radius);
    const Extent e2 = extent_of(c2, radius);
    const Extent e{std::min(e1.x_lo, e2.x_lo), std::max(e1.x_hi, e2.x_hi),
                   std::min(e1.y_lo, e2.y_lo), std::max(e1.y_hi, e2.y_hi)};
    std::uint64_t examined = 0;
    std::uint64_t hits = 0;
    for (std::int32_t cy = e.y_lo; cy <= e.y_hi; ++cy) {
      for (std::int32_t cx = e.x_lo; cx <= e.x_hi; ++cx) {
        const std::size_t c = cell_index(cx, cy);
        examined += starts_[c + 1] - starts_[c];  // per cell, see above
        for (std::uint32_t k = starts_[c]; k < starts_[c + 1]; ++k) {
          const Vec2 p{xs_[k], ys_[k]};
          const double d1 = dist_sq(p, c1);
          const double d2 = dist_sq(p, c2);
          if (d1 <= r2 || d2 <= r2) {
            ++hits;
            visit(ids_[k], d1, d2);
          }
        }
      }
    }
    record_scan(e, examined, hits);
  }

  /// As for_each_within, but the visitor returns false to stop the scan
  /// early (emptiness tests stop at the first witness instead of finishing
  /// the disk). Returns true iff the scan ran to completion.
  template <typename Visitor>
  bool for_each_within_until(Vec2 center, double radius,
                             Visitor&& visit) const {
    if (points_.empty()) return true;
    const double r2 = radius * radius;
    const Extent e = extent_of(center, radius);
    std::uint64_t examined = 0;
    std::uint64_t hits = 0;
    for (std::int32_t cy = e.y_lo; cy <= e.y_hi; ++cy) {
      for (std::int32_t cx = e.x_lo; cx <= e.x_hi; ++cx) {
        const std::size_t c = cell_index(cx, cy);
        for (std::uint32_t k = starts_[c]; k < starts_[c + 1]; ++k) {
          if (dist_sq({xs_[k], ys_[k]}, center) <= r2) {
            ++hits;
            if (!visit(ids_[k])) {
              // Early exit mid-cell: completed cells plus the slice of this
              // one up to and including the witness.
              record_scan(e, examined + (k - starts_[c] + 1), hits);
              return false;
            }
          }
        }
        examined += starts_[c + 1] - starts_[c];
      }
    }
    record_scan(e, examined, hits);
    return true;
  }

  static constexpr NodeId kNone = static_cast<NodeId>(-1);

 private:
  struct CellCoord {
    std::int32_t cx;
    std::int32_t cy;
  };
  struct Extent {
    std::int32_t x_lo, x_hi, y_lo, y_hi;
  };
  CellCoord cell_of(Vec2 p) const;
  std::size_t cell_index(std::int32_t cx, std::int32_t cy) const;

  Extent extent_of(Vec2 center, double radius) const {
    const auto span = static_cast<std::int32_t>(std::ceil(radius / cell_));
    const CellCoord c0 = cell_of(center);
    return {std::max(0, c0.cx - span), std::min(nx_ - 1, c0.cx + span),
            std::max(0, c0.cy - span), std::min(ny_ - 1, c0.cy + span)};
  }

  // Scan instrumentation: one registry update per *query* (never per
  // point — the local tallies above flush here once) so benchmarks and
  // tests can read over-scan: points_examined / reported >> 1 means the
  // cell size does not match the query radius. Each query's tallies depend
  // only on the query itself (cell-major scan order is fixed), so all four
  // counters are stable across thread counts.
  void record_scan(const Extent& e, std::uint64_t examined,
                   std::uint64_t reported) const {
    if (!obs::detail::recording()) return;
    const auto cells = static_cast<std::uint64_t>(e.x_hi - e.x_lo + 1) *
                       static_cast<std::uint64_t>(e.y_hi - e.y_lo + 1);
    TN_OBS_COUNT("grid.queries", 1);
    TN_OBS_COUNT("grid.cells_scanned", cells);
    TN_OBS_COUNT("grid.points_examined", examined);
    TN_OBS_COUNT("grid.reported", reported);
  }

  std::span<const Vec2> points_;
  BBox box_;
  double cell_ = 1.0;
  std::int32_t nx_ = 1;
  std::int32_t ny_ = 1;
  // CSR layout: ids of points in cell c occupy starts_[c]..starts_[c+1).
  std::vector<std::uint32_t> starts_;
  std::vector<NodeId> ids_;
  // Coordinates in cell order (xs_[k] = points_[ids_[k]].x): the scan's
  // distance tests stream these arrays forward instead of gathering from
  // points_ by id, which is the difference between one cache line per point
  // and one per *pair of doubles* at large n. Bit-identical copies, so
  // distances match the points_-based values exactly.
  std::vector<double> xs_;
  std::vector<double> ys_;
};

}  // namespace thetanet::geom
