// Uniform spatial hash over the simulation field for O(1)-expected
// radius queries. The network layer rebuilds it from a position snapshot
// whenever node positions may have moved (cheap: one pass over nodes), then
// answers "who can hear this broadcast" queries against it.
//
// Points are binned by clamping into the field, floor-dividing by the cell
// size and capping at the last column / row; cells are numbered row-major.
// The index stores a copy of the points in that cell order (CSR), so the
// cells col_lo..col_hi of one row are one contiguous span and a query scans
// one span per row.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "geom/rect.h"
#include "geom/vec2.h"

namespace manet::geom {

class GridIndex {
 public:
  /// `cell_size` should be on the order of the typical query radius.
  GridIndex(Rect field, double cell_size);

  /// Replaces the indexed point set. Points outside the field are clamped
  /// into it for binning purposes (their true coordinates are kept for the
  /// distance test).
  void rebuild(std::span<const Vec2> points);

  /// Fast path for a moved-but-not-rebinned point set: when every point
  /// still maps to the cell it is currently indexed under, updates the
  /// stored exact positions in place (the CSR layout stays valid) and
  /// returns true. Returns false — leaving the index untouched — when the
  /// point count or any cell assignment changed; callers then rebuild().
  bool update_positions(std::span<const Vec2> points);

  std::size_t size() const { return order_.size(); }

  /// Appends the indices of all points within `radius` of `center`
  /// (inclusive) to `out`. The queried set may include the querying point
  /// itself if it is in the index; callers filter by index. Hits come in a
  /// fixed order — row-major by cell, then ascending index within a cell —
  /// which callers that draw randomness per candidate rely on.
  void query_radius(Vec2 center, double radius,
                    std::vector<std::size_t>& out) const;

  /// Convenience wrapper returning a fresh vector.
  std::vector<std::size_t> query_radius(Vec2 center, double radius) const;

  /// Brute-force reference implementation, used by tests to validate the
  /// grid and by callers with tiny point sets.
  static std::vector<std::size_t> brute_force(std::span<const Vec2> points,
                                              Vec2 center, double radius);

 private:
  std::size_t cell_of(Vec2 p) const;

  Rect field_;
  double cell_size_;
  std::size_t cols_;
  std::size_t rows_;
  // CSR-style layout: slots cell_start_[c]..cell_start_[c+1] hold cell c's
  // points; order_[k] is slot k's point index, sorted_[k] its position.
  std::vector<std::size_t> cell_start_;
  std::vector<std::size_t> order_;
  std::vector<Vec2> sorted_;
  std::vector<std::size_t> cell_;    // each point's cell, by point index
  std::vector<std::size_t> cursor_;  // rebuild scratch (capacity reused)
};

}  // namespace manet::geom
