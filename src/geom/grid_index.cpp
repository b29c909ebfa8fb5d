#include "geom/grid_index.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace manet::geom {

GridIndex::GridIndex(Rect field, double cell_size)
    : field_(field), cell_size_(cell_size) {
  MANET_CHECK(cell_size > 0.0, "cell_size=" << cell_size);
  cols_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(field.width / cell_size)));
  rows_ = std::max<std::size_t>(
      1, static_cast<std::size_t>(std::ceil(field.height / cell_size)));
  cell_start_.assign(cols_ * rows_ + 1, 0);
}

std::size_t GridIndex::cell_of(Vec2 p) const {
  const Vec2 c = field_.clamp(p);
  auto col = static_cast<std::size_t>(c.x / cell_size_);
  auto row = static_cast<std::size_t>(c.y / cell_size_);
  col = std::min(col, cols_ - 1);
  row = std::min(row, rows_ - 1);
  return row * cols_ + col;
}

void GridIndex::rebuild(std::span<const Vec2> points) {
  const std::size_t n = points.size();
  const std::size_t cells = cols_ * rows_;
  cell_.resize(n);
  cell_start_.assign(cells + 1, 0);
  // Counting sort of point indices into cells: ascending index within a
  // cell, which fixes the order queries report hits in.
  for (std::size_t i = 0; i < n; ++i) {
    cell_[i] = cell_of(points[i]);
    ++cell_start_[cell_[i] + 1];
  }
  for (std::size_t c = 0; c < cells; ++c) {
    cell_start_[c + 1] += cell_start_[c];
  }
  order_.resize(n);
  sorted_.resize(n);
  cursor_.assign(cell_start_.begin(), cell_start_.end() - 1);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t k = cursor_[cell_[i]]++;
    order_[k] = i;
    sorted_[k] = points[i];
  }
}

bool GridIndex::update_positions(std::span<const Vec2> points) {
  if (points.size() != order_.size()) {
    return false;
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (cell_of(points[i]) != cell_[i]) {
      return false;
    }
  }
  for (std::size_t k = 0; k < order_.size(); ++k) {
    sorted_[k] = points[order_[k]];
  }
  return true;
}

void GridIndex::query_radius(Vec2 center, double radius,
                             std::vector<std::size_t>& out) const {
  MANET_CHECK(radius >= 0.0, "radius=" << radius);
  const Vec2 c = field_.clamp(center);
  const double r2 = radius * radius;
  const auto col_lo = static_cast<std::size_t>(
      std::max(0.0, std::floor((c.x - radius) / cell_size_)));
  const auto col_hi = std::min(
      cols_ - 1,
      static_cast<std::size_t>(std::max(0.0, (c.x + radius) / cell_size_)));
  const auto row_lo = static_cast<std::size_t>(
      std::max(0.0, std::floor((c.y - radius) / cell_size_)));
  const auto row_hi = std::min(
      rows_ - 1,
      static_cast<std::size_t>(std::max(0.0, (c.y + radius) / cell_size_)));
  // Cells col_lo..col_hi of a row are adjacent in the CSR order, so each
  // row is one span of slots (empty when col_lo == cols_).
  for (std::size_t row = row_lo; row <= row_hi; ++row) {
    const std::size_t first = row * cols_;
    const std::size_t end = cell_start_[first + col_hi + 1];
    for (std::size_t k = cell_start_[first + col_lo]; k < end; ++k) {
      if (distance_sq(sorted_[k], center) <= r2) {
        out.push_back(order_[k]);
      }
    }
  }
}

std::vector<std::size_t> GridIndex::query_radius(Vec2 center,
                                                 double radius) const {
  std::vector<std::size_t> out;
  query_radius(center, radius, out);
  return out;
}

std::vector<std::size_t> GridIndex::brute_force(std::span<const Vec2> points,
                                                Vec2 center, double radius) {
  std::vector<std::size_t> out;
  const double r2 = radius * radius;
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (distance_sq(points[i], center) <= r2) {
      out.push_back(i);
    }
  }
  return out;
}

}  // namespace manet::geom
