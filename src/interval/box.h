#pragma once
/// \file box.h
/// \brief Axis-aligned boxes (interval vectors) — the search state of the
/// branch-and-prune δ-SAT solver and the geometric representation of the
/// initial set X0 and domain D.

#include <cstddef>
#include <iosfwd>
#include <utility>
#include <vector>

#include "src/interval/interval.h"
#include "src/linalg/vector.h"

namespace bcert::interval {

/// Cartesian product of intervals, one per variable.
class Box {
 public:
  Box() = default;

  /// Box of \p n empty intervals.
  explicit Box(std::size_t n) : dims_(n) {}

  /// Box from explicit per-dimension intervals.
  explicit Box(std::vector<Interval> dims) : dims_(std::move(dims)) {}

  /// Degenerate box around a point.
  static Box point(const linalg::Vector& x);

  /// Box from per-dimension [lo, hi] pairs.
  static Box from_bounds(const std::vector<std::pair<double, double>>& b);

  std::size_t size() const { return dims_.size(); }
  bool empty_dims() const { return dims_.empty(); }

  Interval& operator[](std::size_t i) { return dims_[i]; }
  const Interval& operator[](std::size_t i) const { return dims_[i]; }

  auto begin() const { return dims_.begin(); }
  auto end() const { return dims_.end(); }

  /// True when any dimension is the empty interval.
  bool is_empty() const;

  /// Maximum dimension width (∞-norm diameter).
  double max_width() const;

  /// Index of the widest dimension (0 when dimensionless). Ties break
  /// stably to the *lowest* dimension index — part of the ICP frontier's
  /// exploration-order contract: every HC4 backend and thread count
  /// splits the same dimension of the same box, so search trees are
  /// reproducible.
  std::size_t widest_dim() const;

  /// Component-wise midpoint.
  linalg::Vector midpoint() const;

  /// Sum of widths (useful as a progress measure).
  double perimeter() const;

  /// Volume (product of widths); 0 when any dimension is a point/empty.
  double volume() const;

  bool contains(const linalg::Vector& x) const;
  bool contains(const Box& o) const;

  /// Bisects along \p dim at its midpoint; returns {left, right}.
  std::pair<Box, Box> split(std::size_t dim) const;

  /// Bisects along the widest dimension.
  std::pair<Box, Box> split_widest() const { return split(widest_dim()); }

  bool operator==(const Box& o) const { return dims_ == o.dims_; }

 private:
  std::vector<Interval> dims_;
};

/// Component-wise intersection; empty if any dimension is empty.
Box intersect(const Box& a, const Box& b);

/// Component-wise hull.
Box hull(const Box& a, const Box& b);

std::ostream& operator<<(std::ostream& os, const Box& b);

}  // namespace bcert::interval
