#pragma once
/// \file stats.h
/// \brief Order statistics of the benchmark's samples.
///
/// The quartiles follow Python's `statistics.quantiles(data, n=4)`
/// (the default "exclusive" method), so the spreads this program prints
/// are the ones a reader recomputes from the run records.

#include <array>
#include <vector>

namespace e2e {

/// Median of \p values; 0 for an empty sample.
double median(std::vector<double> values);

/// First, second and third quartile, "exclusive" method. A single value
/// is its own quartiles; an empty sample gives zeros.
std::array<double, 3> quartiles(std::vector<double> values);

/// (q3 - q1) / median: the spread of a sample as a share of its median;
/// 0 when the median is 0.
double iqr_share(const std::vector<double>& values);

}  // namespace e2e
