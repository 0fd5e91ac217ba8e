// Quantiles of a run's samples; the median is nustencil::median.
#pragma once

#include <algorithm>
#include <cmath>
#include <vector>

namespace ladderbench {

/// Linear-interpolated quantile, q in [0, 1]; NaN for no samples.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Interquartile range as a share of the median (0 for fewer than two
/// samples).
inline double iqr_share(const std::vector<double>& v) {
  if (v.size() < 2) return 0.0;
  return (quantile(v, 0.75) - quantile(v, 0.25)) / quantile(v, 0.5);
}

}  // namespace ladderbench
