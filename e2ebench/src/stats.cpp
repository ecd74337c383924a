#include "stats.h"

#include <algorithm>

namespace e2e {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

std::array<double, 3> quartiles(std::vector<double> values) {
  if (values.empty()) return {0.0, 0.0, 0.0};
  if (values.size() == 1) return {values[0], values[0], values[0]};
  std::sort(values.begin(), values.end());
  // statistics.quantiles, method="exclusive": m = len + 1, cut i of n=4
  // at j = i*m // 4 (clamped to [1, len-1]) with delta = i*m - 4*j.
  const long len = static_cast<long>(values.size());
  const long m = len + 1;
  std::array<double, 3> out{};
  for (long i = 1; i <= 3; ++i) {
    const long j = std::clamp(i * m / 4, 1L, len - 1);
    const long delta = i * m - j * 4;
    out[static_cast<std::size_t>(i - 1)] =
        (values[static_cast<std::size_t>(j - 1)] * static_cast<double>(4 - delta) +
         values[static_cast<std::size_t>(j)] * static_cast<double>(delta)) /
        4.0;
  }
  return out;
}

double iqr_share(const std::vector<double>& values) {
  const double mid = median(values);
  if (mid == 0.0) return 0.0;
  const std::array<double, 3> q = quartiles(values);
  return (q[2] - q[0]) / mid;
}

}  // namespace e2e
