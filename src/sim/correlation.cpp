#include "sim/correlation.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

namespace perfcloud::sim {

double pearson(std::span<const double> x, std::span<const double> y) {
  assert(x.size() == y.size());
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double sx = 0.0;
  double sy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    sx += x[i];
    sy += y[i];
  }
  const double mx = sx / static_cast<double>(n);
  const double my = sy / static_cast<double>(n);
  double sxy = 0.0;
  double sxx = 0.0;
  double syy = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double dx = x[i] - mx;
    const double dy = y[i] - my;
    sxy += dx * dy;
    sxx += dx * dx;
    syy += dy * dy;
  }
  const double denom = std::sqrt(sxx * syy);
  if (denom <= 1e-12) return 0.0;
  return sxy / denom;
}

double pearson_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect) {
  const std::vector<double> aligned = align_to(victim, suspect, /*missing_value=*/0.0);
  return pearson(victim.values(), aligned);
}

void align_window_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect,
                                  std::size_t start, std::span<double> out) {
  const std::span<const SimTime> at = victim.times().subspan(start, out.size());
  const std::span<const SimTime> times = suspect.times();
  const std::span<const double> values = suspect.values();
  std::size_t j = 0;
  if (!at.empty()) {
    j = static_cast<std::size_t>(
        std::lower_bound(times.begin(), times.end(), at.front() - kTimeAlignTolS) -
        times.begin());
  }
  for (std::size_t i = 0; i < at.size(); ++i) {
    const double t = at[i].seconds();
    while (j < times.size() && times[j].seconds() < t - kTimeAlignTolS) ++j;
    if (j < times.size() && std::abs(times[j].seconds() - t) <= kTimeAlignTolS) {
      out[i] = values[j];
      ++j;
    } else {
      out[i] = 0.0;
    }
  }
}

double pearson_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect,
                               std::size_t window) {
  const std::size_t n = victim.size();
  const std::size_t take = std::min(window, n);
  const std::size_t start = n - take;
  std::vector<double> aligned(take);
  align_window_missing_as_zero(victim, suspect, start, aligned);
  return pearson(victim.values().subspan(start), aligned);
}

}  // namespace perfcloud::sim
