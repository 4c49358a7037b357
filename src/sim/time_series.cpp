#include "sim/time_series.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace perfcloud::sim {

void TimeSeries::add(SimTime t, double value) {
  assert(times_.empty() || t >= times_.back());
  if (capacity_ > 0 && times_.size() == capacity_) {
    times_.erase(times_.begin());
    values_.erase(values_.begin());
  }
  times_.push_back(t);
  values_.push_back(value);
}

void TimeSeries::clear() {
  times_.clear();
  values_.clear();
}

std::vector<double> TimeSeries::tail(std::size_t n) const {
  const std::size_t start = values_.size() > n ? values_.size() - n : 0;
  return {values_.begin() + static_cast<std::ptrdiff_t>(start), values_.end()};
}

double TimeSeries::peak() const {
  double p = 0.0;
  for (double v : values_) p = std::max(p, std::abs(v));
  return p;
}

std::vector<double> TimeSeries::normalized_by_peak() const {
  const double p = peak();
  std::vector<double> out(values_.size(), 0.0);
  if (p <= 0.0) return out;
  for (std::size_t i = 0; i < values_.size(); ++i) out[i] = values_[i] / p;
  return out;
}

std::optional<double> TimeSeries::value_at(SimTime t, double tol) const {
  if (times_.empty()) return std::nullopt;
  if (std::abs(times_.back().seconds() - t.seconds()) <= tol) return values_.back();
  const auto it = std::lower_bound(times_.begin(), times_.end(), SimTime(t.seconds() - tol));
  if (it == times_.end() || std::abs(it->seconds() - t.seconds()) > tol) return std::nullopt;
  return values_[static_cast<std::size_t>(it - times_.begin())];
}

std::vector<double> align_to(const TimeSeries& reference, const TimeSeries& series,
                             double missing_value, double tol) {
  std::vector<double> out;
  out.reserve(reference.size());
  std::size_t j = 0;
  for (std::size_t i = 0; i < reference.size(); ++i) {
    const double t = reference.time(i).seconds();
    while (j < series.size() && series.time(j).seconds() < t - tol) ++j;
    if (j < series.size() && std::abs(series.time(j).seconds() - t) <= tol) {
      out.push_back(series.value(j));
      ++j;
    } else {
      out.push_back(missing_value);
    }
  }
  return out;
}

}  // namespace perfcloud::sim
