// Time-stamped metric series used by the monitor, the antagonist identifier,
// and the figure-reproduction benches.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "sim/types.hpp"

namespace perfcloud::sim {

/// Append-only series of (time, value) samples.
///
/// Samples may be *missing* for some entities at some times (e.g. a suspect
/// VM that is idle has no LLC-miss sample); alignment helpers below implement
/// the paper's policy of treating missing values as zero rather than
/// omitting them (§III-B).
///
/// A series may be *bounded*: with a capacity set, `add` evicts the oldest
/// sample once the series is full, so it always holds the most recent
/// `capacity` samples. Monitors use this so suspect-side series stop growing
/// without bound over long runs — identification only ever looks a window
/// back. Storage stays contiguous (the spans below remain valid views of the
/// whole series), so eviction is a small front-shift of at most `capacity`
/// elements rather than a pointer-chasing ring.
class TimeSeries {
 public:
  TimeSeries() = default;
  explicit TimeSeries(std::string name) : name_(std::move(name)) {}
  TimeSeries(std::string name, std::size_t capacity)
      : name_(std::move(name)), capacity_(capacity) {}

  void add(SimTime t, double value);
  void clear();

  [[nodiscard]] std::size_t capacity() const { return capacity_; }

  [[nodiscard]] const std::string& name() const { return name_; }
  [[nodiscard]] std::size_t size() const { return times_.size(); }
  [[nodiscard]] bool empty() const { return times_.empty(); }
  [[nodiscard]] SimTime time(std::size_t i) const { return times_.at(i); }
  [[nodiscard]] double value(std::size_t i) const { return values_.at(i); }
  [[nodiscard]] std::span<const double> values() const { return values_; }
  [[nodiscard]] std::span<const SimTime> times() const { return times_; }

  /// Last `n` values (or all, if fewer exist), oldest first.
  [[nodiscard]] std::vector<double> tail(std::size_t n) const;

  /// Maximum absolute value; 0 for an empty series.
  [[nodiscard]] double peak() const;

  /// Values divided by `peak()` (series of zeros if the peak is 0). The
  /// paper's identification figures plot peak-normalized signals.
  [[nodiscard]] std::vector<double> normalized_by_peak() const;

  /// Value of the sample taken at exactly `t` (within `tol` seconds);
  /// nullopt if no sample exists there. O(1) when `t` is the newest sample
  /// time (the monitor/identifier hot path), O(log n) otherwise.
  [[nodiscard]] std::optional<double> value_at(SimTime t, double tol = kTimeAlignTolS) const;

 private:
  std::string name_;
  std::size_t capacity_ = 0;  ///< 0 = unbounded.
  std::vector<SimTime> times_;
  std::vector<double> values_;
};

/// Align `series` onto the sample grid of `reference`: for each reference
/// timestamp take the series sample at that exact time (within `tol`
/// seconds), substituting `missing_value` where none exists. This is the
/// missing-as-zero alignment PerfCloud uses before correlating victim and
/// suspect signals.
[[nodiscard]] std::vector<double> align_to(const TimeSeries& reference, const TimeSeries& series,
                                           double missing_value = 0.0,
                                           double tol = kTimeAlignTolS);

}  // namespace perfcloud::sim
