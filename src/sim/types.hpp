// Fundamental simulation types shared across all PerfCloud modules.
#pragma once

#include <cmath>
#include <compare>
#include <cstdint>
#include <limits>

namespace perfcloud::sim {

/// Simulated wall-clock time, in seconds since the start of the run.
///
/// A strong type over `double` so that times, durations, and plain scalars
/// cannot be mixed up silently. Arithmetic is the obvious affine algebra:
/// time - time = duration (double seconds), time +/- duration = time.
class SimTime {
 public:
  constexpr SimTime() = default;
  constexpr explicit SimTime(double seconds) : seconds_(seconds) {}

  /// Seconds since simulation start.
  [[nodiscard]] constexpr double seconds() const { return seconds_; }

  constexpr auto operator<=>(const SimTime&) const = default;

  constexpr SimTime operator+(double dt) const { return SimTime(seconds_ + dt); }
  constexpr SimTime operator-(double dt) const { return SimTime(seconds_ - dt); }
  constexpr double operator-(SimTime other) const { return seconds_ - other.seconds_; }
  constexpr SimTime& operator+=(double dt) {
    seconds_ += dt;
    return *this;
  }

  /// A time later than any event the simulator will ever schedule.
  [[nodiscard]] static constexpr SimTime infinity() {
    return SimTime(std::numeric_limits<double>::infinity());
  }

 private:
  double seconds_ = 0.0;
};

/// Tolerance (seconds) under which two sample timestamps count as the same
/// instant — used both when aligning suspect samples onto a victim's grid
/// (§III-B missing-as-zero alignment) and when deduping trace-grid rows.
/// One constant everywhere: if the correlation path and the trace writer
/// disagreed on what a shared sample time is, a pair could correlate as
/// aligned yet print as two rows. Well above the FP error periodic schedules
/// accumulate (repeated addition of 0.1 s drifts ~1e-10 s over 1e5 ticks)
/// and far below any real sampling interval.
inline constexpr double kTimeAlignTolS = 1e-6;

/// Number of bytes, used for I/O volumes, memory footprints and bandwidth
/// bookkeeping. Kept as double: the simulator deals in rates and fractional
/// per-tick quantities, not addressable storage.
using Bytes = double;

constexpr Bytes operator""_KiB(unsigned long long v) { return static_cast<double>(v) * 1024.0; }
constexpr Bytes operator""_MiB(unsigned long long v) { return static_cast<double>(v) * 1024.0 * 1024.0; }
constexpr Bytes operator""_GiB(unsigned long long v) {
  return static_cast<double>(v) * 1024.0 * 1024.0 * 1024.0;
}

}  // namespace perfcloud::sim
