// Pearson correlation, the statistic PerfCloud uses to pick antagonists out
// of the colocated-VM population (§III-B).
#pragma once

#include <span>

#include "sim/time_series.hpp"

namespace perfcloud::sim {

/// Pearson correlation coefficient of two equal-length samples.
/// Returns 0 when either side has (numerically) zero variance or fewer than
/// two points — an uninformative pair should never read as "correlated".
[[nodiscard]] double pearson(std::span<const double> x, std::span<const double> y);

/// Correlate a victim signal with a suspect signal after aligning the suspect
/// onto the victim's sample grid, substituting 0 for missing suspect samples.
/// Matching the paper: treating missing values as zero (rather than dropping
/// the pairs) avoids over-emphasizing similarity computed over little data.
[[nodiscard]] double pearson_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect);

/// Same, but restricted to the most recent `window` victim samples. Fig 5c
/// shows identification succeeding with windows as small as three samples.
[[nodiscard]] double pearson_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect,
                                             std::size_t window);

/// Write into `out` the suspect's samples at the victim's sample times
/// `start` .. `start + out.size() - 1` (which must exist), 0 where the
/// suspect has none. O(out.size() + log n). The windowed Pearson here and
/// the identifier's scoring both align through this one routine.
void align_window_missing_as_zero(const TimeSeries& victim, const TimeSeries& suspect,
                                  std::size_t start, std::span<double> out);

}  // namespace perfcloud::sim
