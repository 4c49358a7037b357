#include "core/identifier.hpp"

#include <algorithm>
#include <cmath>

#include "sim/correlation.hpp"

namespace perfcloud::core {

void AntagonistIdentifier::score(const sim::TimeSeries& victim_signal,
                                 std::span<const SuspectSignal> suspects,
                                 std::vector<SuspectScore>& out) {
  const std::size_t n = victim_signal.size();
  if (n < cfg_.min_correlation_samples) return;
  const std::size_t start = out.size();
  const std::size_t take = std::min(cfg_.correlation_window, n);
  const std::span<const double> window = victim_signal.values().subspan(n - take);
  aligned_.resize(take);
  usage_.assign(suspects.size(), 0.0);

  double max_usage = 0.0;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    const SuspectSignal& s = suspects[i];
    SuspectScore score;
    score.vm_id = s.vm_id;
    if (s.series != nullptr && take > 0) {
      sim::align_window_missing_as_zero(victim_signal, *s.series, n - take, aligned_);
      double sum = 0.0;
      for (const double v : aligned_) sum += v;
      usage_[i] = sum / static_cast<double>(take);
      score.correlation = sim::pearson(window, aligned_);
    }
    max_usage = std::max(max_usage, usage_[i]);
    out.push_back(score);
  }

  // A suspect is an antagonist when its correlation evidence crosses the
  // threshold AND it is heavy enough relative to the heaviest suspect (the
  // §III-B magnitude gate). When every suspect's windowed usage is zero the
  // gate fails for all of them: `usage >= f * 0` would otherwise hold
  // trivially, flagging idle suspects whose correlation is a numerical
  // artifact — an idle VM puts pressure on nothing.
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    SuspectScore& score = out[start + i];
    const double evidence =
        cfg_.use_absolute_correlation ? std::abs(score.correlation) : score.correlation;
    const bool heavy_enough =
        max_usage > 0.0 && usage_[i] >= cfg_.min_usage_fraction * max_usage;
    score.antagonist = evidence >= cfg_.correlation_threshold && heavy_enough;
  }
}

}  // namespace perfcloud::core
