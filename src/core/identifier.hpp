// Antagonist identification by online cross-correlation (§III-B).
//
// A colocated low-priority VM is an antagonist for a resource when the
// Pearson correlation between the victim application's deviation signal and
// the suspect's resource-usage signal (I/O throughput for disk, LLC miss
// rate for processor resources) reaches the threshold. Suspect samples
// missing at some victim sample times are treated as zero.
//
// Every call re-aligns and re-sums the correlation window, so a score is the
// plain two-pass Pearson of the window's samples. An earlier incremental
// backend kept running sums per (victim, suspect) pair instead; its
// zero-variance guard compared the centred variance with sums anchored at
// the window's first sample, so a suspect whose window began with a
// missing-as-zero sample (just migrated in, or started late) and then ran at
// a steady high rate read r = 0 until the next periodic re-sum, and a real
// antagonist went unflagged (`AntagonistIdentifier.SuspectAfterMissingLeadInIsIdentified`).
#pragma once

#include <span>
#include <vector>

#include "core/config.hpp"
#include "sim/time_series.hpp"

namespace perfcloud::core {

struct SuspectSignal {
  int vm_id = 0;
  const sim::TimeSeries* series = nullptr;
};

struct SuspectScore {
  int vm_id = 0;
  double correlation = 0.0;
  bool antagonist = false;
};

class AntagonistIdentifier {
 public:
  explicit AntagonistIdentifier(PerfCloudConfig cfg) : cfg_(cfg) {}

  /// Score every suspect against the victim deviation signal over the most
  /// recent `correlation_window` victim samples and append one score per
  /// suspect, in suspect order, to `out` (the node manager accumulates
  /// several victim signals' scores in one retained vector). Appends nothing
  /// until the victim signal has the configured minimum number of samples
  /// (Fig 5c: three suffice).
  ///
  /// Each suspect's window is aligned once (missing -> 0); the correlation
  /// and the magnitude gate's mean usage both come from that window.
  /// O(window + log n) per suspect, and no heap allocation once the scratch
  /// below has grown to the window and the suspect count.
  void score(const sim::TimeSeries& victim_signal, std::span<const SuspectSignal> suspects,
             std::vector<SuspectScore>& out);

 private:
  PerfCloudConfig cfg_;
  /// Per-call scratch, capacity retained: the current suspect's aligned
  /// window and every suspect's windowed mean usage.
  std::vector<double> aligned_;
  std::vector<double> usage_;
};

}  // namespace perfcloud::core
