// Interference detector: turns per-VM samples into the paper's two
// deviation signals and threshold decisions (§III-A).
#pragma once

#include <optional>
#include <span>
#include <vector>

#include "core/config.hpp"
#include "core/monitor.hpp"

namespace perfcloud::core {

/// One application group's deviation signals at one sample time, per
/// resource: the std-dev of the blkio iowait ratio (ms/op) for kIo, of CPI
/// for kCpu.
struct DetectionResult {
  PerResource<double> deviation{};
  PerResource<bool> contended{};  ///< deviation > deviation_threshold(cfg, r).
  PerResource<std::size_t> samples{};  ///< VMs that contributed a sample.
};

class InterferenceDetector {
 public:
  explicit InterferenceDetector(PerfCloudConfig cfg) : cfg_(cfg) {}

  /// Evaluate the deviation signals over the given application VMs' latest
  /// samples. VMs with missing metrics (idle during the interval) do not
  /// contribute: an idle VM carries no evidence about contention.
  [[nodiscard]] DetectionResult evaluate(std::span<const VmSample* const> app_vms) const;

 private:
  PerfCloudConfig cfg_;
  /// Per-call scratch, capacity retained across quanta so a steady-state
  /// evaluation allocates nothing. Each node manager owns its detector and
  /// calls it from its own shard task only, so mutable scratch is safe.
  mutable PerResource<std::vector<double>> values_;
};

}  // namespace perfcloud::core
