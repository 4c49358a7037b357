#include "core/detector.hpp"

#include "sim/stats.hpp"

namespace perfcloud::core {

DetectionResult InterferenceDetector::evaluate(std::span<const VmSample* const> app_vms) const {
  for (std::vector<double>& v : values_) v.clear();
  for (const VmSample* s : app_vms) {
    if (s == nullptr) continue;
    if (s->iowait_ratio_ms) values_[kIo].push_back(*s->iowait_ratio_ms);
    if (s->cpi) values_[kCpu].push_back(*s->cpi);
  }
  DetectionResult d;
  for (const Resource r : kResources) {
    d.samples[r] = values_[r].size();
    d.deviation[r] = sim::stddev_of(values_[r]);
    d.contended[r] = d.deviation[r] > deviation_threshold(cfg_, r);
  }
  return d;
}

}  // namespace perfcloud::core
