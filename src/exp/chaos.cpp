#include "exp/chaos.hpp"

#include <algorithm>
#include <map>
#include <ostream>

#include "sim/time_series.hpp"

namespace perfcloud::exp {

namespace {

/// First time `series` reaches `threshold` at or after `since`; negative
/// when it never does.
double first_crossing(const sim::TimeSeries& series, double threshold, sim::SimTime since) {
  for (std::size_t i = 0; i < series.size(); ++i) {
    if (series.time(i) >= since && series.value(i) >= threshold) {
      return series.time(i) - since;
    }
  }
  return -1.0;
}

/// Merge min: keep the smaller non-negative latency.
void merge_latency(double& best, double candidate) {
  if (candidate < 0.0) return;
  if (best < 0.0 || candidate < best) best = candidate;
}

}  // namespace

ChaosReport chaos_report(Cluster& cluster, const core::PerfCloudConfig& cfg,
                         const std::vector<int>& true_antagonists, sim::SimTime since) {
  ChaosReport report;
  report.summary = summarize(*cluster.framework);

  std::map<int, double> first_identified;  // vm id -> earliest latency
  for (const auto& nm : cluster.node_managers) {
    for (const core::Resource r : core::kResources) {
      merge_latency(report.detection_latency_s,
                    first_crossing(nm->deviation_signal(r, cluster.params.app_id),
                                   core::deviation_threshold(cfg, r), since));
      for (const auto& [vm_id, t] : nm->first_identified(r)) {
        if (t < since) continue;
        const double latency = t - since;
        const auto [it, inserted] = first_identified.try_emplace(vm_id, latency);
        if (!inserted && latency < it->second) it->second = latency;
      }
    }
  }

  std::size_t true_positives = 0;
  for (const auto& [vm_id, latency] : first_identified) {
    report.identified.push_back(vm_id);
    if (std::find(true_antagonists.begin(), true_antagonists.end(), vm_id) !=
        true_antagonists.end()) {
      ++true_positives;
      merge_latency(report.identification_latency_s, latency);
    }
  }

  if (!report.identified.empty()) {
    report.precision =
        static_cast<double>(true_positives) / static_cast<double>(report.identified.size());
  }
  if (!true_antagonists.empty()) {
    report.recall =
        static_cast<double>(true_positives) / static_cast<double>(true_antagonists.size());
  }

  report.migrations_started = cluster.cloud->migrations_started();
  report.migrations_completed = cluster.cloud->migrations_completed();
  report.migrations_aborted = cluster.cloud->migrations_aborted();
  if (cluster.policy != nullptr) {
    report.policy_triggered = cluster.policy->triggered();
    report.policy_migrated = cluster.policy->migrated();
  }
  return report;
}

void print(std::ostream& os, const ChaosReport& r) {
  os << "detection latency:       "
     << (r.detection_latency_s < 0.0 ? std::string("never")
                                     : std::to_string(r.detection_latency_s) + " s")
     << "\n";
  os << "identification latency:  "
     << (r.identification_latency_s < 0.0 ? std::string("never")
                                          : std::to_string(r.identification_latency_s) + " s")
     << "\n";
  os << "identification precision " << r.precision << " recall " << r.recall << " (identified:";
  for (const int id : r.identified) os << " vm-" << id;
  if (r.identified.empty()) os << " none";
  os << ")\n";
  os << "migrations:              " << r.migrations_started << " started, "
     << r.migrations_completed << " completed, " << r.migrations_aborted << " aborted";
  if (r.policy_triggered > 0 || r.policy_migrated > 0) {
    os << " (policy: " << r.policy_triggered << " triggered, " << r.policy_migrated
       << " migrated)";
  }
  os << "\n";
}

}  // namespace perfcloud::exp
