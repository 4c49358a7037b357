// Cluster view: the slot-keyed, allocation-free aggregate the migration
// policy scores against (DESIGN.md §5k).
//
// Folds, once per policy interval, every host's usage vectors (CPU cores,
// disk throughput, LLC miss rate — the three interference axes of §III) and
// live interference verdicts (per-app deviation signals, per-VM caps with
// their at-floor status) into one dense per-host structure. Runs on the
// engine thread post-barrier, after the node managers' control steps, so it
// reads exactly the state those steps just published.
//
// Steady-state refreshes are allocation-free: resident-VM lists are cached
// against the cloud registry version (a rebuild — boot, migration, crash —
// is episodic and may allocate), and every numeric field is re-read in place
// through the monitors' and node managers' policy-facing accessors.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "core/node_manager.hpp"
#include "sim/interner.hpp"
#include "sim/types.hpp"
#include "virt/vm.hpp"

namespace perfcloud::policy {

/// One resident VM's shape plus its smoothed usage vector and cap state.
struct VmUsage {
  int vm_id = 0;
  int vcpus = 0;
  sim::Bytes memory = 0.0;
  virt::Priority priority = virt::Priority::kLow;
  sim::Interner::Id app = sim::Interner::kInvalid;
  // Smoothed usage (the monitor's EWMAs), refreshed every interval.
  double cpu_cores = 0.0;
  double io_bps = 0.0;
  double llc_rate = 0.0;
  // Normalized caps per resource (1.0 = baseline); negative when the VM is
  // not capped for that resource. A cap exists only for an identified
  // antagonist.
  core::PerResource<double> cap{-1.0, -1.0};
  /// Cap driven down to the controller's floor by real decreases — the
  /// "throttling is exhausted" half of the escalation trigger.
  core::PerResource<bool> at_floor{};
};

/// One host's aggregate state for a policy interval.
struct HostView {
  std::string name;
  std::size_t index = 0;  ///< Provisioning order; ties break by this.
  bool up = true;
  // Static capacities (cached at construction; degradation faults do not
  // move the nameplate numbers scoring normalizes by).
  int cores = 0;
  sim::Bytes dram = 0.0;
  double disk_bw = 0.0;
  // Aggregate usage over resident VMs, refreshed every interval.
  double cpu_cores_used = 0.0;
  double io_bps = 0.0;
  double llc_rate = 0.0;
  /// Worst deviation signal per resource over the host's protected apps;
  /// negative when no protected app has samples here.
  core::PerResource<double> max_dev{-1.0, -1.0};
  /// Residents in the cloud's record order, ascending VM id (deterministic
  /// regardless of adoption history). Rebuilt only when the cloud registry
  /// changes.
  std::vector<VmUsage> vms;
};

class ClusterView {
 public:
  /// `nms` must be indexed by host provisioning order (nms[i] manages
  /// cloud.host_names()[i]) and outlive the view. Engine thread only.
  ClusterView(cloud::CloudManager& cloud, std::vector<core::NodeManager*> nms);

  /// Fold current cluster state into the view. Idempotent per (time,
  /// registry version): a second call at the same timestamp with no
  /// placement change in between is a no-op.
  void refresh(sim::SimTime now);

  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }
  [[nodiscard]] const HostView& host(std::size_t index) const { return hosts_[index]; }
  /// Host index by name; npos when unknown.
  [[nodiscard]] std::size_t index_of(const std::string& name) const;
  static constexpr std::size_t npos = static_cast<std::size_t>(-1);
  /// A resident VM's usage entry on the given host; nullptr when absent.
  [[nodiscard]] const VmUsage* find_vm(std::size_t host_index, int vm_id) const;

  /// Largest per-host aggregate LLC miss rate seen this refresh — the
  /// normalization denominator for the capacity-less third axis (CPU and
  /// disk normalize by nameplate capacity instead).
  [[nodiscard]] double max_host_llc_rate() const { return max_host_llc_rate_; }

  [[nodiscard]] const core::NodeManager& node_manager(std::size_t index) const {
    return *nms_[index];
  }

 private:
  void rebuild_residents(HostView& h);
  void refresh_host(HostView& h, core::NodeManager& nm);

  cloud::CloudManager& cloud_;
  std::vector<core::NodeManager*> nms_;
  std::vector<HostView> hosts_;
  std::uint64_t seen_registry_version_ = 0;
  sim::SimTime last_refresh_ = sim::SimTime(-1.0);
  double max_host_llc_rate_ = 0.0;
};

}  // namespace perfcloud::policy
