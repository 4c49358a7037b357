// Virtual machine: a cgroup, a shape (vCPUs/memory), a priority, and an
// optionally attached guest workload.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>

#include "hw/tenant.hpp"
#include "sim/types.hpp"
#include "virt/cgroup.hpp"
#include "virt/guest.hpp"

namespace perfcloud::virt {

/// Cloud-administrator-assigned priority (§III): PerfCloud protects
/// high-priority applications by throttling low-priority antagonists only.
enum class Priority { kHigh, kLow };

/// Why a VM is paused (Vm::set_paused); one bit each.
enum class PauseCause : std::uint8_t {
  kStall = 1,          ///< A VmStall fault (faults::FaultInjector).
  kMigrationCopy = 2,  ///< A live migration's stop-and-copy window.
};

struct VmConfig {
  int id = 0;
  std::string name;
  int vcpus = 2;                              ///< Paper: 2 vCPU per node.
  sim::Bytes memory = 8.0 * 1024 * 1024 * 1024;  ///< Paper: 8 GB per node.
  Priority priority = Priority::kLow;
  /// VMs belonging to the same high-priority scale-out application share an
  /// application id; the cloud manager exposes this grouping (§III-D.2).
  std::string app_id;
  /// NUMA socket to pin the VM's memory to; -1 lets the hypervisor pick the
  /// least-loaded socket at boot (ignored on single-socket hosts).
  int numa_node = -1;
};

class Vm {
 public:
  explicit Vm(VmConfig cfg) : cfg_(std::move(cfg)), cgroup_("vm-" + std::to_string(cfg_.id)) {}

  Vm(const Vm&) = delete;
  Vm& operator=(const Vm&) = delete;

  [[nodiscard]] int id() const { return cfg_.id; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }
  [[nodiscard]] int vcpus() const { return cfg_.vcpus; }
  [[nodiscard]] Priority priority() const { return cfg_.priority; }
  [[nodiscard]] const std::string& app_id() const { return cfg_.app_id; }
  [[nodiscard]] const VmConfig& config() const { return cfg_; }

  [[nodiscard]] Cgroup& cgroup() { return cgroup_; }
  [[nodiscard]] const Cgroup& cgroup() const { return cgroup_; }

  /// Socket the hypervisor placed this VM on (set at boot/adoption).
  [[nodiscard]] int numa_node() const { return numa_node_; }
  void set_numa_node(int node) { numa_node_ = node; }

  /// The VM's disk/CPI noise state, advanced by its host's hardware models.
  [[nodiscard]] hw::TenantNoise& noise() { return noise_; }

  /// Attach (or replace) the guest workload. Ownership transfers to the VM.
  void attach(std::unique_ptr<GuestWorkload> guest) { guest_ = std::move(guest); }
  void detach() { guest_.reset(); }
  [[nodiscard]] GuestWorkload* guest() { return guest_.get(); }
  [[nodiscard]] const GuestWorkload* guest() const { return guest_.get(); }
  [[nodiscard]] bool idle(sim::SimTime now) const {
    return paused() || guest_ == nullptr || guest_->finished(now);
  }

  /// A paused VM presents no demand and receives no grants — its guest's
  /// progress freezes while any cause holds. Each writer sets and clears
  /// only its own cause, so a stall and a stop-and-copy that overlap in
  /// either order never lift each other.
  void set_paused(PauseCause cause, bool on) {
    const auto bit = static_cast<std::uint8_t>(cause);
    pause_causes_ = static_cast<std::uint8_t>(on ? pause_causes_ | bit : pause_causes_ & ~bit);
  }
  [[nodiscard]] bool paused() const { return pause_causes_ != 0; }

 private:
  VmConfig cfg_;
  Cgroup cgroup_;
  std::unique_ptr<GuestWorkload> guest_;
  hw::TenantNoise noise_;
  int numa_node_ = 0;
  std::uint8_t pause_causes_ = 0;  ///< Bitset of PauseCause.
};

}  // namespace perfcloud::virt
