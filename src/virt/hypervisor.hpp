// Hypervisor: hosts VMs on one physical server, drives the per-tick
// arbitration, and exposes the libvirt-style control/observation API that
// PerfCloud's node manager uses.
#pragma once

#include <memory>
#include <vector>

#include "hw/server.hpp"
#include "sim/types.hpp"
#include "virt/vm.hpp"

namespace perfcloud::virt {

/// Global kill switch for the idle-host tick early-out. On by default. The
/// override is process-wide — the quiescence tests A/B it against the full
/// tick.
[[nodiscard]] bool idle_fastpath_enabled();
void set_idle_fastpath_enabled(bool enabled);

/// Per-host KVM-like hypervisor.
///
/// Each tick it collects demand from every resident VM's guest (clamped to
/// the VM's vCPU allotment and cgroup caps), lets the physical server
/// arbitrate, then routes grants back to the guests and accounts them into
/// the VMs' cgroups. Each demand carries its VM's own noise state, so
/// evictions and arrivals never hand one tenant's noise to another.
class Hypervisor {
 public:
  explicit Hypervisor(hw::ServerConfig server_cfg, sim::Rng rng)
      : server_(std::move(server_cfg), rng) {}

  Hypervisor(const Hypervisor&) = delete;
  Hypervisor& operator=(const Hypervisor&) = delete;

  /// Boot a VM on this host. The hypervisor owns it.
  Vm& boot(VmConfig cfg);

  /// Remove a VM from this host and hand over ownership (live-migration
  /// source side). The VM keeps its cgroup counters and guest state.
  /// Throws if the VM is unknown.
  [[nodiscard]] std::unique_ptr<Vm> evict(int vm_id);

  /// Accept a VM migrated from another host (destination side). The VM's
  /// noise state is reset: its placement factor models where it sits
  /// relative to the aggressors on *this* host, so it draws a fresh one.
  Vm& adopt(std::unique_ptr<Vm> vm);

  [[nodiscard]] const std::vector<std::unique_ptr<Vm>>& vms() const { return vms_; }
  [[nodiscard]] Vm* find(int vm_id);
  [[nodiscard]] const Vm* find(int vm_id) const;
  [[nodiscard]] hw::Server& server() { return server_; }

  /// Advance one arbitration tick ending at `now`. A quiescent host (see
  /// is_quiescent) returns early: with no demand anywhere, arbitration
  /// grants nothing and accounts nothing, so the skipped tick changes no
  /// cgroup counter or guest. It is NOT unobservable, though: the full tick
  /// would still draw the disk's and memory's AR(1) jitter from the
  /// server's Rng, so a skipped tick leaves every later draw on this host
  /// shifted once a tenant wakes it. A reactivated host's I/O-wait and CPI
  /// counters (and the deviation signals built on them) therefore differ
  /// from an always-full tick; its grants do not.
  /// Quiescence.ReactivatedHostNoiseDiffersFromFullTick pins this.
  ///
  /// One scan over the residents per tick fills their demand rows and idle
  /// flags (asking each guest's finished() once) and decides quiescence,
  /// all from current state, so a Vm's socket, pause flag or guest changed
  /// without going through the hypervisor binds on the next tick. The rows
  /// are kept by the host, sized here to residents plus inflows: they
  /// change size only after boot/evict/adopt/begin_/end_migration_in, and
  /// keep their capacity, so a warmed host's tick does not allocate.
  void tick(sim::SimTime now, double dt);

  /// True when nothing on this host can change a counter during a tick:
  /// every resident VM is unpaused with no guest (or a finished one) and
  /// carries no cgroup cap, no migration stream is landing, and the disk is
  /// not degraded by a fault. A side-effect-free query, computed from
  /// current state on every call, O(#vms); tick() decides the same thing in
  /// its own scan.
  [[nodiscard]] bool is_quiescent(sim::SimTime now) const;

  // --- Live-migration inflows (destination side, DESIGN.md §5j) ---
  /// While a VM's pre-copy is in flight, the destination host's block
  /// device serves the page stream (received state landing in the image
  /// store) as one extra tenant at `bytes_per_sec`. The flow contends in
  /// arbitration like any VM — which is exactly how an incoming migration
  /// inflates the neighbours' iowait — but receives no guest-visible
  /// grants and is not rate-adaptive (the cost model fixes the copy
  /// duration; congestion shows up as neighbour interference, not as a
  /// longer copy). Throws std::logic_error on a duplicate vm_id and
  /// std::invalid_argument unless bytes_per_sec is finite and > 0.
  void begin_migration_in(int vm_id, double bytes_per_sec);
  /// End the flow (migration finished or aborted); unknown id is a no-op.
  void end_migration_in(int vm_id);
  [[nodiscard]] std::size_t migration_inflow_count() const { return migration_in_.size(); }

  // --- libvirt-style API used by the node manager ---
  /// Apply a CPU hard cap (vcpu_quota) in cores. Throws
  /// std::invalid_argument if the VM is unknown or cores is NaN or negative
  /// (0 starves the VM; +inf is no cap).
  void set_vcpu_quota(int vm_id, double cores);
  void clear_vcpu_quota(int vm_id);
  /// Apply a blkio throttle in bytes/second. Throws std::invalid_argument if
  /// the VM is unknown or the rate is NaN or negative (0 blocks all I/O).
  void set_blkio_throttle(int vm_id, sim::Bytes bytes_per_sec);
  void clear_blkio_throttle(int vm_id);
  /// Read the VM's cumulative cgroup counters (blkio + perf_event + cpuacct).
  [[nodiscard]] const CgroupStats& dom_stats(int vm_id) const;

 private:
  Vm& require(int vm_id);
  [[nodiscard]] const Vm& require(int vm_id) const;
  [[nodiscard]] int pick_numa_node() const;
  /// No inflow and a healthy disk: the host-level half of is_quiescent.
  [[nodiscard]] bool host_may_be_quiet() const;

  struct MigrationInflow {
    int vm_id = 0;
    double bytes_per_sec = 0.0;
    hw::TenantNoise noise;
  };

  hw::Server server_;
  std::vector<std::unique_ptr<Vm>> vms_;
  /// Active incoming pre-copy streams, in begin order; their demands follow
  /// the resident VMs' each tick.
  std::vector<MigrationInflow> migration_in_;
  /// Tick rows: one per resident VM (in vms_ order), then one per inflow.
  /// Rewritten in full each tick; only their sizes carry over.
  std::vector<hw::TenantDemand> demands_;
  std::vector<hw::TenantGrant> grants_;
  std::vector<unsigned char> idle_;  ///< Per resident: no demand, no apply this tick.
};

}  // namespace perfcloud::virt
