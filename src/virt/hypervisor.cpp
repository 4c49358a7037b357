#include "virt/hypervisor.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <stdexcept>
#include <string>
#include <vector>

namespace perfcloud::virt {

namespace {
std::atomic<bool> g_idle_fastpath{true};
}  // namespace

bool idle_fastpath_enabled() { return g_idle_fastpath.load(std::memory_order_relaxed); }
void set_idle_fastpath_enabled(bool enabled) {
  g_idle_fastpath.store(enabled, std::memory_order_relaxed);
}

Vm& Hypervisor::boot(VmConfig cfg) {
  if (find(cfg.id) != nullptr) {
    throw std::invalid_argument("duplicate VM id " + std::to_string(cfg.id));
  }
  const int requested = cfg.numa_node;
  vms_.push_back(std::make_unique<Vm>(std::move(cfg)));
  Vm& vm = *vms_.back();
  vm.set_numa_node(requested >= 0 ? requested : pick_numa_node());
  return vm;
}

int Hypervisor::pick_numa_node() const {
  // Least-loaded socket by resident vCPU count.
  const int sockets = server_.sockets();
  if (sockets <= 1) return 0;
  std::vector<int> load(static_cast<std::size_t>(sockets), 0);
  for (const auto& vm : vms_) {
    const int node = std::clamp(vm->numa_node(), 0, sockets - 1);
    load[static_cast<std::size_t>(node)] += vm->vcpus();
  }
  int best = 0;
  for (int s = 1; s < sockets; ++s) {
    if (load[static_cast<std::size_t>(s)] < load[static_cast<std::size_t>(best)]) best = s;
  }
  return best;
}

std::unique_ptr<Vm> Hypervisor::evict(int vm_id) {
  for (auto it = vms_.begin(); it != vms_.end(); ++it) {
    if ((*it)->id() == vm_id) {
      std::unique_ptr<Vm> vm = std::move(*it);
      vms_.erase(it);
      return vm;
    }
  }
  throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
}

Vm& Hypervisor::adopt(std::unique_ptr<Vm> vm) {
  if (find(vm->id()) != nullptr) {
    throw std::invalid_argument("duplicate VM id " + std::to_string(vm->id()));
  }
  vm->noise() = hw::TenantNoise{};
  vms_.push_back(std::move(vm));
  return *vms_.back();
}

Vm* Hypervisor::find(int vm_id) {
  for (const auto& vm : vms_) {
    if (vm->id() == vm_id) return vm.get();
  }
  return nullptr;
}

const Vm* Hypervisor::find(int vm_id) const {
  return const_cast<Hypervisor*>(this)->find(vm_id);
}

Vm& Hypervisor::require(int vm_id) {
  Vm* vm = find(vm_id);
  if (vm == nullptr) throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
  return *vm;
}

const Vm& Hypervisor::require(int vm_id) const {
  return const_cast<Hypervisor*>(this)->require(vm_id);
}

void Hypervisor::begin_migration_in(int vm_id, double bytes_per_sec) {
  if (!(std::isfinite(bytes_per_sec) && bytes_per_sec > 0.0)) {
    throw std::invalid_argument("migration bandwidth must be finite and positive");
  }
  for (const MigrationInflow& f : migration_in_) {
    if (f.vm_id == vm_id) {
      throw std::logic_error("duplicate migration inflow for VM " + std::to_string(vm_id));
    }
  }
  migration_in_.push_back(MigrationInflow{.vm_id = vm_id, .bytes_per_sec = bytes_per_sec});
}

void Hypervisor::end_migration_in(int vm_id) {
  std::erase_if(migration_in_, [&](const MigrationInflow& f) { return f.vm_id == vm_id; });
}

namespace {
/// A resident VM leaves its host quiescent when it presents no demand
/// (`idle`), is not paused and carries no cgroup cap.
bool stays_quiet(const Vm& vm, bool idle) {
  const Cgroup& cg = vm.cgroup();
  return idle && !vm.paused() && cg.cpu_quota_cores() == hw::kNoCap &&
         cg.blkio_throttle_bps() == hw::kNoCap;
}
}  // namespace

bool Hypervisor::host_may_be_quiet() const {
  // An incoming pre-copy stream keeps the disk busy every tick.
  return migration_in_.empty() && server_.disk_degradation() == 1.0;
}

bool Hypervisor::is_quiescent(sim::SimTime now) const {
  return host_may_be_quiet() && std::all_of(vms_.begin(), vms_.end(), [now](const auto& vm) {
           return stays_quiet(*vm, vm->idle(now));
         });
}

void Hypervisor::tick(sim::SimTime now, double dt) {
  const std::size_t residents = vms_.size();
  const std::size_t rows = residents + migration_in_.size();
  demands_.resize(rows);
  grants_.resize(rows);
  idle_.resize(residents);

  // The one guest scan: each VM's idle flag (the only finished() call its
  // guest gets this tick), its demand row, and whether the host is
  // quiescent. Socket, pause, guest and caps are read here every tick, so
  // changes made straight on a Vm or its cgroup bind on the next tick.
  bool quiet = host_may_be_quiet();
  for (std::size_t i = 0; i < residents; ++i) {
    Vm& vm = *vms_[i];
    const bool idle = vm.idle(now);
    idle_[i] = idle;
    quiet = quiet && stays_quiet(vm, idle);
    hw::TenantDemand& d = demands_[i];
    d = idle ? hw::TenantDemand{} : vm.guest()->demand(now, dt);
    // The guest can never demand more CPU than its vCPUs can run.
    d.cpu_core_seconds = std::min(d.cpu_core_seconds, static_cast<double>(vm.vcpus()) * dt);
    // Attach the cgroup's caps.
    const Cgroup& cg = vm.cgroup();
    d.cpu_cap_cores = std::min(cg.cpu_quota_cores(), static_cast<double>(vm.vcpus()));
    d.io_cap_bytes_per_sec = cg.blkio_throttle_bps();
    d.numa_node = vm.numa_node();
    d.noise = &vm.noise();
  }
  // Idle-host early-out: a quiescent host has all-zero demand, so the whole
  // arbitrate/account/apply round changes no counter — skip it (at the cost
  // of the noise-stream shift documented on tick()).
  if (quiet && idle_fastpath_enabled()) return;

  // Incoming pre-copy streams, after the resident VMs. Pages land as large
  // sequential writes; the grants routed back to these rows are discarded.
  // A stream only writes to disk, so it stays out of the memory model and
  // moves no resident's CPI noise.
  constexpr double kMigrationIoBlockBytes = 1.0 * 1024 * 1024;
  for (std::size_t k = 0; k < migration_in_.size(); ++k) {
    MigrationInflow& f = migration_in_[k];
    hw::TenantDemand& d = demands_[residents + k];
    d = hw::TenantDemand{};
    d.io_bytes = f.bytes_per_sec * dt;
    d.io_ops = d.io_bytes / kMigrationIoBlockBytes;
    d.numa_node = hw::kNoMemoryTenant;
    d.noise = &f.noise;
  }

  server_.arbitrate(dt, demands_, grants_);
  for (std::size_t i = 0; i < residents; ++i) {
    Vm& vm = *vms_[i];
    vm.cgroup().account(grants_[i]);
    if (!idle_[i]) vm.guest()->apply(grants_[i], now, dt);
  }
}

void Hypervisor::set_vcpu_quota(int vm_id, double cores) {
  if (!(cores >= 0.0)) throw std::invalid_argument("vCPU quota must be >= 0 cores");
  require(vm_id).cgroup().set_cpu_quota_cores(cores);
}

void Hypervisor::clear_vcpu_quota(int vm_id) {
  require(vm_id).cgroup().clear_cpu_quota();
}

void Hypervisor::set_blkio_throttle(int vm_id, sim::Bytes bytes_per_sec) {
  if (!(bytes_per_sec >= 0.0)) throw std::invalid_argument("blkio throttle must be >= 0 bytes/s");
  require(vm_id).cgroup().set_blkio_throttle_bps(bytes_per_sec);
}

void Hypervisor::clear_blkio_throttle(int vm_id) {
  require(vm_id).cgroup().clear_blkio_throttle();
}

const CgroupStats& Hypervisor::dom_stats(int vm_id) const { return require(vm_id).cgroup().stats(); }

}  // namespace perfcloud::virt
