#include "faults/fault_injector.hpp"

#include <stdexcept>
#include <utility>

#include "cloud/placement.hpp"
#include "sim/rng.hpp"

namespace perfcloud::faults {

FaultInjector::FaultInjector(cloud::CloudManager& cloud, FaultPlan plan)
    : cloud_(cloud), plan_(std::move(plan)), phases_(plan_.size(), Phase::kPending) {}

void FaultInjector::register_node_manager(core::NodeManager& nm) {
  node_managers_[nm.host_name()] = &nm;
}

void FaultInjector::set_emit_sink(sim::EmitSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) sink_source_ = sink_->add_event_source("faults");
}

void FaultInjector::arm() {
  if (armed_) throw std::logic_error("FaultInjector::arm called twice");
  armed_ = true;
  sim::Engine& engine = cloud_.engine();
  for (std::size_t i = 0; i < plan_.size(); ++i) {
    const FaultSpec& spec = plan_.specs()[i];
    engine.at(sim::SimTime(spec.inject_at_s), [this, i](sim::SimTime) { apply(i); });
    if (spec.recovers()) {
      engine.at(sim::SimTime(spec.recover_at_s()), [this, i](sim::SimTime) { revert(i); });
    }
  }
}

int FaultInjector::pending() const {
  int n = 0;
  for (const Phase p : phases_) n += p == Phase::kPending ? 1 : 0;
  return n;
}

int FaultInjector::active() const {
  int n = 0;
  for (const Phase p : phases_) n += p == Phase::kActive ? 1 : 0;
  return n;
}

core::NodeManager& FaultInjector::node_manager(const std::string& host) {
  const auto it = node_managers_.find(host);
  if (it == node_managers_.end()) {
    throw std::invalid_argument("no node manager registered for host " + host);
  }
  return *it->second;
}

std::uint64_t FaultInjector::spec_seed(std::size_t index) const {
  std::uint64_t state = plan_.seed() + 0x9e3779b97f4a7c15ULL * (index + 1);
  return sim::splitmix64(state);
}

void FaultInjector::emit(const std::string& kind, const FaultSpec& spec, double value) {
  if (sink_ == nullptr) return;
  sink_->emit_event(sink_source_, cloud_.engine().now(), kind + " " + spec.label(), value);
}

void FaultInjector::apply(std::size_t index) {
  const FaultSpec& spec = plan_.specs()[index];
  try {
    switch (spec.kind) {
      case FaultKind::kHostCrash: apply_host_crash(spec); break;
      case FaultKind::kVmStall: apply_vm_stall(spec, true); break;
      case FaultKind::kDiskDegrade: apply_disk_degrade(spec, spec.magnitude); break;
      case FaultKind::kMonitorBlackout: apply_monitor_blackout(spec, true); break;
      case FaultKind::kCapCommandLoss: apply_cap_command_loss(spec, index, true); break;
      case FaultKind::kTaskFailure: apply_task_failure(spec, spec.magnitude); break;
    }
  } catch (const std::exception&) {
    phases_[index] = Phase::kFailed;
    ++failed_;
    emit("inject_failed", spec, spec.magnitude);
    if (sink_ != nullptr) sink_->bump_counter(sink_source_, "faults_failed");
    return;
  }
  phases_[index] = Phase::kActive;
  ++injected_;
  emit("inject", spec, spec.magnitude);
  if (sink_ != nullptr) sink_->bump_counter(sink_source_, "faults_injected");
}

void FaultInjector::revert(std::size_t index) {
  if (phases_[index] != Phase::kActive) return;  // inject failed or never ran
  const FaultSpec& spec = plan_.specs()[index];
  try {
    switch (spec.kind) {
      case FaultKind::kHostCrash: cloud_.restore_host(spec.host); break;
      case FaultKind::kVmStall: apply_vm_stall(spec, false); break;
      case FaultKind::kDiskDegrade: apply_disk_degrade(spec, 1.0); break;
      case FaultKind::kMonitorBlackout: apply_monitor_blackout(spec, false); break;
      case FaultKind::kCapCommandLoss: apply_cap_command_loss(spec, index, false); break;
      case FaultKind::kTaskFailure: apply_task_failure(spec, 0.0); break;
    }
  } catch (const std::exception&) {
    phases_[index] = Phase::kFailed;
    ++failed_;
    emit("recover_failed", spec, spec.magnitude);
    if (sink_ != nullptr) sink_->bump_counter(sink_source_, "faults_failed");
    return;
  }
  phases_[index] = Phase::kDone;
  ++recovered_;
  emit("recover", spec, spec.magnitude);
  if (sink_ != nullptr) sink_->bump_counter(sink_source_, "faults_recovered");
}

void FaultInjector::apply_host_crash(const FaultSpec& spec) {
  const sim::SimTime now = cloud_.engine().now();
  // 1. Kill the attempts running on doomed worker VMs while they still
  //    exist (removal touches the live worker objects).
  const std::vector<cloud::VmRecord> victims = cloud_.vms_on_host(spec.host);
  if (framework_ != nullptr) {
    std::vector<int> victim_ids;
    victim_ids.reserve(victims.size());
    for (const cloud::VmRecord& r : victims) victim_ids.push_back(r.id);
    framework_->on_worker_vms_lost(victim_ids, now);
  }
  // 2. The dying host's node manager must forget its per-VM control state:
  //    actuating a cap on a destroyed VM id would throw.
  const auto nm = node_managers_.find(spec.host);
  if (nm != node_managers_.end()) {
    for (const cloud::VmRecord& r : victims) nm->second->forget_vm(r.id);
  }
  // 3. Kill the host; re-place the victims on the survivors with fresh ids.
  //    Replacements come back guest-less (the guest died with the host);
  //    worker replacements get a new ScaleOutWorker, bystanders stay empty.
  const std::vector<virt::VmConfig> lost = cloud_.crash_host(spec.host);
  const std::vector<cloud::Replacement> placed =
      cloud::place_replacements(cloud_, lost, spec.packed_replacement);
  if (framework_ != nullptr) {
    for (const cloud::Replacement& r : placed) {
      if (!framework_->has_worker_vm(r.old_id)) continue;
      virt::Vm* vm = cloud_.host(r.host).find(r.new_id);
      framework_->rebind_worker(r.old_id, *vm, r.host);
    }
  }
}

void FaultInjector::apply_vm_stall(const FaultSpec& spec, bool paused) {
  // Resolve the VM through the registry each time: it may have migrated (or
  // died in a crash) between inject and recover.
  for (const cloud::VmRecord& r : cloud_.all_vms()) {
    if (r.id != spec.vm_id) continue;
    cloud_.host(r.host).find(r.id)->set_paused(paused);
    return;
  }
  throw std::invalid_argument("VM " + std::to_string(spec.vm_id) + " not found");
}

void FaultInjector::apply_disk_degrade(const FaultSpec& spec, double factor) {
  // A degraded disk ends the host's quiescence (Hypervisor::is_quiescent
  // reads the factor), so the idle early-out cannot mask the fault.
  cloud_.host(spec.host).server().set_disk_degradation(factor);
}

void FaultInjector::apply_monitor_blackout(const FaultSpec& spec, bool dark) {
  core::PerformanceMonitor& monitor = node_manager(spec.host).monitor();
  if (spec.vm_id >= 0) {
    monitor.set_blackout(spec.vm_id, dark);
  } else {
    monitor.set_blackout_all(dark);
  }
}

void FaultInjector::apply_cap_command_loss(const FaultSpec& spec, std::size_t index,
                                           bool active) {
  core::NodeManager& nm = node_manager(spec.host);
  if (active) {
    nm.set_cap_command_loss(spec.magnitude, spec_seed(index));
  } else {
    nm.clear_cap_command_loss();
  }
}

void FaultInjector::apply_task_failure(const FaultSpec& spec, double rate) {
  (void)spec;
  if (framework_ == nullptr) {
    throw std::logic_error("TaskFailure fault needs a framework (set_framework)");
  }
  framework_->set_task_failure_rate(rate);
}

}  // namespace perfcloud::faults
