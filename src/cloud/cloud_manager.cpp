#include "cloud/cloud_manager.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <map>
#include <stdexcept>

namespace perfcloud::cloud {
namespace {

template <class T>
void sort_by_id(std::vector<T>& v) {
  std::sort(v.begin(), v.end(), [](const T& a, const T& b) { return a.id < b.id; });
}

}  // namespace

virt::Hypervisor& CloudManager::add_host(hw::ServerConfig cfg) {
  if (find_host(cfg.name) != nullptr) {
    throw std::invalid_argument("duplicate host name " + cfg.name);
  }
  const std::string name = cfg.name;
  auto hv = std::make_unique<virt::Hypervisor>(
      std::move(cfg), engine_.rng().split(std::hash<std::string>{}(name)));
  hosts_.push_back(Host{name, std::move(hv)});
  return *hosts_.back().hypervisor;
}

std::vector<std::string> CloudManager::host_names() const {
  std::vector<std::string> names;
  names.reserve(hosts_.size());
  for (const Host& h : hosts_) names.push_back(h.name);
  return names;
}

const CloudManager::Host* CloudManager::find_host(const std::string& name) const {
  for (const Host& h : hosts_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

CloudManager::Host* CloudManager::find_host(const std::string& name) {
  for (Host& h : hosts_) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

virt::Hypervisor& CloudManager::host(const std::string& name) {
  const Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host " + name);
  return *h->hypervisor;
}

virt::Vm& CloudManager::boot_vm(const std::string& host_name, virt::VmConfig cfg) {
  const Host* h = find_host(host_name);
  if (h == nullptr) throw std::invalid_argument("unknown host " + host_name);
  if (!h->up) throw std::invalid_argument("host " + host_name + " is down");
  cfg.id = next_vm_id_++;
  virt::Vm& vm = h->hypervisor->boot(cfg);
  // Interned here, on the engine thread, so records built in shard tasks
  // only ever look it up.
  if (!vm.app_id().empty()) app_interner_.intern(vm.app_id());
  ++registry_version_;
  return vm;
}

CloudManager::Host* CloudManager::host_of(int vm_id) {
  for (Host& h : hosts_) {
    if (h.hypervisor->find(vm_id) != nullptr) return &h;
  }
  return nullptr;
}

virt::Vm* CloudManager::find_vm(int vm_id) {
  Host* h = host_of(vm_id);
  return h == nullptr ? nullptr : h->hypervisor->find(vm_id);
}

CloudManager::Migration* CloudManager::find_migration(int vm_id) {
  for (Migration& m : migrations_) {
    if (m.vm_id == vm_id) return &m;
  }
  return nullptr;
}

bool CloudManager::migration_in_flight(int vm_id) const {
  for (const Migration& m : migrations_) {
    if (m.vm_id == vm_id) return true;
  }
  return false;
}

void CloudManager::set_migration_model(MigrationModel model) {
  if (!migrations_.empty()) {
    throw std::logic_error("cannot change the migration model mid-migration");
  }
  // Checked before enabled(): a NaN or negative bandwidth would otherwise
  // read as "disabled" and silently turn migrations instantaneous.
  if (!(std::isfinite(model.bandwidth_bps) && model.bandwidth_bps >= 0.0)) {
    throw std::invalid_argument("migration bandwidth must be finite and non-negative");
  }
  // Negated so NaN is rejected too: it would only surface mid-migration,
  // when the pause is scheduled at a NaN time.
  if (model.enabled() && !(model.downtime_s >= 0.0)) {
    throw std::invalid_argument("migration downtime must be non-negative");
  }
  migration_model_ = model;
}

void CloudManager::add_migration_listener(MigrationListener listener) {
  migration_listeners_.push_back(std::move(listener));
}

void CloudManager::notify_migration(int vm_id, MigrationPhase phase, const std::string& src,
                                    const std::string& dst) {
  const MigrationEvent ev{vm_id, phase, src, dst};
  for (const MigrationListener& listener : migration_listeners_) listener(ev);
}

void CloudManager::complete_handoff(int vm_id, Host& src, Host& dst) {
  // kDeparting while the VM is still resident on the source: listeners
  // (node managers) retire caps through the source hypervisor here.
  notify_migration(vm_id, MigrationPhase::kDeparting, src.name, dst.name);
  dst.hypervisor->adopt(src.hypervisor->evict(vm_id));
  ++registry_version_;
  ++migrations_completed_;
  notify_migration(vm_id, MigrationPhase::kArrived, src.name, dst.name);
  if (sink_ != nullptr) {
    sink_->emit_event(sink_source_, engine_.now(),
                      "migrate vm=" + std::to_string(vm_id) + " dst=" + dst.name, 1.0);
    sink_->bump_counter(sink_source_, "migrations");
  }
}

void CloudManager::migrate_vm(int vm_id, const std::string& dst_host) {
  Host* dst = find_host(dst_host);
  if (dst == nullptr) throw std::invalid_argument("unknown host " + dst_host);
  if (!dst->up) throw std::invalid_argument("host " + dst_host + " is down");
  Host* src = host_of(vm_id);
  if (src == nullptr) throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
  if (src == dst) {
    throw std::invalid_argument("VM " + std::to_string(vm_id) + " is already on host " +
                                dst_host + "; self-migration is a caller bug");
  }
  if (migration_in_flight(vm_id)) {
    throw std::logic_error("VM " + std::to_string(vm_id) + " is already migrating");
  }
  ++migrations_started_;
  if (!migration_model_.enabled()) {
    complete_handoff(vm_id, *src, *dst);
    return;
  }
  start_live_migration(vm_id, *src, *dst);
}

void CloudManager::start_live_migration(int vm_id, Host& src, Host& dst) {
  const double copy_s =
      src.hypervisor->find(vm_id)->config().memory / migration_model_.bandwidth_bps;
  const double downtime_s = migration_model_.downtime_s;

  Migration m;
  m.vm_id = vm_id;
  m.src = src.name;
  m.dst = dst.name;
  // The destination starts serving the page stream now; its node manager
  // sees the traffic in arbitration from the next tick on.
  dst.hypervisor->begin_migration_in(vm_id, migration_model_.bandwidth_bps);
  if (downtime_s > 0.0) {
    m.pause_event = engine_.at(engine_.now() + copy_s,
                               [this, vm_id](sim::SimTime) { pause_for_migration(vm_id); });
  }
  m.finish_event = engine_.at(engine_.now() + copy_s + downtime_s,
                              [this, vm_id](sim::SimTime) { finish_migration(vm_id); });
  migrations_.push_back(std::move(m));
  notify_migration(vm_id, MigrationPhase::kStarted, src.name, dst.name);
  if (sink_ != nullptr) {
    sink_->emit_event(sink_source_, engine_.now(),
                      "migrate_start vm=" + std::to_string(vm_id) + " dst=" + dst.name, copy_s);
    sink_->bump_counter(sink_source_, "migrations_started");
  }
}

void CloudManager::pause_for_migration(int vm_id) {
  Migration* m = find_migration(vm_id);
  if (m == nullptr) return;  // aborted; the event should have been cancelled
  virt::Vm* vm = find_host(m->src)->hypervisor->find(vm_id);
  if (vm == nullptr) return;
  // Stop-and-copy: freeze the guest for the downtime window. Only the
  // migration's own cause is set, so a VmStall before, during or after the
  // window keeps its own hold on the VM.
  vm->set_paused(virt::PauseCause::kMigrationCopy, true);
}

void CloudManager::finish_migration(int vm_id) {
  Migration* found = find_migration(vm_id);
  if (found == nullptr) return;
  const Migration m = *found;
  std::erase_if(migrations_, [&](const Migration& x) { return x.vm_id == vm_id; });

  Host* src = find_host(m.src);
  Host* dst = find_host(m.dst);
  dst->hypervisor->end_migration_in(vm_id);
  complete_handoff(vm_id, *src, *dst);
  dst->hypervisor->find(vm_id)->set_paused(virt::PauseCause::kMigrationCopy, false);
}

void CloudManager::abort_migrations_touching(const std::string& host) {
  for (std::size_t i = 0; i < migrations_.size();) {
    if (migrations_[i].src != host && migrations_[i].dst != host) {
      ++i;
      continue;
    }
    const Migration m = migrations_[i];
    migrations_.erase(migrations_.begin() + static_cast<std::ptrdiff_t>(i));
    engine_.cancel(m.pause_event);
    engine_.cancel(m.finish_event);
    if (Host* dst = find_host(m.dst); dst != nullptr) {
      dst->hypervisor->end_migration_in(m.vm_id);
    }
    // The VM survives only when its source survives: an inbound copy loses
    // its destination and the VM just keeps running on the source (lift
    // our stop-and-copy cause, if the pause had begun); an outbound VM is
    // about to die with the crashing source, so there is nothing to restore.
    if (m.src != host) {
      if (virt::Vm* vm = find_host(m.src)->hypervisor->find(m.vm_id); vm != nullptr) {
        vm->set_paused(virt::PauseCause::kMigrationCopy, false);
      }
    }
    ++migrations_aborted_;
    notify_migration(m.vm_id, MigrationPhase::kAborted, m.src, m.dst);
    if (sink_ != nullptr) {
      sink_->emit_event(sink_source_, engine_.now(),
                        "migrate_abort vm=" + std::to_string(m.vm_id) + " dst=" + m.dst, 1.0);
      sink_->bump_counter(sink_source_, "migrations_aborted");
    }
  }
}

std::vector<virt::VmConfig> CloudManager::crash_host(const std::string& name) {
  Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host " + name);
  if (!h->up) throw std::invalid_argument("host " + name + " is already down");

  // In-flight migrations touching this host die with it: an inbound copy
  // loses its destination (the VM stays on its source, the copy's pause
  // lifted), and an outbound VM is a crash victim below (it is still
  // resident here).
  abort_migrations_touching(name);

  // Victims in id (= boot) order, so re-placement order is stable. Each
  // config keeps its id so the caller can map old id -> replacement.
  std::vector<virt::VmConfig> lost;
  for (const auto& vm : h->hypervisor->vms()) lost.push_back(vm->config());
  sort_by_id(lost);
  for (const virt::VmConfig& cfg : lost) {
    // The evicted VM is dropped on the floor: it and its guest die here.
    auto victim = h->hypervisor->evict(cfg.id);
    victim.reset();
  }
  ++registry_version_;
  h->up = false;

  if (sink_ != nullptr) {
    sink_->emit_event(sink_source_, engine_.now(), "host_crash host=" + name,
                      static_cast<double>(lost.size()));
    sink_->bump_counter(sink_source_, "host_crashes");
  }
  return lost;
}

void CloudManager::restore_host(const std::string& name) {
  Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host " + name);
  if (h->up) throw std::invalid_argument("host " + name + " is already up");
  h->up = true;
  ++registry_version_;
  if (sink_ != nullptr) {
    sink_->emit_event(sink_source_, engine_.now(), "host_restore host=" + name, 1.0);
    sink_->bump_counter(sink_source_, "host_restores");
  }
}

bool CloudManager::host_up(const std::string& name) const {
  const Host* h = find_host(name);
  if (h == nullptr) throw std::invalid_argument("unknown host " + name);
  return h->up;
}

std::vector<std::string> CloudManager::up_hosts() const {
  std::vector<std::string> names;
  for (const Host& h : hosts_) {
    if (h.up) names.push_back(h.name);
  }
  return names;
}

void CloudManager::set_emit_sink(sim::EmitSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) sink_source_ = sink_->add_event_source("cloud");
}

bool CloudManager::host_has_capacity(const Host& h, const virt::VmConfig& shape) const {
  int vcpus = shape.vcpus;
  sim::Bytes memory = shape.memory;
  for (const auto& vm : h.hypervisor->vms()) {
    vcpus += vm->vcpus();
    memory += vm->config().memory;
  }
  // Inbound in-flight migrations are commitments: their VMs are not
  // resident yet but will be, so admission must count them or concurrent
  // escalations would over-pack the same destination.
  for (const Migration& m : migrations_) {
    if (m.dst != h.name) continue;
    const Host* src = find_host(m.src);
    const virt::Vm* vm = src == nullptr ? nullptr : src->hypervisor->find(m.vm_id);
    if (vm != nullptr) {
      vcpus += vm->vcpus();
      memory += vm->config().memory;
    }
  }
  const hw::ServerConfig& cfg = h.hypervisor->server().config();
  return vcpus <= cfg.cpu.cores && memory <= cfg.dram;
}

bool CloudManager::has_capacity(const std::string& host, const virt::VmConfig& shape) const {
  const Host* h = find_host(host);
  if (h == nullptr) throw std::invalid_argument("unknown host " + host);
  return h->up && host_has_capacity(*h, shape);
}

int CloudManager::resolve_high_priority_collision(const std::string& host_name) {
  // Group the host's high-priority VMs by application.
  std::map<std::string, std::vector<int>> groups;
  for (const VmRecord& r : vms_on_host(host_name)) {
    if (r.priority == virt::Priority::kHigh && !r.app_id.empty()) {
      groups[r.app_id].push_back(r.id);
    }
  }
  if (groups.size() < 2) return 0;

  // Move the smallest group: fewest VMs to copy, least disruption.
  const auto smallest =
      std::min_element(groups.begin(), groups.end(), [](const auto& a, const auto& b) {
        return a.second.size() < b.second.size();
      });
  const std::string& moving_app = smallest->first;

  // Conflict of a host for this app: high-priority VMs of *other* apps
  // there, counting inbound in-flight migrations (they are tomorrow's
  // residents — ignoring them would stack two colliding apps onto the same
  // "clean" destination while the copies run). An in-flight VM is still
  // resident on its source.
  const auto rival = [&](const virt::Vm& vm) {
    return vm.priority() == virt::Priority::kHigh && !vm.app_id().empty() &&
           vm.app_id() != moving_app;
  };
  const auto conflict = [&](const Host& h) {
    std::size_t n = 0;
    for (const auto& vm : h.hypervisor->vms()) n += rival(*vm) ? 1 : 0;
    for (const Migration& m : migrations_) {
      if (m.dst == h.name && rival(*find_host(m.src)->hypervisor->find(m.vm_id))) ++n;
    }
    return n;
  };
  const auto population = [&](const Host& h) {
    std::size_t n = h.hypervisor->vms().size();
    for (const Migration& m : migrations_) n += m.dst == h.name ? 1 : 0;
    return n;
  };
  const Host& src = *find_host(host_name);
  const std::size_t here = conflict(src);

  int moved = 0;
  for (const int vm_id : smallest->second) {
    // A VM already on its way out resolves itself; re-migrating it would
    // throw and the collision is already being worked on.
    if (migration_in_flight(vm_id)) continue;
    const virt::Vm& vm = *src.hypervisor->find(vm_id);
    // Destination with the fewest conflicting high-priority VMs (ties by
    // total population, then provisioning order). Only move on strict
    // improvement — otherwise two node managers would ping-pong the VM
    // between equally-bad hosts — and only where the VM actually fits.
    const Host* best = nullptr;
    std::size_t best_conflict = 0;
    std::size_t best_count = 0;
    for (const Host& h : hosts_) {
      if (h.name == host_name || !h.up) continue;
      const std::size_t c = conflict(h);
      if (c >= here) continue;
      if (!host_has_capacity(h, vm.config())) continue;
      const std::size_t count = population(h);
      if (best == nullptr || c < best_conflict || (c == best_conflict && count < best_count)) {
        best = &h;
        best_conflict = c;
        best_count = count;
      }
    }
    // No admissible strictly-better host for THIS VM; a sibling with a
    // smaller shape might still fit somewhere, so keep scanning.
    if (best == nullptr) continue;
    migrate_vm(vm_id, best->name);
    ++moved;
  }
  if (moved > 0 && sink_ != nullptr) {
    sink_->emit_event(sink_source_, engine_.now(), "escalation host=" + host_name,
                      static_cast<double>(moved));
    sink_->bump_counter(sink_source_, "escalations");
  }
  return moved;
}

void CloudManager::append_records(const Host& h, std::vector<VmRecord>& out) const {
  for (const auto& vm : h.hypervisor->vms()) {
    const virt::VmConfig& cfg = vm->config();
    const sim::Interner::Id app =
        cfg.app_id.empty() ? sim::Interner::kInvalid : app_interner_.lookup(cfg.app_id);
    out.push_back(VmRecord{cfg.id, cfg.name, h.name, cfg.priority, cfg.app_id, app, cfg.vcpus,
                           cfg.memory});
  }
}

std::vector<VmRecord> CloudManager::vms_on_host(const std::string& host_name) const {
  std::vector<VmRecord> out;
  if (const Host* h = find_host(host_name); h != nullptr) append_records(*h, out);
  sort_by_id(out);
  return out;
}

std::vector<VmRecord> CloudManager::all_vms() const {
  std::vector<VmRecord> out;
  for (const Host& h : hosts_) append_records(h, out);
  sort_by_id(out);
  return out;
}

void CloudManager::start_ticking(double dt) {
  if (tick_dt_ > 0.0) throw std::logic_error("start_ticking called twice");
  if (dt <= 0.0) throw std::invalid_argument("tick dt must be positive");
  tick_dt_ = dt;
  // One engine periodic sweeps every host: a tick is host-local (the
  // hypervisor, its server models, its guests), so the tasks fan out across
  // the shard pool; there is no cross-host phase.
  sim::ShardedPeriodic& sweep = engine_.every_sharded(dt, sim::SimTime(dt));
  for (Host& h : hosts_) {
    virt::Hypervisor* hv = h.hypervisor.get();
    sweep.add_task([hv, dt](sim::SimTime now) { hv->tick(now, dt); });
  }
}

void CloudManager::register_host_pipeline(double period, sim::Engine::PeriodicFn parallel_fn,
                                          sim::Engine::PeriodicFn barrier_fn) {
  if (period <= 0.0) throw std::invalid_argument("pipeline period must be positive");
  if (pipeline_sweep_ == nullptr) {
    pipeline_period_ = period;
    pipeline_sweep_ = &engine_.every_sharded(period, sim::SimTime(period));
    pipeline_sweep_->set_barrier([this](sim::SimTime now) {
      for (const sim::Engine::PeriodicFn& fn : pipeline_barriers_) fn(now);
    });
  } else if (period != pipeline_period_) {
    throw std::invalid_argument("host pipelines must share one period; sweep runs at " +
                                std::to_string(pipeline_period_) + " s");
  }
  if (parallel_fn) pipeline_sweep_->add_task(std::move(parallel_fn));
  if (barrier_fn) pipeline_barriers_.push_back(std::move(barrier_fn));
}

}  // namespace perfcloud::cloud
