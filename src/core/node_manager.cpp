#include "core/node_manager.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

namespace perfcloud::core {

const sim::TimeSeries NodeManager::kEmptySeries{};

namespace {
constexpr double kMinIoBaselineBps = 1.0e6;   // never throttle below-noise usage to zero
constexpr double kMinCpuBaselineCores = 0.2;

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("PerfCloudConfig: ") + what);
}

/// Reject settings that would otherwise fail silently or deep inside a run.
const PerfCloudConfig& validated(const PerfCloudConfig& cfg) {
  require(cfg.correlation_window > 0, "correlation_window must be > 0");
  // Fewer points than that and Pearson degenerates (two points are always
  // +-1), so every suspect would "correlate".
  require(cfg.correlation_window >= cfg.min_correlation_samples,
          "correlation_window must be >= min_correlation_samples");
  // A bound shorter than the window truncates what identification sees.
  require(cfg.monitor_series_capacity == 0 ||
              cfg.monitor_series_capacity >= cfg.correlation_window,
          "monitor_series_capacity must be 0 (unbounded) or >= correlation_window");
  require(cfg.ewma_alpha > 0.0 && cfg.ewma_alpha <= 1.0, "ewma_alpha must be in (0, 1]");
  // Comparisons against NaN are always false: detection or identification
  // would never fire.
  require(!std::isnan(cfg.io_deviation_threshold), "io_deviation_threshold is NaN");
  require(!std::isnan(cfg.cpi_deviation_threshold), "cpi_deviation_threshold is NaN");
  require(!std::isnan(cfg.correlation_threshold), "correlation_threshold is NaN");
  // CUBIC's k = cbrt(beta * cap / gamma): a zero, negative or non-finite
  // gamma makes the recovery curve infinite or NaN and freezes the cap.
  require(std::isfinite(cfg.gamma) && cfg.gamma > 0.0, "gamma must be finite and > 0");
  return cfg;
}

}  // namespace

NodeManager::NodeManager(cloud::CloudManager& cloud, std::string host_name, PerfCloudConfig cfg)
    : cloud_(cloud),
      host_(std::move(host_name)),
      hv_(cloud.host(host_)),
      cfg_(validated(cfg)),
      monitor_(hv_, cfg),
      detector_(cfg),
      identifier_(cfg) {}

void NodeManager::start() {
  if (started_) return;
  started_ = true;
  cloud_.register_host_pipeline(
      cfg_.sample_interval_s, [this](sim::SimTime now) { local_step(now); },
      [this](sim::SimTime now) { run_pending_escalation(now); });
  // Migration handoff: fires on the engine thread (migrations only happen
  // in barrier phases or engine events), so it may touch this host's state
  // freely.
  cloud_.add_migration_listener([this](const cloud::MigrationEvent& ev) { on_migration(ev); });
}

void NodeManager::on_migration(const cloud::MigrationEvent& ev) {
  if (ev.phase == cloud::MigrationPhase::kDeparting && ev.src == host_) {
    // The VM is still resident here: retire any applied caps through the
    // hypervisor. The cap is control state owned by THIS host's controller;
    // the controller does not travel, so a cap that travelled would throttle
    // the VM forever with nobody tracking it (the destination's controller
    // starts from its own identification). Cleared directly — the lossy
    // cap-command channel models a per-host control path, not the
    // management-plane migration protocol.
    const virt::Vm* vm = hv_.find(ev.vm_id);
    if (vm != nullptr) {
      if (vm->cgroup().blkio_throttle_bps() != hw::kNoCap) hv_.clear_blkio_throttle(ev.vm_id);
      if (vm->cgroup().cpu_quota_cores() != hw::kNoCap) hv_.clear_vcpu_quota(ev.vm_id);
    }
    forget_vm(ev.vm_id);
    monitor_.forget_vm(ev.vm_id);
    identifier_.forget_suspect(ev.vm_id);
  } else if (ev.phase == cloud::MigrationPhase::kArrived && ev.dst == host_) {
    // Stale state from a PREVIOUS residency of this VM here: the monitor
    // slot still holds the old cumulative-counter baseline (the counters
    // kept growing on the other host — the first delta would be a spike)
    // and the identifier's pair columns hold a correlation window against
    // usage observed elsewhere. Retire both; they rebuild from the first
    // post-arrival sample.
    forget_vm(ev.vm_id);
    monitor_.forget_vm(ev.vm_id);
    identifier_.forget_suspect(ev.vm_id);
  }
}

void NodeManager::attach_sink(sim::EmitSink& sink, const std::vector<std::string>& app_ids) {
  sink_ = &sink;
  sink_source_ = sink.add_event_source(host_);
  for (const std::string& app : app_ids) {
    const AppId id = cloud_.app_interner().intern(app);
    sink_columns_.try_emplace(
        id, SinkColumns{sink.add_trace_column(host_ + "/" + app + "/io_dev"),
                        sink.add_trace_column(host_ + "/" + app + "/cpi_dev")});
  }
}

sim::TimeSeries& NodeManager::signal(sim::SlotMap<sim::TimeSeries>& store, AppId app) {
  sim::TimeSeries* s = store.find(app);
  if (s == nullptr) {
    // Name the series only on the miss path: building the temporary
    // TimeSeries per lookup would copy the app name string every interval.
    s = store.try_emplace(app, sim::TimeSeries(cloud_.app_interner().name(app))).first;
  }
  return *s;
}

void NodeManager::control_step(sim::SimTime now) {
  local_step(now);
  run_pending_escalation(now);
}

void NodeManager::run_pending_escalation(sim::SimTime now) {
  (void)now;
  if (!escalation_pending_) return;
  escalation_pending_ = false;
  const std::uint64_t version = cloud_.registry_version();
  const int moved = cloud_.resolve_high_priority_collision(host_);
  if (moved == 0 && cloud_.registry_version() == version) {
    // Nothing moved and nothing else changed placement either: the
    // collision is unresolvable until the registry changes. Remember the
    // version so local_step stops re-flagging the same dead end every
    // quantum (any boot/migration/crash/restore re-arms it).
    escalation_noop_version_ = version;
  }
}

void NodeManager::refresh_view() {
  const std::uint64_t version = cloud_.registry_version();
  if (view_version_ == version) return;
  view_version_ = version;
  view_apps_.clear();
  view_suspects_.clear();
  // Fetch the current VM registry for this host (Nova API in the paper):
  // placement or priority changes since the last interval are picked up here.
  cloud_.for_each_vm_on_host(host_, [this](const cloud::VmRecord& r) {
    if (r.priority == virt::Priority::kHigh && r.app != sim::Interner::kInvalid) {
      AppGroup* group = nullptr;
      for (AppGroup& g : view_apps_) {
        if (g.app == r.app) {
          group = &g;
          break;
        }
      }
      if (group == nullptr) {
        group = &view_apps_.emplace_back();
        group->app = r.app;
      }
      group->vm_ids.push_back(r.id);
    } else if (r.priority == virt::Priority::kLow) {
      view_suspects_.push_back(r.id);
    }
  });
  // Name order, not AppId order: the emission and iteration order of the
  // string-keyed maps this view replaced — byte-identity depends on it.
  // (AppId order follows interning order, i.e. boot order, which differs.)
  const sim::Interner& interner = cloud_.app_interner();
  std::sort(view_apps_.begin(), view_apps_.end(),
            [&interner](const AppGroup& a, const AppGroup& b) {
              return interner.name(a.app) < interner.name(b.app);
            });
}

void NodeManager::local_step(sim::SimTime now) {
  monitor_.sample(now);
  refresh_view();

  // §IV-D escalation: two high-priority applications on one host cannot
  // both be protected by throttling third parties — the cloud manager must
  // separate them by migration. Migration mutates cross-host state, so it
  // is only flagged here and runs after the shard-sweep barrier; the next
  // interval sees one group. view_apps_ holds only high-priority apps
  // (refresh_view filters), so low-priority neighbours never trigger this.
  // The no-op guard: when an escalation at this exact registry version
  // already found nothing movable, don't re-flag until placement changes
  // (one integer compare — this line stays on the AllocGate path).
  escalation_pending_ = cfg_.escalate_app_collisions && view_apps_.size() > 1 &&
                        view_version_ != escalation_noop_version_;

  bool any_io_contended = false;
  bool any_cpu_contended = false;
  io_scores_.clear();
  cpu_scores_.clear();

  // The suspect signal lists are the same for every application group (they
  // depend only on the registry's suspect set), so gather them once per
  // quantum, above the group loop. Nothing inside the loop mutates the
  // monitor, so the series pointers stay valid throughout.
  thread_local std::vector<SuspectSignal> io_suspects;
  thread_local std::vector<SuspectSignal> cpu_suspects;
  io_suspects.clear();
  cpu_suspects.clear();
  for (const int id : view_suspects_) {
    io_suspects.push_back(SuspectSignal{id, &monitor_.io_throughput_series(id)});
    cpu_suspects.push_back(SuspectSignal{id, &monitor_.llc_miss_series(id)});
  }

  for (const AppGroup& g : view_apps_) {
    thread_local std::vector<const VmSample*> samples;
    samples.clear();
    for (const int id : g.vm_ids) samples.push_back(monitor_.latest(id));
    const DetectionResult det = detector_.evaluate(samples);

    sim::TimeSeries& io_sig = signal(io_signals_, g.app);
    sim::TimeSeries& cpi_sig = signal(cpi_signals_, g.app);
    io_sig.add(now, det.io_deviation);
    cpi_sig.add(now, det.cpi_deviation);
    if (sink_ != nullptr) {
      const SinkColumns* cols = sink_columns_.find(g.app);
      if (cols != nullptr) {
        sink_->emit_sample(cols->io_dev, now, det.io_deviation);
        sink_->emit_sample(cols->cpi_dev, now, det.cpi_deviation);
      }
    }
    any_io_contended |= det.io_contended;
    any_cpu_contended |= det.cpu_contended;

    // Record an identification timestamp; emit a report event only when the
    // suspect was not already identified within the memory horizon, so the
    // event stream marks identification *episodes*, not every interval of a
    // sustained one.
    //
    // Blackout guard: while a suspect's monitor is dark, its series carry
    // only zero-fill — no new evidence — so it may KEEP an identification it
    // already earned (the memory horizon decays it) but can never NEWLY
    // cross the threshold. The identifier itself cannot tell "dark" from
    // "idle"; the node manager can, because it owns the monitor.
    const auto record_identification = [&](sim::SlotMap<sim::SimTime>& ids,
                                           std::map<int, sim::SimTime>& first,
                                           const SuspectScore& s, const char* kind,
                                           std::string_view counter) {
      first.try_emplace(s.vm_id, now);
      const auto [stamp, inserted] = ids.try_emplace(s.vm_id, now);
      const bool fresh = inserted || now - *stamp > cfg_.identification_memory_s;
      *stamp = now;
      if (fresh && sink_ != nullptr) {
        sink_->emit_event(sink_source_, now, kind + std::string(" vm=") + std::to_string(s.vm_id),
                          s.correlation);
        sink_->bump_counter(sink_source_, counter);
      }
    };
    // Victim keys 2*app / 2*app+1: stable per deviation signal for the run's
    // lifetime (AppIds are never reassigned), per the identifier's contract.
    const std::size_t io_start = io_scores_.size();
    identifier_.score_incremental(2 * g.app, io_sig, io_suspects, io_scores_);
    for (std::size_t i = io_start; i < io_scores_.size(); ++i) {
      const SuspectScore& s = io_scores_[i];
      if (s.antagonist && !monitor_.blacked_out(s.vm_id)) {
        record_identification(io_identified_at_, io_first_identified_, s, "io_antagonist",
                              "io_antagonist_identifications");
      }
    }
    const std::size_t cpu_start = cpu_scores_.size();
    identifier_.score_incremental(2 * g.app + 1, cpi_sig, cpu_suspects, cpu_scores_);
    for (std::size_t i = cpu_start; i < cpu_scores_.size(); ++i) {
      const SuspectScore& s = cpu_scores_[i];
      if (s.antagonist && !monitor_.blacked_out(s.vm_id)) {
        record_identification(cpu_identified_at_, cpu_first_identified_, s, "cpu_antagonist",
                              "cpu_antagonist_identifications");
      }
    }
  }
  if (sink_ != nullptr) sink_->bump_counter(sink_source_, "control_intervals");

  // A suspect stays identified for a while after its correlation peak: the
  // strongest evidence appears at the antagonist's arrival, which may lead
  // the deviation signal's threshold crossing by an interval or two.
  const auto recently_identified = [&](const sim::SlotMap<sim::SimTime>& ids, int vm_id) {
    const sim::SimTime* t = ids.find(vm_id);
    return t != nullptr && now - *t <= cfg_.identification_memory_s;
  };
  thread_local std::vector<int> io_antagonists;
  thread_local std::vector<int> cpu_antagonists;
  io_antagonists.clear();
  cpu_antagonists.clear();
  if (any_io_contended) {
    for (int id : view_suspects_) {
      if (recently_identified(io_identified_at_, id)) io_antagonists.push_back(id);
    }
  }
  if (any_cpu_contended) {
    for (int id : view_suspects_) {
      if (recently_identified(cpu_identified_at_, id)) cpu_antagonists.push_back(id);
    }
  }

  if (!control_enabled_) return;
  run_resource_control(Resource::kIo, any_io_contended, io_antagonists, now);
  run_resource_control(Resource::kCpu, any_cpu_contended, cpu_antagonists, now);
}

void NodeManager::set_cap_command_loss(double drop_probability, std::uint64_t seed) {
  cap_loss_active_ = true;
  cap_loss_p_ = drop_probability;
  cap_loss_rng_ = sim::Rng(seed);
}

void NodeManager::clear_cap_command_loss() {
  cap_loss_active_ = false;
  cap_loss_p_ = 0.0;
}

void NodeManager::forget_vm(int vm_id) {
  io_controllers_.erase(vm_id);
  cpu_controllers_.erase(vm_id);
  io_identified_at_.erase(vm_id);
  cpu_identified_at_.erase(vm_id);
}

void NodeManager::run_resource_control(Resource res, bool contended,
                                       std::span<const int> antagonists, sim::SimTime now) {
  auto& controllers = res == Resource::kIo ? io_controllers_ : cpu_controllers_;
  virt::Hypervisor& hv = hv_;

  // CapCommandLoss fault: each actuation attempt may be silently eaten by
  // the (simulated) lossy control channel. One RNG draw per attempt, from
  // the fault's own stream — engine randomness is never touched.
  const auto actuate = [&](auto&& fn) {
    if (cap_loss_active_ && cap_loss_rng_.bernoulli(cap_loss_p_)) {
      ++cap_commands_dropped_;
      if (sink_ != nullptr) sink_->bump_counter(sink_source_, "cap_commands_dropped");
      return;
    }
    fn();
  };

  // Instantiate controllers for newly identified antagonists; the initial
  // cap equals the VM's currently observed usage (Eq. 1 initialization).
  auto& history = res == Resource::kIo ? io_cap_history_ : cpu_cap_history_;
  for (int vm_id : antagonists) {
    if (controllers.contains(vm_id)) continue;
    const double baseline =
        res == Resource::kIo
            ? std::max(monitor_.observed_io_bps(vm_id), kMinIoBaselineBps)
            : std::max(monitor_.observed_cpu_cores(vm_id), kMinCpuBaselineCores);
    controllers.try_emplace(vm_id, CubicController(cfg_, baseline));
    if (!history.contains(vm_id)) {
      history.try_emplace(vm_id, sim::TimeSeries("cap-vm-" + std::to_string(vm_id)));
    }
  }

  // Step every active controller, in ascending VM-id order (the iteration
  // order of the map this store replaced — the event stream depends on it).
  // Once a VM is under control it stays under control until the cubic
  // recovery lifts its cap: throttling often destroys the correlation that
  // identified it (its usage signal is flattened), so membership cannot be
  // re-derived each interval.
  for (int vm_id = controllers.first_key(); vm_id != sim::SlotMap<CubicController>::kEnd;) {
    const int next_id = controllers.next_key(vm_id);
    CubicController& ctrl = controllers.at(vm_id);
    ctrl.step(contended);
    history.at(vm_id).add(now, ctrl.cap());
    if (sink_ != nullptr) {
      sink_->emit_event(sink_source_, now,
                        (res == Resource::kIo ? "io_cap vm=" : "cpu_cap vm=") +
                            std::to_string(vm_id),
                        ctrl.cap());
    }

    if (ctrl.lifted()) {
      if (res == Resource::kIo) {
        actuate([&] { hv.clear_blkio_throttle(vm_id); });
      } else {
        actuate([&] { hv.clear_vcpu_quota(vm_id); });
      }
      controllers.erase(vm_id);
    } else {
      if (res == Resource::kIo) {
        actuate([&] { hv.set_blkio_throttle(vm_id, ctrl.cap_absolute()); });
      } else {
        actuate([&] { hv.set_vcpu_quota(vm_id, ctrl.cap_absolute()); });
      }
    }
    vm_id = next_id;
  }
}

const sim::TimeSeries& NodeManager::io_signal(std::string_view app_id) const {
  const AppId app = cloud_.app_interner().lookup(app_id);
  const sim::TimeSeries* s = app == sim::Interner::kInvalid ? nullptr : io_signals_.find(app);
  return s == nullptr ? kEmptySeries : *s;
}

const sim::TimeSeries& NodeManager::cpi_signal(std::string_view app_id) const {
  const AppId app = cloud_.app_interner().lookup(app_id);
  const sim::TimeSeries* s = app == sim::Interner::kInvalid ? nullptr : cpi_signals_.find(app);
  return s == nullptr ? kEmptySeries : *s;
}

const sim::TimeSeries& NodeManager::io_cap_series(int vm_id) const {
  const sim::TimeSeries* s = io_cap_history_.find(vm_id);
  return s == nullptr ? kEmptySeries : *s;
}

const sim::TimeSeries& NodeManager::cpu_cap_series(int vm_id) const {
  const sim::TimeSeries* s = cpu_cap_history_.find(vm_id);
  return s == nullptr ? kEmptySeries : *s;
}

}  // namespace perfcloud::core
