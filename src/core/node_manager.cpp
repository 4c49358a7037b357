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
/// Identification counter keys, kept literal so a bump builds no string.
constexpr PerResource<std::string_view> kIdentificationCounter{"io_antagonist_identifications",
                                                                "cpu_antagonist_identifications"};

void require(bool ok, const char* what) {
  if (!ok) throw std::invalid_argument(std::string("PerfCloudConfig: ") + what);
}

/// Reject settings that would otherwise fail silently or deep inside a run.
const PerfCloudConfig& validated(const PerfCloudConfig& cfg) {
  require(std::isfinite(cfg.sample_interval_s) && cfg.sample_interval_s > 0.0,
          "sample_interval_s must be finite and > 0");
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
  // A NaN op floor rejects every iowait sample; a NaN memory never remembers.
  require(!std::isnan(cfg.min_ops_per_interval), "min_ops_per_interval is NaN");
  require(cfg.identification_memory_s >= 0.0, "identification_memory_s must be >= 0");
  require(cfg.min_usage_fraction >= 0.0 && cfg.min_usage_fraction <= 1.0,
          "min_usage_fraction must be in [0, 1]");
  // CUBIC's k = cbrt(beta * cap / gamma): a zero, negative or non-finite
  // gamma makes the recovery curve infinite or NaN and freezes the cap, and
  // a beta outside (0, 1] turns the decrease into a negative or NaN cap.
  require(std::isfinite(cfg.gamma) && cfg.gamma > 0.0, "gamma must be finite and > 0");
  require(cfg.beta > 0.0 && cfg.beta <= 1.0, "beta must be in (0, 1]");
  require(cfg.min_cap_fraction >= 0.0 && cfg.min_cap_fraction <= 1.0,
          "min_cap_fraction must be in [0, 1]");
  // At 1.0 a fresh controller (cap 1.0) retires on its first uncontended step.
  require(std::isfinite(cfg.cap_lift_fraction) && cfg.cap_lift_fraction > 1.0,
          "cap_lift_fraction must be finite and > 1");
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
  } else if (ev.phase == cloud::MigrationPhase::kArrived && ev.dst == host_) {
    // Stale state from a PREVIOUS residency of this VM here: the monitor
    // slot still holds the old cumulative-counter baseline (the counters
    // kept growing on the other host — the first delta would be a spike).
    // Retire it; it rebuilds from the first post-arrival sample.
    forget_vm(ev.vm_id);
    monitor_.forget_vm(ev.vm_id);
  }
}

void NodeManager::attach_sink(sim::EmitSink& sink, const std::vector<std::string>& app_ids) {
  sink_ = &sink;
  sink_source_ = sink.add_event_source(host_);
  for (const std::string& app : app_ids) {
    const AppId id = cloud_.app_interner().intern(app);
    sink_columns_.try_emplace(
        id, PerResource<sim::EmitSink::SourceId>{
                sink.add_trace_column(host_ + "/" + app + "/io_dev"),
                sink.add_trace_column(host_ + "/" + app + "/cpi_dev")});
  }
}

sim::TimeSeries& NodeManager::signal(Resource r, AppId app) {
  sim::SlotMap<sim::TimeSeries>& store = loops_[r].signals;
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
  for (const cloud::VmRecord& r : cloud_.vms_on_host(host_)) {
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
  }
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

  PerResource<bool> any_contended{};
  for (ResourceLoop& loop : loops_) loop.scores.clear();

  // The suspect signal lists are the same for every application group (they
  // depend only on the registry's suspect set), so gather them once per
  // quantum, above the group loop. Nothing inside the loop mutates the
  // monitor, so the series pointers stay valid throughout.
  thread_local PerResource<std::vector<SuspectSignal>> suspects;
  for (std::vector<SuspectSignal>& v : suspects) v.clear();
  for (const int id : view_suspects_) {
    for (const Resource r : kResources) {
      suspects[r].push_back(SuspectSignal{id, &monitor_.suspect_series(r, id)});
    }
  }

  for (const AppGroup& g : view_apps_) {
    thread_local std::vector<const VmSample*> samples;
    samples.clear();
    for (const int id : g.vm_ids) samples.push_back(monitor_.latest(id));
    const DetectionResult det = detector_.evaluate(samples);
    const auto* cols = sink_ == nullptr ? nullptr : sink_columns_.find(g.app);

    for (const Resource r : kResources) {
      ResourceLoop& loop = loops_[r];
      sim::TimeSeries& sig = signal(r, g.app);
      sig.add(now, det.deviation[r]);
      if (cols != nullptr) sink_->emit_sample((*cols)[r], now, det.deviation[r]);
      any_contended[r] |= det.contended[r];

      // Record an identification timestamp; emit a report event only when
      // the suspect was not already identified within the memory horizon, so
      // the event stream marks identification *episodes*, not every interval
      // of a sustained one.
      //
      // Blackout guard: while a suspect's monitor is dark, its series carry
      // only zero-fill — no new evidence — so it may KEEP an identification
      // it already earned (the memory horizon decays it) but can never NEWLY
      // cross the threshold. The identifier itself cannot tell "dark" from
      // "idle"; the node manager can, because it owns the monitor.
      const std::size_t start = loop.scores.size();
      identifier_.score(sig, suspects[r], loop.scores);
      for (std::size_t i = start; i < loop.scores.size(); ++i) {
        const SuspectScore& s = loop.scores[i];
        if (!s.antagonist || monitor_.blacked_out(s.vm_id)) continue;
        loop.first_identified.try_emplace(s.vm_id, now);
        const auto [stamp, inserted] = loop.identified_at.try_emplace(s.vm_id, now);
        const bool fresh = inserted || now - *stamp > cfg_.identification_memory_s;
        *stamp = now;
        if (fresh && sink_ != nullptr) {
          sink_->emit_event(sink_source_, now,
                            std::string(name(r)) + "_antagonist vm=" + std::to_string(s.vm_id),
                            s.correlation);
          sink_->bump_counter(sink_source_, kIdentificationCounter[r]);
        }
      }
    }
  }
  if (sink_ != nullptr) sink_->bump_counter(sink_source_, "control_intervals");

  if (!control_enabled_) return;
  for (const Resource r : kResources) run_resource_control(r, any_contended[r], now);
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
  for (ResourceLoop& loop : loops_) {
    loop.controllers.erase(vm_id);
    loop.identified_at.erase(vm_id);
  }
}

void NodeManager::run_resource_control(Resource r, bool contended, sim::SimTime now) {
  ResourceLoop& loop = loops_[r];

  // CapCommandLoss fault: each actuation attempt may be silently eaten by
  // the (simulated) lossy control channel. One RNG draw per attempt, from
  // the fault's own stream — engine randomness is never touched.
  const auto actuate = [&](int vm_id, const CubicController& ctrl) {
    if (cap_loss_active_ && cap_loss_rng_.bernoulli(cap_loss_p_)) {
      ++cap_commands_dropped_;
      if (sink_ != nullptr) sink_->bump_counter(sink_source_, "cap_commands_dropped");
      return;
    }
    if (r == kIo) {
      if (ctrl.lifted()) {
        hv_.clear_blkio_throttle(vm_id);
      } else {
        hv_.set_blkio_throttle(vm_id, ctrl.cap_absolute());
      }
    } else if (ctrl.lifted()) {
      hv_.clear_vcpu_quota(vm_id);
    } else {
      hv_.set_vcpu_quota(vm_id, ctrl.cap_absolute());
    }
  };

  // A suspect stays identified for a while after its correlation peak: the
  // strongest evidence appears at the antagonist's arrival, which may lead
  // the deviation signal's threshold crossing by an interval or two. Start
  // a controller for each such antagonist not yet under control; the
  // initial cap equals the VM's currently observed usage (Eq. 1
  // initialization).
  if (contended) {
    for (const int vm_id : view_suspects_) {
      const sim::SimTime* t = loop.identified_at.find(vm_id);
      const bool recent = t != nullptr && now - *t <= cfg_.identification_memory_s;
      if (!recent || loop.controllers.contains(vm_id)) continue;
      const double baseline =
          r == kIo ? std::max(monitor_.observed_io_bps(vm_id), kMinIoBaselineBps)
                   : std::max(monitor_.observed_cpu_cores(vm_id), kMinCpuBaselineCores);
      loop.controllers.try_emplace(vm_id, CubicController(cfg_, baseline));
      if (!loop.cap_history.contains(vm_id)) {
        loop.cap_history.try_emplace(vm_id, sim::TimeSeries("cap-vm-" + std::to_string(vm_id)));
      }
    }
  }

  // Step every active controller, in ascending VM-id order (the iteration
  // order of the map this store replaced — the event stream depends on it).
  // Once a VM is under control it stays under control until the cubic
  // recovery lifts its cap: throttling often destroys the correlation that
  // identified it (its usage signal is flattened), so membership cannot be
  // re-derived each interval.
  for (int vm_id = loop.controllers.first_key(); vm_id != sim::SlotMap<CubicController>::kEnd;) {
    const int next_id = loop.controllers.next_key(vm_id);
    CubicController& ctrl = loop.controllers.at(vm_id);
    ctrl.step(contended);
    loop.cap_history.at(vm_id).add(now, ctrl.cap());
    if (sink_ != nullptr) {
      sink_->emit_event(sink_source_, now,
                        std::string(name(r)) + "_cap vm=" + std::to_string(vm_id), ctrl.cap());
    }
    actuate(vm_id, ctrl);
    if (ctrl.lifted()) loop.controllers.erase(vm_id);
    vm_id = next_id;
  }
}

const sim::TimeSeries& NodeManager::deviation_signal(Resource r, std::string_view app_id) const {
  const AppId app = cloud_.app_interner().lookup(app_id);
  return or_empty(app == sim::Interner::kInvalid ? nullptr : loops_[r].signals.find(app));
}

}  // namespace perfcloud::core
