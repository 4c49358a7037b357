// Node manager: the per-host PerfCloud agent (Algorithm 1, §III-D.2).
//
// Every control interval it (1) fetches the host's VM records from the
// cloud manager — priorities and application grouping, so placement changes
// are picked up automatically; (2) samples the performance monitor;
// (3) computes the deviation signals for each high-priority application;
// (4) identifies antagonists by cross-correlation; and (5) runs the CUBIC
// cap controllers and actuates CPU quotas and blkio throttles through the
// hypervisor.
//
// Steps (3)-(5) run once per core::Resource, I/O first: each resource owns
// one ResourceLoop (deviation signals, cap controllers, identification
// stamps, cap history, scores), and the only per-resource switches are the
// cap baseline and the cap actuator.
//
// Memory layout (DESIGN.md §5i): all per-quantum state is keyed by dense
// integer ids — interned AppIds for per-application signals and sink
// columns, VM ids for controllers, identification stamps, and cap history —
// and lives in slot-indexed stores, so the steady-state quantum walks
// contiguous arrays and allocates nothing. The registry view (app grouping
// + suspects) is cached against the cloud's registry version and rebuilt
// only when placement changes. Per-quantum scratch (sample pointers,
// suspect signal lists) is reused function-local thread_local vectors: each
// thread has its own, and they stay live until local_step is next called on
// that thread, so local_step must not be re-entered on its own thread.
#pragma once

#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "core/config.hpp"
#include "core/cubic.hpp"
#include "core/detector.hpp"
#include "core/identifier.hpp"
#include "core/monitor.hpp"
#include "sim/emit.hpp"
#include "sim/interner.hpp"
#include "sim/rng.hpp"
#include "sim/slot_store.hpp"

namespace perfcloud::core {

class NodeManager {
 public:
  /// Interned application id (see cloud::CloudManager::app_interner()).
  using AppId = sim::Interner::Id;

  /// Throws std::invalid_argument if `cfg` is unusable: sample_interval_s
  /// not finite and > 0; correlation_window zero or below
  /// min_correlation_samples; monitor_series_capacity in
  /// [1, correlation_window); ewma_alpha, beta outside (0, 1];
  /// min_cap_fraction, min_usage_fraction outside [0, 1]; a NaN detection or
  /// correlation threshold or min_ops_per_interval; identification_memory_s
  /// negative or NaN; gamma not finite and > 0; cap_lift_fraction not finite
  /// and > 1.
  NodeManager(cloud::CloudManager& cloud, std::string host_name, PerfCloudConfig cfg = {});

  NodeManager(const NodeManager&) = delete;
  NodeManager& operator=(const NodeManager&) = delete;

  /// Register this host's control pipeline with the cloud manager's shard
  /// sweep (one batched engine periodic for all node managers, not one
  /// each). Call after the cloud has started ticking (the monitor must
  /// sample post-arbitration counters).
  void start();

  /// One Algorithm-1 iteration; exposed for tests and benches. Equivalent
  /// to local_step + escalation, run back to back.
  void control_step(sim::SimTime now);

  /// The host-local half of an iteration: sample, detect, identify, run the
  /// cap controllers and actuate on this host's hypervisor. Thread-confined
  /// — touches only this node manager's state, this host's hypervisor, and
  /// read-only cloud-registry queries — so the shard sweep runs all hosts'
  /// local steps in parallel. A detected high-priority application collision
  /// is only *recorded* here (escalation migrates VMs across hosts).
  void local_step(sim::SimTime now);

  /// The cross-host half: if local_step flagged an application collision,
  /// ask the cloud manager to separate the apps (§IV-D). Runs after the
  /// sweep barrier, sequentially in host order.
  void run_pending_escalation(sim::SimTime now);

  /// Monitoring-only mode: sample and compute signals but never actuate.
  /// Used by the "default system" baseline and by the detection figures.
  void set_control_enabled(bool enabled) { control_enabled_ = enabled; }

  /// Route this node manager's observation output through `sink` instead of
  /// leaving it to end-of-run series assembly: deviation-signal samples of
  /// the given high-priority applications become trace columns
  /// ("<host>/<app>/io_dev" and ".../cpi_dev"), cap updates and fresh
  /// antagonist identifications become report events, and per-host counters
  /// feed the run summary. Emission happens inside local_step — thread-
  /// confined to this host's shard task; the sink stages it and writes off
  /// the barrier. Call during setup, before the first control interval. The
  /// in-memory series remain (the identifier correlates against them and
  /// the figure benches read them); what moves off the control path is the
  /// formatting and file output.
  void attach_sink(sim::EmitSink& sink, const std::vector<std::string>& app_ids);

  // --- Fault hooks ---
  /// CapCommandLoss: while active, every actuation (set/clear CPU quota or
  /// blkio throttle) is silently dropped with probability `drop_probability`.
  /// The drop decisions come from a dedicated RNG seeded here — never from
  /// the engine's stream — and are drawn only per actuation attempt, so they
  /// are identical across shard counts. Dropped *clears* leave a stale cap
  /// in place until the controller's next interval, exactly the failure mode
  /// the CUBIC loop must re-converge through.
  void set_cap_command_loss(double drop_probability, std::uint64_t seed);
  void clear_cap_command_loss();
  [[nodiscard]] long cap_commands_dropped() const { return cap_commands_dropped_; }

  /// HostCrash cleanup: drop all controller and identification state of a VM
  /// that no longer exists (actuating on a dead VM id would throw). Cap
  /// history is kept — it is plot data, not control state. The VM's slots
  /// are recycled; a later VM can never see its predecessor's state because
  /// cloud-wide VM ids are never reused and recycled slots are constructed
  /// fresh. Monitor series of the dead VM linger unreachable (crashed VMs
  /// never return); contrast the migration handoff below, which retires
  /// them because a migrated VM CAN come back.
  void forget_vm(int vm_id);

  [[nodiscard]] const std::string& host_name() const { return host_; }

  /// First time each suspect was ever identified for one resource —
  /// detection/identification-latency scoring for the chaos experiments.
  /// Unlike the rolling identification memory, these never update after the
  /// first cross. Cold insert-only state, kept as ordered maps for cheap
  /// iteration by the chaos report.
  [[nodiscard]] const std::map<int, sim::SimTime>& first_identified(Resource r) const {
    return loops_[r].first_identified;
  }
  [[nodiscard]] const std::map<int, sim::SimTime>& io_first_identified() const {
    return first_identified(kIo);
  }
  [[nodiscard]] const std::map<int, sim::SimTime>& cpu_first_identified() const {
    return first_identified(kCpu);
  }

  // --- Policy-facing introspection (src/policy/, engine thread only) ---
  // The ClusterView aggregator folds these into its per-host state every
  // policy interval, post-barrier. All of them are allocation-free: the
  // armed-but-idle policy tick is part of the zero-steady-state-allocation
  // contract.
  /// The node manager's parameter set (thresholds, floor fraction, interval).
  [[nodiscard]] const PerfCloudConfig& config() const { return cfg_; }
  /// Latest sample of one protected application's deviation signal for
  /// resource r on this host; negative when the app has no samples here.
  [[nodiscard]] double latest_deviation(Resource r, AppId app) const {
    const sim::TimeSeries* s = loops_[r].signals.find(app);
    return s == nullptr || s->empty() ? -1.0 : s->value(s->size() - 1);
  }
  /// Visit the protected (high-priority) applications resident on this host
  /// as of the last registry refresh, in app-name order: fn(AppId).
  template <typename Fn>
  void for_each_protected_app(Fn&& fn) const {
    for (const AppGroup& g : view_apps_) fn(g.app);
  }
  /// Visit every live cap controller of resource r in ascending VM-id
  /// order: fn(vm_id, normalized_cap, ever_decreased). A controller exists
  /// only for an identified antagonist, so "capped" implies "identified";
  /// ever_decreased distinguishes a cap actually driven down from the 1.0 a
  /// fresh controller starts at.
  template <typename Fn>
  void for_each_cap(Resource r, Fn&& fn) const {
    const sim::SlotMap<CubicController>& controllers = loops_[r].controllers;
    for (int id = controllers.first_key(); id != sim::SlotMap<CubicController>::kEnd;
         id = controllers.next_key(id)) {
      const CubicController& ctrl = controllers.at(id);
      fn(id, ctrl.cap(), ctrl.ever_decreased());
    }
  }

  // --- Introspection for tests and figure benches (cold path) ---
  [[nodiscard]] PerformanceMonitor& monitor() { return monitor_; }
  /// Deviation-signal series of one high-priority application on this host.
  /// Heterogeneous lookup: the name resolves through the app interner, no
  /// temporary std::string and no string-keyed tree walk.
  [[nodiscard]] const sim::TimeSeries& deviation_signal(Resource r,
                                                        std::string_view app_id) const;
  [[nodiscard]] const sim::TimeSeries& io_signal(std::string_view app_id) const {
    return deviation_signal(kIo, app_id);
  }
  [[nodiscard]] const sim::TimeSeries& cpi_signal(std::string_view app_id) const {
    return deviation_signal(kCpu, app_id);
  }
  /// Normalized-cap series of a throttled VM (1.0 = baseline usage); empty
  /// if the VM was never throttled for that resource.
  [[nodiscard]] const sim::TimeSeries& io_cap_series(int vm_id) const {
    return or_empty(loops_[kIo].cap_history.find(vm_id));
  }
  [[nodiscard]] const sim::TimeSeries& cpu_cap_series(int vm_id) const {
    return or_empty(loops_[kCpu].cap_history.find(vm_id));
  }
  /// Latest antagonist correlation scores (per resource), for Fig 5/6.
  [[nodiscard]] const std::vector<SuspectScore>& last_io_scores() const {
    return loops_[kIo].scores;
  }
  [[nodiscard]] const std::vector<SuspectScore>& last_cpu_scores() const {
    return loops_[kCpu].scores;
  }

 private:
  /// One resource's detect-identify-throttle state.
  struct ResourceLoop {
    /// Per-application deviation signals, keyed by AppId.
    sim::SlotMap<sim::TimeSeries> signals;
    /// Per-VM control state, keyed by VM id (dense slot stores; see §5i).
    sim::SlotMap<CubicController> controllers;
    /// Most recent time each suspect's correlation crossed the threshold.
    sim::SlotMap<sim::SimTime> identified_at;
    /// First time it ever crossed (insert-only; chaos-experiment scoring).
    std::map<int, sim::SimTime> first_identified;
    /// Cap history persists after a controller retires (Fig 10 plots it).
    sim::SlotMap<sim::TimeSeries> cap_history;
    /// This interval's correlation scores, every app group's appended.
    std::vector<SuspectScore> scores;
  };

  /// One high-priority application's VMs on this host, plus the low-priority
  /// suspect list — the parsed registry view local_step consumes. Rebuilt
  /// from the cloud registry only when its version changes; between
  /// placement changes the per-quantum cost is one integer compare.
  struct AppGroup {
    AppId app = sim::Interner::kInvalid;
    std::vector<int> vm_ids;  ///< Registry (boot) order.
  };

  /// Migration handoff (DESIGN.md §5j), registered with the cloud manager
  /// in start(). On kDeparting from THIS host: retire the departing VM's
  /// caps through the still-resident cgroup (the controller that owns them
  /// does not travel), then drop controller/identification state
  /// (forget_vm) plus its monitor slot. On kArrived at THIS host: drop any
  /// stale controller/monitor state from a previous residency, so the
  /// first sample re-primes the cumulative counter baseline instead of
  /// booking everything the VM did elsewhere as one interval's delta spike.
  void on_migration(const cloud::MigrationEvent& ev);

  /// Re-parse the host's registry records if the cloud registry changed.
  /// Groups are ordered by application *name* (the emission/iteration order
  /// the string-keyed maps used to give for free), suspects in registry
  /// order.
  void refresh_view();

  /// Step (5) for one resource: start controllers for the suspects
  /// identified within the memory horizon (when `contended`), then step
  /// every live controller and actuate its cap.
  void run_resource_control(Resource r, bool contended, sim::SimTime now);
  [[nodiscard]] sim::TimeSeries& signal(Resource r, AppId app);
  static const sim::TimeSeries& or_empty(const sim::TimeSeries* s) {
    return s == nullptr ? kEmptySeries : *s;
  }

  cloud::CloudManager& cloud_;
  std::string host_;
  /// This host's hypervisor, resolved once (it outlives crashes: the object
  /// survives, only its VMs die) so the per-interval step skips the cloud
  /// manager's name lookup.
  virt::Hypervisor& hv_;
  PerfCloudConfig cfg_;
  sim::EmitSink* sink_ = nullptr;
  sim::EmitSink::SourceId sink_source_ = 0;
  /// Deviation-signal trace columns per resource, keyed by AppId.
  sim::SlotMap<PerResource<sim::EmitSink::SourceId>> sink_columns_;
  PerformanceMonitor monitor_;
  InterferenceDetector detector_;
  AntagonistIdentifier identifier_;
  bool control_enabled_ = true;
  bool started_ = false;
  bool escalation_pending_ = false;
  /// Registry version at which an escalation ran and changed nothing —
  /// the collision is unresolvable with the cloud as-is (no admissible
  /// destination), so re-running the scan every quantum is pure overhead
  /// (and allocates, violating the steady-state contract). Any registry
  /// mutation bumps the version and re-arms escalation. 0 = never no-oped.
  std::uint64_t escalation_noop_version_ = 0;

  PerResource<ResourceLoop> loops_;
  // CapCommandLoss fault state (see set_cap_command_loss).
  bool cap_loss_active_ = false;
  double cap_loss_p_ = 0.0;
  sim::Rng cap_loss_rng_{0};
  long cap_commands_dropped_ = 0;
  // Cached registry view (see refresh_view), keyed to the cloud registry
  // version. view_version_ == 0 means never built (versions start at 1).
  std::uint64_t view_version_ = 0;
  std::vector<AppGroup> view_apps_;
  std::vector<int> view_suspects_;
  static const sim::TimeSeries kEmptySeries;
};

}  // namespace perfcloud::core
