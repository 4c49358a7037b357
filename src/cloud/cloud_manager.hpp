// Cloud manager: the OpenStack-Nova-like registry the node managers query.
//
// Owns the physical hosts (hypervisors) and answers, for every VM: its host,
// its priority, and which high-priority application it belongs to. This is
// the information Algorithm 1 fetches each control interval so that node
// managers stay aware of placement changes. The hypervisors are the one
// record of residency: every answer is derived from their residents.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/emit.hpp"
#include "sim/engine.hpp"
#include "sim/interner.hpp"
#include "virt/hypervisor.hpp"

namespace perfcloud::cloud {

/// What the Nova-like API reports about one VM, built on demand from the
/// hypervisor it is resident on.
struct VmRecord {
  int id = 0;
  std::string name;
  std::string host;
  virt::Priority priority = virt::Priority::kLow;
  std::string app_id;
  /// `app_id`'s id in the manager's app interner, which boot fills
  /// (kInvalid when the VM belongs to no application). Node managers key
  /// their per-app hot-path state by this dense id; the string stays for
  /// emission and reporting.
  sim::Interner::Id app = sim::Interner::kInvalid;
  // The flavor: the shape the policy layer packs hosts by.
  int vcpus = 0;
  sim::Bytes memory = 0.0;
};

/// Live-migration cost model (§IV-D escalation made non-free; DESIGN.md
/// §5j). Default-constructed = disabled: migrate_vm is the legacy
/// instantaneous evict→adopt handoff. With a positive bandwidth, migration
/// is a timed two-phase process: a pre-copy of `memory / bandwidth_bps`
/// seconds during which the VM keeps running on the source while the
/// DESTINATION host's disk serves the page stream, then a stop-and-copy
/// pause of `downtime_s` (Vm::set_paused) before the VM switches hosts.
struct MigrationModel {
  /// 0 disables the model (instantaneous). set_migration_model throws
  /// std::invalid_argument unless this is finite and >= 0, and, when the
  /// model is enabled, unless downtime_s >= 0.
  double bandwidth_bps = 0.0;
  double downtime_s = 0.5;     ///< Stop-and-copy pause; 0 skips the pause.
  [[nodiscard]] bool enabled() const { return bandwidth_bps > 0.0; }
};

/// Lifecycle notifications for listeners that own per-VM state keyed to a
/// placement (node managers). kDeparting fires on the engine thread while
/// the VM is STILL resident on `src` (so caps can be retired through the
/// source hypervisor); kArrived fires right after adoption on `dst`;
/// kAborted fires when a host crash kills an in-flight migration (the VM is
/// back to normal on `src` if the source survived, dead otherwise).
enum class MigrationPhase { kStarted, kDeparting, kArrived, kAborted };

struct MigrationEvent {
  int vm_id = 0;
  MigrationPhase phase = MigrationPhase::kStarted;
  std::string src;
  std::string dst;
};

class CloudManager {
 public:
  explicit CloudManager(sim::Engine& engine) : engine_(engine) {}

  CloudManager(const CloudManager&) = delete;
  CloudManager& operator=(const CloudManager&) = delete;

  /// Provision a physical host. Host names must be unique.
  virt::Hypervisor& add_host(hw::ServerConfig cfg);

  [[nodiscard]] std::vector<std::string> host_names() const;
  [[nodiscard]] virt::Hypervisor& host(const std::string& name);
  [[nodiscard]] std::size_t host_count() const { return hosts_.size(); }

  // --- Host failure lifecycle (fault hooks, HostCrash) ---
  /// Kill a host: every resident VM is destroyed (guest state lost) and the
  /// host is marked down — it rejects boots and migrations and is skipped
  /// as an escalation destination until restored. The hypervisor object
  /// survives (its arbitration task keeps ticking an empty server, which is
  /// harmless and keeps per-host random streams untouched). Returns the
  /// victims' configs in id (= boot) order, each with `id` still set to the
  /// OLD VM id so callers can map old -> new after re-placement. Throws on
  /// unknown or already-down host.
  std::vector<virt::VmConfig> crash_host(const std::string& name);
  /// Bring a crashed host back, empty: it only rejoins placement. Throws on
  /// unknown or already-up host.
  void restore_host(const std::string& name);
  [[nodiscard]] bool host_up(const std::string& name) const;
  /// Names of hosts currently up, in provisioning order.
  [[nodiscard]] std::vector<std::string> up_hosts() const;

  /// Boot a VM on the named host; VM ids are assigned by the manager.
  virt::Vm& boot_vm(const std::string& host_name, virt::VmConfig cfg);

  /// Live-migrate a VM to another host (§IV-D: the cloud manager's
  /// complementary remedy when node managers report problems they cannot
  /// solve locally, e.g. two high-priority applications colocated). The
  /// VM's cgroup counters and guest workload move with it. Throws
  /// std::invalid_argument on unknown VM or host, and on a migration to the
  /// VM's CURRENT host — a self-migration is always a caller bug (it would
  /// otherwise thread a pre-copy, a pause, and the full listener handoff
  /// through state that never changes hosts).
  ///
  /// With the migration model disabled (default) the handoff is
  /// instantaneous. With it enabled, this only STARTS the migration: the
  /// VM keeps running on the source during the pre-copy, pauses for the
  /// stop-and-copy window, and switches hosts (evict → adopt, listeners,
  /// "migrate" event) only when the copy finishes. Throws if the VM is
  /// already migrating.
  void migrate_vm(int vm_id, const std::string& dst_host);

  /// Configure the live-migration cost model. Call during setup; throws if
  /// migrations are currently in flight.
  void set_migration_model(MigrationModel model);
  [[nodiscard]] bool migration_in_flight(int vm_id) const;
  [[nodiscard]] std::size_t migrations_in_flight() const { return migrations_.size(); }
  // Lifetime counters (instantaneous handoffs count as started+completed).
  [[nodiscard]] long migrations_started() const { return migrations_started_; }
  [[nodiscard]] long migrations_completed() const { return migrations_completed_; }
  [[nodiscard]] long migrations_aborted() const { return migrations_aborted_; }

  /// Subscribe to migration lifecycle events (see MigrationPhase). Called
  /// on the engine thread, in registration order; listeners must outlive
  /// the manager's runs. Node managers use this to hand off / retire their
  /// per-VM state when a VM changes hosts.
  using MigrationListener = std::function<void(const MigrationEvent&)>;
  void add_migration_listener(MigrationListener listener);

  /// Node-manager escalation (§IV-D): called when a host has more than one
  /// high-priority application. The manager moves the smaller application
  /// group's VMs on that host to the least-populated other hosts.
  /// Returns the number of VMs moved (0 when there is nowhere to move them
  /// or no collision exists).
  int resolve_high_priority_collision(const std::string& host_name);

  /// Public face of the migration admission check: would a VM of `shape`
  /// fit on `host` given its residents plus every inbound in-flight
  /// migration? The policy layer shares this exact math so a migration it
  /// decides on can never be rejected by the mechanism. Throws on unknown
  /// host; a down host has no capacity.
  [[nodiscard]] bool has_capacity(const std::string& host, const virt::VmConfig& shape) const;

  // --- Nova-like queries (what the node manager fetches, §III-D.2) ---
  // Records are built from the hypervisors' residents on every call, in
  // ascending VM id (= boot) order: a hypervisor lists its VMs in boot or
  // adoption order, which depends on migration history.
  /// Bumped on every placement change (boot, migration, crash, restore).
  /// Node managers and the policy's cluster view cache per-host summaries
  /// against it, so their per-interval steps skip vms_on_host between
  /// placement changes.
  [[nodiscard]] std::uint64_t registry_version() const { return registry_version_; }
  /// Empty for an unknown or down host.
  [[nodiscard]] std::vector<VmRecord> vms_on_host(const std::string& host_name) const;
  /// The application-id interner shared by every node manager on this
  /// cloud. Mutable access because sinks may be attached (and their app
  /// names interned) before any VM of the app has booted.
  [[nodiscard]] sim::Interner& app_interner() { return app_interner_; }
  [[nodiscard]] const sim::Interner& app_interner() const { return app_interner_; }
  /// Every VM across the cloud.
  [[nodiscard]] std::vector<VmRecord> all_vms() const;
  /// Hosts that currently run at least one VM of the given application, in
  /// the order of their lowest such VM id.
  [[nodiscard]] std::vector<std::string> hosts_of_app(const std::string& app_id) const;

  /// Register the arbitration ticks of all hosts with the engine as ONE
  /// sharded periodic (a host-shard sweep, not one periodic per hypervisor):
  /// every `dt` the engine runs each host's tick across its shard pool and
  /// barriers before anything else fires. Call once, after all hosts exist
  /// and before running.
  void start_ticking(double dt);

  /// Host-shard registry for per-host control pipelines (the node managers).
  /// All registrations share ONE batched engine periodic of this `period`
  /// (every call must pass the same value), created at the first call:
  /// each firing runs every `parallel_fn` across the engine's shard pool —
  /// `parallel_fn` must be thread-confined to its host — then, after the
  /// barrier, every non-null `barrier_fn` sequentially in registration
  /// order. Cross-host work (migration, escalation, the policy tick) belongs
  /// in barrier_fn; a registration may pass a null `parallel_fn` to hook the
  /// barrier phase only (the migration policy does — it has no per-host
  /// parallel half).
  void register_host_pipeline(double period, sim::Engine::PeriodicFn parallel_fn,
                              sim::Engine::PeriodicFn barrier_fn = nullptr);

  [[nodiscard]] sim::Engine& engine() { return engine_; }
  [[nodiscard]] double tick_dt() const { return tick_dt_; }

  /// Report cloud-level placement activity (VM migrations, escalation
  /// resolutions) through `sink` as events under one "cloud" source. These
  /// emissions happen on the engine thread (setup or the post-barrier
  /// escalation phase), never inside a shard task. Call during setup;
  /// nullptr detaches.
  void set_emit_sink(sim::EmitSink* sink);

 private:
  struct Host {
    std::string name;
    std::unique_ptr<virt::Hypervisor> hypervisor;
    bool up = true;
  };

  /// One in-flight live migration: the pre-copy/pause/finish events plus
  /// what finish/abort need to restore (whether WE paused the VM).
  struct Migration {
    int vm_id = 0;
    std::string src;
    std::string dst;
    sim::EventHandle pause_event;
    sim::EventHandle finish_event;
    bool paused = false;            ///< Stop-and-copy pause currently applied.
    bool resume_on_finish = true;   ///< False when a fault had it paused already.
  };

  [[nodiscard]] const Host* find_host(const std::string& name) const;
  [[nodiscard]] Host* find_host(const std::string& name);
  /// The host `vm_id` is resident on; nullptr when no host runs it.
  [[nodiscard]] Host* host_of(int vm_id);
  [[nodiscard]] Migration* find_migration(int vm_id);
  /// Append `h`'s residents to `out` as records, in hypervisor order.
  void append_records(const Host& h, std::vector<VmRecord>& out) const;

  /// Admission check for migration destinations: resident vCPUs + memory,
  /// plus every inbound in-flight migration, plus `shape`, must fit the
  /// host's cores and DRAM.
  [[nodiscard]] bool host_has_capacity(const Host& h, const virt::VmConfig& shape) const;

  void notify_migration(int vm_id, MigrationPhase phase, const std::string& src,
                        const std::string& dst);
  /// The actual host switch, shared by the instantaneous path and
  /// finish_migration: kDeparting notification (VM still on src), evict →
  /// adopt, kArrived notification, "migrate" emission.
  void complete_handoff(int vm_id, Host& src, Host& dst);
  void start_live_migration(int vm_id, Host& src, Host& dst);
  void pause_for_migration(int vm_id);
  void finish_migration(int vm_id);
  /// Kill every in-flight migration touching `host` (it is about to crash):
  /// cancel the pending events, end the destination inflow, unpause the VM
  /// if the source survives and we paused it, notify kAborted.
  void abort_migrations_touching(const std::string& host);

  sim::Engine& engine_;
  sim::Interner app_interner_;
  sim::EmitSink* sink_ = nullptr;
  sim::EmitSink::SourceId sink_source_ = 0;
  std::vector<Host> hosts_;
  std::uint64_t registry_version_ = 1;
  MigrationModel migration_model_;
  std::vector<Migration> migrations_;
  std::vector<MigrationListener> migration_listeners_;
  long migrations_started_ = 0;
  long migrations_completed_ = 0;
  long migrations_aborted_ = 0;
  int next_vm_id_ = 1;
  double tick_dt_ = 0.0;
  sim::ShardedPeriodic* pipeline_sweep_ = nullptr;
  double pipeline_period_ = 0.0;
  std::vector<sim::Engine::PeriodicFn> pipeline_barriers_;
};

}  // namespace perfcloud::cloud
