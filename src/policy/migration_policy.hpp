// Migration policy: the cluster manager's deterministic throttle-escalation
// loop (DESIGN.md §5k).
//
// PerfCloud's node managers throttle identified antagonists locally (CUBIC
// caps); the cloud manager migrates colliding high-priority apps apart
// (§IV-D). This subsystem closes the remaining gap, after PANDA's
// throttle-then-migrate escalation: when an identified antagonist has been
// pinned at its cap floor for N consecutive policy windows while the victim
// application's deviation signal still exceeds the threshold, throttling is
// exhausted — the policy migrates the ANTAGONIST (never the victim's
// scale-out group) to the best-scored feasible host.
//
// Destination choice is pluggable (first-fit or VUPIC-style
// complementary-usage scoring). The §IV-D escalation path keeps its own
// (conflict, population) ranking; the policy only scores its own moves.
//
// Runs on the engine thread in the post-barrier phase of the shared host
// pipeline (registered AFTER the node managers, so it reads the control
// state they just published — same injection discipline as src/faults/).
// Every decision is an EmitSink event under one "policy" source; byte-
// identical across shard counts and emission modes.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "core/node_manager.hpp"
#include "policy/cluster_view.hpp"
#include "sim/emit.hpp"
#include "sim/slot_store.hpp"
#include "sim/types.hpp"

namespace perfcloud::policy {

/// Destination ranking among hosts that pass the hard feasibility filters.
enum class Scoring {
  kFirstFit,        ///< Lowest provisioning index wins.
  kComplementary,   ///< VUPIC-style: least usage-vector overlap wins.
};

struct PolicyParams {
  /// Policy evaluation period; must be a whole multiple of the node
  /// managers' sample_interval_s. <= 0 means every control interval.
  double interval_s = 0.0;
  /// Consecutive at-floor policy windows (with the victim still deviating)
  /// before escalation triggers.
  int floor_windows = 3;
  /// Minimum residency on the current host before the policy may move a VM
  /// again (counted from arrival, or from first policy sight for VMs that
  /// predate the policy).
  double dwell_min_s = 60.0;
  /// After any migration touches a host (as source or destination), the
  /// policy neither moves VMs off it nor targets it for this long.
  double host_cooldown_s = 60.0;
  /// Global cap on concurrently in-flight policy-initiated migrations.
  int max_in_flight = 1;
  /// How long a (vm, host-pair) stays blacklisted after a detected bounce.
  double blacklist_s = 3600.0;
  Scoring scoring = Scoring::kComplementary;
};

class MigrationPolicy final {
 public:
  /// `nms` indexed by host provisioning order, outliving the policy.
  MigrationPolicy(cloud::CloudManager& cloud, std::vector<core::NodeManager*> nms,
                  PolicyParams params);

  /// Emit decisions/counters under a "policy" event source. Call during
  /// setup; nullptr detaches.
  void set_emit_sink(sim::EmitSink* sink);

  /// Arm the policy: joins the shared host pipeline (barrier phase only — no
  /// per-host parallel half) and subscribes to migration lifecycle events.
  /// Call once during setup, AFTER the node managers have started (barrier hooks run
  /// in registration order; the policy must read post-control state).
  void start();

  /// One policy evaluation at `now`. start() drives this from the pipeline;
  /// tests may call it directly on the engine thread.
  void step(sim::SimTime now);

  /// Score `dst` as a destination for the VM `u` (higher wins) under
  /// params().scoring. Reads the view as of its last refresh.
  [[nodiscard]] double score(const VmUsage& u, const HostView& dst) const;

  [[nodiscard]] ClusterView& view() { return view_; }
  [[nodiscard]] const PolicyParams& params() const { return params_; }

  // Lifetime decision counters (also emitted as run-summary counters).
  [[nodiscard]] long triggered() const { return triggered_; }
  [[nodiscard]] long migrated() const { return migrated_; }
  [[nodiscard]] long suppressed_dwell() const { return suppressed_dwell_; }
  [[nodiscard]] long suppressed_cooldown() const { return suppressed_cooldown_; }
  [[nodiscard]] long suppressed_budget() const { return suppressed_budget_; }
  [[nodiscard]] long suppressed_blacklist() const { return suppressed_blacklist_; }
  [[nodiscard]] long no_feasible() const { return no_feasible_; }
  [[nodiscard]] long aborted() const { return aborted_; }

 private:
  /// Per-VM hysteresis state. Keyed by VM id; entries of departed VMs
  /// linger unreachable (ids are never reused cloud-wide).
  struct VmState {
    sim::SimTime placed_at = sim::SimTime(0.0);
    bool placed_known = false;
    core::PerResource<int> floor_streak{};
    bool policy_in_flight = false;  ///< A migration WE started is in flight.
    // Last completed policy move (host indexes), for bounce detection.
    std::int32_t last_src = -1;
    std::int32_t last_dst = -1;
    // Blacklisted unordered host pair; active while now < bl_until.
    std::int32_t bl_a = -1;
    std::int32_t bl_b = -1;
    sim::SimTime bl_until = sim::SimTime(0.0);
  };

  void on_migration(const cloud::MigrationEvent& ev);
  void scan_host(const HostView& h, core::Resource r, sim::SimTime now);
  void consider_migration(const HostView& src, const VmUsage& u, core::Resource r,
                          sim::SimTime now);
  [[nodiscard]] bool pair_blacklisted(const VmState& st, std::size_t a, std::size_t b,
                                      sim::SimTime now) const;
  [[nodiscard]] VmState& state(int vm_id, sim::SimTime now);
  void emit(sim::SimTime t, std::string kind, double value);

  cloud::CloudManager& cloud_;
  PolicyParams params_;
  core::PerfCloudConfig cfg_;  ///< Thresholds/floor copied from the node managers.
  ClusterView view_;
  sim::EmitSink* sink_ = nullptr;
  sim::EmitSink::SourceId source_ = 0;
  sim::SlotMap<VmState> vm_state_;
  /// Last migration activity touching each host (seconds; by host index).
  std::vector<double> host_last_migration_s_;
  std::vector<core::NodeManager::AppId> victim_apps_;  ///< Scratch, reused.
  int in_flight_ = 0;
  int interval_ticks_ = 1;
  int tick_ = 0;
  bool started_ = false;
  long triggered_ = 0;
  long migrated_ = 0;
  long suppressed_dwell_ = 0;
  long suppressed_cooldown_ = 0;
  long suppressed_budget_ = 0;
  long suppressed_blacklist_ = 0;
  long no_feasible_ = 0;
  long aborted_ = 0;
};

}  // namespace perfcloud::policy
