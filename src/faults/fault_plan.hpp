// Declarative, seeded fault schedule (the chaos layer's input).
//
// A FaultPlan is an ordered list of FaultSpecs: what breaks, where, when,
// for how long, and how hard. Plans are pure data — nothing happens until a
// FaultInjector arms one against a running engine — so the same plan can be
// replayed against any shard count or emission mode and must produce
// byte-identical simulations (the chaos analogue of the golden-trace gates).
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace perfcloud::faults {

/// Everything the chaos layer knows how to break.
enum class FaultKind {
  /// The hypervisor dies and takes every resident VM with it. The cloud
  /// manager re-places the victims on surviving hosts (spread or packed),
  /// the framework kills the lost attempts and re-runs those tasks.
  /// Recovery brings the host back empty; it only rejoins placement.
  kHostCrash,
  /// The guest is paused (no demand, no grants) and resumes on recovery —
  /// the VM-level freeze that turns a worker into a straggler.
  kVmStall,
  /// The host's block device serves at `magnitude` times its healthy
  /// throughput (IOPS and bandwidth ceilings both scale).
  kDiskDegrade,
  /// The host's performance monitor goes dark: no samples are recorded for
  /// the targeted VM (or the whole host) until recovery. Exercises the
  /// paper's missing-as-zero correlation rule end to end.
  kMonitorBlackout,
  /// Each node-manager actuation (set/clear CPU quota or blkio throttle) is
  /// silently dropped with probability `magnitude`, forcing the CUBIC
  /// controllers to re-converge through a lossy control channel.
  kCapCommandLoss,
  /// Every running task attempt fails independently at `magnitude` per
  /// attempt-second (the framework's retry loop re-runs them). The
  /// Framework::set_task_failure_rate knob is the degenerate form of this
  /// fault: a kTaskFailure injected at t=0 that never recovers.
  kTaskFailure,
};

[[nodiscard]] std::string_view to_string(FaultKind kind);

/// One scheduled fault. `magnitude` is kind-specific (see FaultKind).
struct FaultSpec {
  FaultKind kind = FaultKind::kHostCrash;
  /// Target host (every kind except kVmStall and kTaskFailure).
  std::string host;
  /// Target VM (kVmStall; optional for kMonitorBlackout: -1 darkens the
  /// whole host's monitor, >= 0 only that VM's samples).
  int vm_id = -1;
  double inject_at_s = 0.0;
  /// Seconds until recovery; < 0 means the fault never recovers.
  double duration_s = -1.0;
  double magnitude = 1.0;
  /// kHostCrash only: re-place victims packed onto the least-index surviving
  /// host instead of spread over the least-populated ones.
  bool packed_replacement = false;

  [[nodiscard]] bool recovers() const { return duration_s >= 0.0; }
  [[nodiscard]] double recover_at_s() const { return inject_at_s + duration_s; }
  /// "host_crash host=host-0" / "vm_stall vm=7" — the label used in emitted
  /// events and error messages.
  [[nodiscard]] std::string label() const;
};

/// Ordered, validated collection of FaultSpecs plus the seed the injector
/// derives per-host randomness (cap-loss drop decisions) from. The seed is
/// independent of the engine's RNG so that attaching a plan — even a
/// non-empty one — never perturbs the simulation's existing random streams.
class FaultPlan {
 public:
  FaultPlan() = default;
  explicit FaultPlan(std::uint64_t seed) : seed_(seed) {}

  // --- Builder helpers (validated; all throw std::invalid_argument) ---
  FaultPlan& host_crash(std::string host, double at_s, double duration_s = -1.0,
                        bool packed_replacement = false);
  FaultPlan& vm_stall(int vm_id, double at_s, double duration_s);
  FaultPlan& disk_degrade(std::string host, double at_s, double duration_s, double factor);
  FaultPlan& monitor_blackout(std::string host, double at_s, double duration_s, int vm_id = -1);
  FaultPlan& cap_command_loss(std::string host, double at_s, double duration_s,
                              double drop_probability);
  FaultPlan& task_failure(double rate_per_s, double at_s, double duration_s = -1.0);

  /// Validate and append a spec. Rejects malformed specs (negative times,
  /// out-of-range magnitudes, missing targets) and specs whose active
  /// interval overlaps an earlier spec of the same kind on the same target —
  /// overlap would make apply/revert order-dependent.
  FaultPlan& add(FaultSpec spec);

  [[nodiscard]] const std::vector<FaultSpec>& specs() const { return specs_; }
  [[nodiscard]] std::size_t size() const { return specs_.size(); }
  [[nodiscard]] bool empty() const { return specs_.empty(); }
  [[nodiscard]] std::uint64_t seed() const { return seed_; }

 private:
  std::vector<FaultSpec> specs_;
  std::uint64_t seed_ = 0xfa17;
};

}  // namespace perfcloud::faults
