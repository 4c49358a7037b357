#include "faults/fault_plan.hpp"

#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

namespace perfcloud::faults {

std::string_view to_string(FaultKind kind) {
  switch (kind) {
    case FaultKind::kHostCrash: return "host_crash";
    case FaultKind::kVmStall: return "vm_stall";
    case FaultKind::kDiskDegrade: return "disk_degrade";
    case FaultKind::kMonitorBlackout: return "monitor_blackout";
    case FaultKind::kCapCommandLoss: return "cap_command_loss";
    case FaultKind::kTaskFailure: return "task_failure";
  }
  return "unknown";
}

std::string FaultSpec::label() const {
  std::string out{to_string(kind)};
  if (!host.empty()) out += " host=" + host;
  if (vm_id >= 0) out += " vm=" + std::to_string(vm_id);
  return out;
}

namespace {

[[noreturn]] void reject(const FaultSpec& spec, const std::string& why) {
  throw std::invalid_argument("FaultPlan: " + spec.label() + ": " + why);
}

bool needs_host(FaultKind kind) {
  return kind != FaultKind::kVmStall && kind != FaultKind::kTaskFailure;
}

/// Two specs target the same thing when kind, host, and VM all match.
bool same_target(const FaultSpec& a, const FaultSpec& b) {
  return a.kind == b.kind && a.host == b.host && a.vm_id == b.vm_id;
}

bool intervals_overlap(const FaultSpec& a, const FaultSpec& b) {
  const double a_end = a.recovers() ? a.recover_at_s() : std::numeric_limits<double>::infinity();
  const double b_end = b.recovers() ? b.recover_at_s() : std::numeric_limits<double>::infinity();
  return a.inject_at_s < b_end && b.inject_at_s < a_end;
}

}  // namespace

FaultPlan& FaultPlan::add(FaultSpec spec) {
  // Negated so NaN is rejected too: a NaN duration reads as "never
  // recovers", a NaN rate injects nothing, and an infinite time never fires.
  if (!(spec.inject_at_s >= 0.0 && std::isfinite(spec.inject_at_s))) {
    reject(spec, "inject time must be finite and >= 0");
  }
  if (!(spec.duration_s < 0.0 || std::isfinite(spec.duration_s))) {
    reject(spec, "duration must be finite (or negative: never recovers)");
  }
  if (needs_host(spec.kind) && spec.host.empty()) reject(spec, "target host required");
  if (spec.kind == FaultKind::kVmStall && spec.vm_id < 0) reject(spec, "target VM required");
  switch (spec.kind) {
    case FaultKind::kVmStall:
      if (!spec.recovers()) reject(spec, "a stall must have a finite duration");
      break;
    case FaultKind::kDiskDegrade:
      if (!(spec.magnitude > 0.0 && spec.magnitude <= 1.0)) {
        reject(spec, "degradation factor must be in (0, 1]");
      }
      break;
    case FaultKind::kCapCommandLoss:
      if (!(spec.magnitude >= 0.0 && spec.magnitude <= 1.0)) {
        reject(spec, "drop probability must be in [0, 1]");
      }
      break;
    case FaultKind::kTaskFailure:
      if (!(spec.magnitude >= 0.0 && std::isfinite(spec.magnitude))) {
        reject(spec, "failure rate must be finite and >= 0");
      }
      break;
    case FaultKind::kHostCrash:
    case FaultKind::kMonitorBlackout:
      break;
  }
  for (const FaultSpec& prior : specs_) {
    if (same_target(prior, spec) && intervals_overlap(prior, spec)) {
      reject(spec, "overlaps an earlier " + std::string(to_string(prior.kind)) +
                       " on the same target (apply/revert would be order-dependent)");
    }
  }
  specs_.push_back(std::move(spec));
  return *this;
}

FaultPlan& FaultPlan::host_crash(std::string host, double at_s, double duration_s) {
  return add(FaultSpec{.kind = FaultKind::kHostCrash,
                       .host = std::move(host),
                       .inject_at_s = at_s,
                       .duration_s = duration_s});
}

FaultPlan& FaultPlan::vm_stall(int vm_id, double at_s, double duration_s) {
  return add(FaultSpec{.kind = FaultKind::kVmStall,
                       .vm_id = vm_id,
                       .inject_at_s = at_s,
                       .duration_s = duration_s});
}

FaultPlan& FaultPlan::disk_degrade(std::string host, double at_s, double duration_s,
                                   double factor) {
  return add(FaultSpec{.kind = FaultKind::kDiskDegrade,
                       .host = std::move(host),
                       .inject_at_s = at_s,
                       .duration_s = duration_s,
                       .magnitude = factor});
}

FaultPlan& FaultPlan::monitor_blackout(std::string host, double at_s, double duration_s,
                                       int vm_id) {
  return add(FaultSpec{.kind = FaultKind::kMonitorBlackout,
                       .host = std::move(host),
                       .vm_id = vm_id,
                       .inject_at_s = at_s,
                       .duration_s = duration_s});
}

FaultPlan& FaultPlan::cap_command_loss(std::string host, double at_s, double duration_s,
                                       double drop_probability) {
  return add(FaultSpec{.kind = FaultKind::kCapCommandLoss,
                       .host = std::move(host),
                       .inject_at_s = at_s,
                       .duration_s = duration_s,
                       .magnitude = drop_probability});
}

FaultPlan& FaultPlan::task_failure(double rate_per_s, double at_s, double duration_s) {
  return add(FaultSpec{.kind = FaultKind::kTaskFailure,
                       .inject_at_s = at_s,
                       .duration_s = duration_s,
                       .magnitude = rate_per_s});
}

}  // namespace perfcloud::faults
