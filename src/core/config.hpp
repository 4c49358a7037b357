// PerfCloud configuration: the paper's parameter set (§III-C, §III-D).
// NodeManager validates it at construction (see its constructor).
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace perfcloud::core {

/// The resources PerfCloud's detect-identify-throttle loop runs for (§III):
/// disk I/O (iowait-ratio deviation, I/O-throughput correlation, blkio
/// throttle) and processor resources (CPI deviation, LLC-miss-rate
/// correlation, vCPU quota). Every per-resource table is indexed by it, and
/// every loop over it visits I/O first.
enum Resource : std::size_t { kIo, kCpu };
inline constexpr std::array<Resource, 2> kResources{kIo, kCpu};
template <typename T>
using PerResource = std::array<T, kResources.size()>;

/// "io" / "cpu": the prefix of every per-resource event and counter.
constexpr std::string_view name(Resource r) { return r == kIo ? "io" : "cpu"; }

struct PerfCloudConfig {
  // --- Sampling (§III-D.1) ---
  double sample_interval_s = 5.0;  ///< Monitor + control period.
  double ewma_alpha = 0.5;         ///< Smoothing of 5 s samples.

  // --- Detection thresholds (§III-A, §III-C) ---
  /// H for the std-dev of blkio.io_wait_time / blkio.io_serviced (ms/op)
  /// across a high-priority application's VMs on one host.
  double io_deviation_threshold = 10.0;
  /// H for the std-dev of CPI across the application's VMs.
  double cpi_deviation_threshold = 1.0;
  /// Ignore a VM's iowait-ratio sample when it served fewer ops than this
  /// during the interval: a VM doing only daemon-heartbeat I/O carries no
  /// evidence about contention, and its ratio would be pure noise.
  double min_ops_per_interval = 20.0;

  // --- Antagonist identification (§III-B) ---
  double correlation_threshold = 0.8;
  /// Use |r| >= threshold instead of r >= threshold. The paper states the
  /// positive form, but a saturated fairly-shared device produces *inverse*
  /// co-movement (the antagonist's grant shrinks exactly when the victims'
  /// waits — and the deviation signal — grow), and that strong linear
  /// dependence is equally incriminating. Innocent bystanders sit near 0
  /// either way.
  bool use_absolute_correlation = true;
  /// Minimum victim-signal samples before correlating (Fig 5c: three
  /// intervals suffice).
  std::size_t min_correlation_samples = 3;
  /// Correlate over at most this many recent samples (older behaviour of a
  /// suspect should not dilute a fresh interference episode).
  std::size_t correlation_window = 12;
  /// Correlation alone cannot separate a *cause* from a fellow victim: a
  /// bystander with a real working set sees its own miss rate rise when an
  /// aggressor thrashes the LLC, co-moving with the victim signal. The
  /// paper's §III-B hint — "VMs showing high LLC miss rates are more likely
  /// to put pressure" — becomes a magnitude gate: a suspect qualifies only
  /// if its mean usage over the window is at least this fraction of the
  /// heaviest suspect's.
  double min_usage_fraction = 0.25;
  /// Bound each suspect-side monitor series (I/O throughput, LLC miss rate)
  /// to this many most-recent samples; 0 = unbounded. Identification looks
  /// at most `correlation_window` victim samples back, so any bound >= that
  /// window yields identical decisions while the victim signal gains a
  /// sample every time the suspect does (DESIGN.md §5d "Batch scoring"), and
  /// monitor memory stops growing over long runs. Default 0 because the
  /// small-scale figure benches plot entire suspect histories; the
  /// large-scale benches bound it.
  std::size_t monitor_series_capacity = 0;
  /// A suspect whose correlation crossed the threshold within this many
  /// seconds is still considered identified when contention is detected:
  /// the clearest correlation evidence appears at the antagonist's arrival,
  /// which may precede the deviation signal crossing its threshold by an
  /// interval or two.
  double identification_memory_s = 600.0;

  // --- Escalation (§IV-D) ---
  /// When more than one high-priority application shares this host, notify
  /// the cloud manager to separate them by VM migration ("complementary
  /// solutions such as VM migration", §IV-D). Off by default: it changes
  /// placement, which experiments usually want under their own control.
  bool escalate_app_collisions = false;

  // --- CUBIC control (Eq. 1, §III-C) ---
  double beta = 0.8;    ///< Multiplicative decrease: C <- (1 - beta) C.
  double gamma = 0.005; ///< Cubic growth scale (caps normalized to [0, ~]).
  /// Never throttle below this fraction of the antagonist's baseline usage
  /// (a VM must keep making some progress).
  double min_cap_fraction = 0.05;
  /// Once the cubic recovery grows the cap past this multiple of the
  /// baseline, the throttle is removed entirely and the controller retires.
  /// Kept well above 1: while probing, the cap exceeds the antagonist's
  /// usage and is non-binding anyway, but the controller must stay attached
  /// so a renewed deviation spike re-throttles immediately (the paper's
  /// Fig 10 shows exactly such a re-throttle event) — identification by
  /// correlation cannot always be repeated once throttling has flattened
  /// the antagonist's usage signal.
  double cap_lift_fraction = 3.0;
};

/// H for one resource's deviation signal.
constexpr double deviation_threshold(const PerfCloudConfig& cfg, Resource r) {
  return r == kIo ? cfg.io_deviation_threshold : cfg.cpi_deviation_threshold;
}

}  // namespace perfcloud::core
