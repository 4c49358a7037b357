// Performance monitor: the per-host metric collection half of PerfCloud
// (§III-D.1).
//
// Every sampling interval it reads each resident VM's cumulative cgroup
// counters through the hypervisor (as the real system does via libvirt and
// perf_event), computes interval deltas, smooths them with an EWMA, and
// appends them to per-VM time series:
//   - high-priority VMs: block-iowait ratio (ms/op) and CPI;
//   - low-priority VMs: I/O throughput (bytes/s), LLC miss rate (misses/s),
//     and CPU usage (cores) — the suspect-side signals and the baselines
//     used to initialize resource caps.
//
// Per-VM state is one VmState row per VM, keyed by VM id in a SlotMap: the
// counter baseline, one EWMA per metric, the latest sample and the two
// suspect-side series. A sample is one walk over the resident VMs.
#pragma once

#include <cstdint>
#include <optional>
#include <set>

#include "core/config.hpp"
#include "sim/ewma.hpp"
#include "sim/slot_store.hpp"
#include "sim/time_series.hpp"
#include "virt/hypervisor.hpp"

namespace perfcloud::core {

/// The smoothed interval metrics of one VM at one sample time.
struct VmSample {
  std::optional<double> iowait_ratio_ms;  ///< Missing when the VM did ~no I/O.
  std::optional<double> cpi;              ///< Missing when no instructions retired.
  double io_throughput_bps = 0.0;
  double io_ops_per_s = 0.0;
  std::optional<double> llc_miss_rate;    ///< Missing when the VM ran nothing.
  double cpu_usage_cores = 0.0;
};

class PerformanceMonitor {
 public:
  PerformanceMonitor(virt::Hypervisor& hv, PerfCloudConfig cfg)
      : hv_(hv), cfg_(cfg) {}

  /// Take one sample of every resident VM at time `now`. Call exactly once
  /// per interval, after the host's arbitration tick.
  void sample(sim::SimTime now);

  /// Latest sample of a VM; nullptr before the first sample. The pointer is
  /// valid until the next sample() call (sampling a never-seen VM may move
  /// the rows).
  [[nodiscard]] const VmSample* latest(int vm_id) const;

  /// Suspect-side series used by the antagonist identifier.
  [[nodiscard]] const sim::TimeSeries& io_throughput_series(int vm_id) const;
  [[nodiscard]] const sim::TimeSeries& llc_miss_series(int vm_id) const;

  /// Observation baselines for cap initialization ("the VM's observed CPU
  /// usage or I/O throughput", §III-C); smoothed current values. The LLC
  /// miss rate is the third axis of the policy layer's usage vectors
  /// (src/policy/ complementary-placement scoring).
  [[nodiscard]] double observed_io_bps(int vm_id) const;
  [[nodiscard]] double observed_cpu_cores(int vm_id) const;
  [[nodiscard]] double observed_llc_rate(int vm_id) const;

  /// Migration handoff: drop every trace of a VM that left this host —
  /// counter baseline, EWMAs, series, latest sample. If the VM ever comes
  /// back, its first sample re-primes the cumulative baseline (its counters
  /// kept growing on the other host; a kept baseline would book all of that
  /// as one interval's delta). Unknown ids are a no-op. NOT used on the
  /// crash path: a crashed VM's series stay frozen for post-mortem reads,
  /// and its id never returns.
  void forget_vm(int vm_id);

  // --- Fault hooks (MonitorBlackout) ---
  /// Drop every sample of one VM (no series appends, no latest) until
  /// cleared. On recovery the next interval only re-primes the cumulative
  /// baseline — otherwise the whole blackout's worth of counter deltas would
  /// land in one sample as a spike.
  void set_blackout(int vm_id, bool dark);
  /// Darken (or clear) the whole host's monitor at once.
  void set_blackout_all(bool dark);
  [[nodiscard]] bool blacked_out(int vm_id) const {
    return blackout_all_ || blackout_.contains(vm_id);
  }

 private:
  /// Everything the monitor keeps about one VM.
  struct VmState {
    VmState(double alpha, std::size_t series_capacity)
        : ew_iowait(alpha), ew_cpi(alpha), ew_io_bps(alpha), ew_llc(alpha), ew_cpu(alpha),
          io_series({}, series_capacity), llc_series({}, series_capacity) {}

    std::optional<virt::CgroupStats> prev;  ///< Cumulative-counter baseline.
    sim::Ewma ew_iowait;
    sim::Ewma ew_cpi;
    sim::Ewma ew_io_bps;
    sim::Ewma ew_llc;
    sim::Ewma ew_cpu;
    std::uint32_t iowait_updates = 0;
    std::uint32_t cpi_updates = 0;
    std::optional<VmSample> latest;
    sim::TimeSeries io_series;
    sim::TimeSeries llc_series;
  };

  virt::Hypervisor& hv_;
  PerfCloudConfig cfg_;
  /// VM id -> state, created on a VM's first sample. forget_vm erases the
  /// row, so a VM that comes back starts from a fresh one.
  sim::SlotMap<VmState> vms_;
  std::set<int> blackout_;     ///< Individually darkened VM ids.
  bool blackout_all_ = false;  ///< Whole-host blackout.
  static const sim::TimeSeries kEmptySeries;
};

}  // namespace perfcloud::core
