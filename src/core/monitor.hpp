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
// Memory layout (DESIGN.md §5l): per-VM state is a structure of arrays.
// Each VM owns one *row*, and every field lives in its own parallel column
// (counter baseline, per-metric EWMA value + seeded flag, update counts,
// latest sample, series). A sample is two phases: a gather pass walks the
// resident VMs once, folding counter reads into flat per-metric delta
// columns, then one kernel loop per metric sweeps those columns. Each VM is
// an independent lane computing exactly the expressions the row-at-a-time
// code computed, in the same per-lane order, so every EWMA value — and every
// output byte downstream — is bit-identical to the AoS layout.
#pragma once

#include <cstdint>
#include <optional>
#include <set>
#include <span>
#include <vector>

#include "core/config.hpp"
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
  /// valid until the next sample() call (per-VM state lives in dense
  /// columns; sampling a never-seen VM may move it).
  [[nodiscard]] const VmSample* latest(int vm_id) const;

  /// Batch form of latest(): out[i] = latest(ids[i]). One pass over the id
  /// list; the per-quantum sweep hands a whole application group's VM ids
  /// here instead of issuing per-id lookups.
  void latest_batch(std::span<const int> ids, const VmSample** out) const;

  /// Suspect-side series used by the antagonist identifier.
  [[nodiscard]] const sim::TimeSeries& io_throughput_series(int vm_id) const;
  [[nodiscard]] const sim::TimeSeries& llc_miss_series(int vm_id) const;

  /// Batch form of the two series lookups: io_out[i]/llc_out[i] for ids[i]
  /// (never nullptr — unknown ids get the shared empty series, matching the
  /// scalar accessors). The sweep gathers the whole suspect list once per
  /// quantum, not once per application group.
  void series_batch(std::span<const int> ids, const sim::TimeSeries** io_out,
                    const sim::TimeSeries** llc_out) const;

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
  /// Row of a VM, creating (or recycling) one on first sight.
  std::uint32_t row(int vm_id);
  /// Construct a recycled row's columns fresh, as if never used.
  void reset_row(std::uint32_t r);
  /// Append one default-constructed element to every column.
  void push_row();

  virt::Hypervisor& hv_;
  PerfCloudConfig cfg_;

  /// VM id -> row. Two array indexes per lookup; entries of departed VMs
  /// are erased and their rows recycled through free_rows_ (cloud-wide VM
  /// ids are never reused, so a recycled row can never be mistaken for its
  /// previous tenant).
  sim::SlotMap<std::uint32_t> row_of_;
  std::vector<std::uint32_t> free_rows_;

  // --- Persistent per-row columns (all parallel, indexed by row) ---
  std::vector<virt::CgroupStats> prev_;   ///< Cumulative-counter baseline.
  std::vector<std::uint8_t> has_prev_;
  std::vector<std::uint32_t> iowait_updates_;
  std::vector<std::uint32_t> cpi_updates_;
  // One EWMA per metric, stored as a value column plus a seeded flag; the
  // smoothing factor is the config's single alpha, shared by every lane.
  std::vector<double> ew_iowait_;
  std::vector<double> ew_cpi_;
  std::vector<double> ew_io_bps_;
  std::vector<double> ew_llc_;
  std::vector<double> ew_cpu_;
  std::vector<std::uint8_t> sd_iowait_;
  std::vector<std::uint8_t> sd_cpi_;
  std::vector<std::uint8_t> sd_io_bps_;
  std::vector<std::uint8_t> sd_llc_;
  std::vector<std::uint8_t> sd_cpu_;
  std::vector<VmSample> latest_;
  std::vector<std::uint8_t> has_latest_;
  std::vector<sim::TimeSeries> io_series_;
  std::vector<sim::TimeSeries> llc_series_;

  // --- Per-sample batch columns (capacity reused; steady state allocates
  // nothing). rows_[k] is the k-th sampled lane's row; d_*_[k] its interval
  // deltas, in hypervisor residency order.
  std::vector<std::uint32_t> rows_;
  std::vector<double> d_wait_ms_;
  std::vector<double> d_ops_;
  std::vector<double> d_bytes_;
  std::vector<double> d_cycles_;
  std::vector<double> d_instr_;
  std::vector<double> d_misses_;
  std::vector<double> d_cpu_;

  std::set<int> blackout_;     ///< Individually darkened VM ids.
  bool blackout_all_ = false;  ///< Whole-host blackout.
  static const sim::TimeSeries kEmptySeries;
};

}  // namespace perfcloud::core
