// Shared block device with queueing-induced wait times.
//
// This is the substrate for the paper's central I/O-contention signal: the
// blkio.io_wait_time / blkio.io_serviced ratio and its deviation across the
// VMs of a scale-out application (§III-A).
//
// Model. Each op costs a seek (1/iops) plus its transfer (bytes/bw) in
// device-seconds; the device's dt seconds per tick are shared by weighted
// water-filling. The wait of an op is its own service time multiplied by the
// queue length in service-time units (the demand-to-capacity ratio rho) —
// an M/M/1-flavoured but bounded law — and by a per-tenant multiplicative
// jitter. The jitter's sigma is driven almost entirely by *bursty* foreign
// load: queue-depth-1 streams interleave round-robin and give every tenant
// the same average wait (low deviation across victim VMs, as the paper
// observes for Hadoop running alone), while a deep-queue random stream
// (io_weight > 1, e.g. fio with iodepth 32) lands in unpredictable bursts
// that spread the victims' waits apart. Jitter state is AR(1)-correlated in
// time so 5-second monitor sampling does not average it away.
#pragma once

#include <span>

#include "hw/tenant.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {

struct DiskConfig {
  double iops_capacity = 500.0;       ///< Random-op ceiling (spinning-disk-like).
  sim::Bytes bw_capacity = 150.0e6;   ///< Sequential ceiling, bytes/s.
  /// Queue factor bound: wait per op = service_time * min(rho, qmax).
  double queue_factor_max = 20.0;
  /// Overall wait-time scale. Calibrated so that a busy scale-out
  /// application running *alone* shows a peak iowait-ratio deviation just
  /// below PerfCloud's threshold of 10 ms/op — the paper chooses H as "the
  /// peak standard deviation observed when there is no resource contention"
  /// (§III-C), which makes the controller regulate contention down to
  /// near-uncontended levels.
  double wait_scale = 2.5;
  /// Jitter sigma at full contention scaling (see above).
  double wait_jitter_sigma = 0.8;
  /// Weight of ordinary (fair, shallow-queue) foreign utilization in the
  /// jitter sigma — small: fair sharing spreads waits evenly.
  double plain_jitter_coeff = 0.1;
  /// Weight of bursty foreign load (io_weight above 1) in the jitter sigma —
  /// large: deep queues create unfairness between victims. Chosen so a
  /// saturating fio (its duty cycle spanning ~1.5-3 device-seconds/s of
  /// weighted burst) maps into the responsive part of the sigma range
  /// rather than pinning at the cap — the deviation signal must *track*
  /// antagonist intensity for cross-correlation to identify it.
  double burst_jitter_coeff = 0.4;
  /// Jitter sigma scale saturates at this value.
  double jitter_scale_cap = 1.5;
  /// Correlation time (seconds) of each tenant's wait-jitter AR(1) state.
  double jitter_correlation_time = 8.0;
};

struct DiskGrant {
  double ops = 0.0;
  sim::Bytes bytes = 0.0;
  double wait_seconds = 0.0;  ///< Total wait accumulated by this tenant's ops.
};

/// One shared block device. Unserved demand is carried by the workloads
/// (they re-issue it next tick), so the device models per-tick service and
/// waiting only; each tenant's jitter state travels in its demand.
class BlockDevice {
 public:
  BlockDevice(DiskConfig cfg, sim::Rng rng) : cfg_(cfg), rng_(rng) {}

  [[nodiscard]] const DiskConfig& config() const { return cfg_; }

  /// Fault hook (DiskDegrade): serve at `factor` times the healthy
  /// throughput — both the IOPS and the bandwidth ceiling scale, so every
  /// op's seek and transfer cost grow by 1/factor. 1.0 restores full health.
  /// Throws std::invalid_argument unless 0 < factor <= 1.
  void set_throughput_degradation(double factor);
  [[nodiscard]] double throughput_degradation() const { return degradation_; }

  /// Serve one tick of demand. Per-tenant throttle caps are applied first
  /// (scaling ops and bytes together), then device time (seek + transfer
  /// cost) is allocated by weighted fair sharing. Advances each demand's
  /// `noise->disk_z`. Writes one grant per demand into `grants` (same size
  /// as `demands`); scratch is reused per-thread vectors, so a call must
  /// not start on a thread where another is still running.
  void serve(double dt, std::span<const TenantDemand> demands, std::span<DiskGrant> grants);

  /// Device utilization of the last served tick (demand over capacity; can
  /// exceed 1 when oversubscribed).
  [[nodiscard]] double last_utilization() const { return last_utilization_; }

 private:
  DiskConfig cfg_;
  sim::Rng rng_;
  double last_utilization_ = 0.0;
  double degradation_ = 1.0;  ///< Fault-injected throughput multiplier.
};

}  // namespace perfcloud::hw
