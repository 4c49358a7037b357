// Per-VM control group: cumulative resource counters and resource caps.
//
// Mirrors the pieces of the Linux cgroup interface PerfCloud reads and
// writes: the blkio subsystem counters (io_wait_time, io_serviced,
// io_service_bytes), the perf_event counters (cycles, instructions, LLC
// misses), the cfs CPU quota, and the blkio bytes/s throttle.
#pragma once

#include <string>

#include "hw/tenant.hpp"
#include "sim/types.hpp"

namespace perfcloud::virt {

/// Cumulative counter snapshot, as read from the cgroup filesystem. All
/// values are monotonically non-decreasing since VM boot; consumers compute
/// deltas between samples (§III-D.1).
struct CgroupStats {
  // blkio subsystem
  double io_wait_time_ms = 0.0;   ///< blkio.io_wait_time (milliseconds).
  double io_serviced_ops = 0.0;   ///< blkio.io_serviced (operation count).
  sim::Bytes io_service_bytes = 0.0;  ///< blkio.io_service_bytes.
  // perf_event (counting mode, per cgroup)
  double cycles = 0.0;
  double instructions = 0.0;
  double llc_misses = 0.0;
  // cpuacct
  double cpu_time_s = 0.0;
};

class Cgroup {
 public:
  explicit Cgroup(std::string name) : name_(std::move(name)) {}

  [[nodiscard]] const std::string& name() const { return name_; }

  /// Fold one tick's grant into the cumulative counters.
  void account(const hw::TenantGrant& g) {
    stats_.io_wait_time_ms += g.io_wait_seconds * 1e3;
    stats_.io_serviced_ops += g.io_ops;
    stats_.io_service_bytes += g.io_bytes;
    stats_.cycles += g.cycles;
    stats_.instructions += g.instructions;
    stats_.llc_misses += g.llc_misses;
    stats_.cpu_time_s += g.cpu_core_seconds;
  }

  [[nodiscard]] const CgroupStats& stats() const { return stats_; }

  // --- Resource caps (the actuators PerfCloud drives) ---
  void set_cpu_quota_cores(double cores) { cpu_quota_cores_ = cores; }
  void clear_cpu_quota() { cpu_quota_cores_ = hw::kNoCap; }
  [[nodiscard]] double cpu_quota_cores() const { return cpu_quota_cores_; }

  void set_blkio_throttle_bps(sim::Bytes bps) { blkio_throttle_bps_ = bps; }
  void clear_blkio_throttle() { blkio_throttle_bps_ = hw::kNoCap; }
  [[nodiscard]] sim::Bytes blkio_throttle_bps() const { return blkio_throttle_bps_; }

 private:
  std::string name_;
  CgroupStats stats_;
  double cpu_quota_cores_ = hw::kNoCap;
  sim::Bytes blkio_throttle_bps_ = hw::kNoCap;
};

}  // namespace perfcloud::virt
