// Per-tenant demand and grant records exchanged between the virtualization
// layer and the hardware models each arbitration tick.
#pragma once

#include <limits>

#include "sim/types.hpp"

namespace perfcloud::hw {

constexpr double kNoCap = std::numeric_limits<double>::infinity();

/// `TenantDemand::numa_node` of a tenant that has no memory: the memory
/// model skips it, so it draws no placement factor or CPI jitter and its
/// memory grant stays zero.
constexpr int kNoMemoryTenant = -1;

/// One tenant's persistent noise state. The tenant's owner (a VM, an
/// incoming migration stream) keeps it; the disk and memory models read and
/// advance it through TenantDemand::noise each tick.
struct TenantNoise {
  double disk_z = 0.0;     ///< Disk wait-jitter AR(1) state (standard normal).
  double mem_z = 0.0;      ///< CPI-jitter AR(1) state (standard normal).
  double placement = 0.0;  ///< CPI placement factor exp(sigma * N) > 0; 0 = not drawn yet.
};

/// What one tenant (cgroup/VM) asks of the physical server for one tick.
struct TenantDemand {
  // --- CPU ---
  double cpu_core_seconds = 0.0;  ///< Runnable demand this tick.
  double cpu_weight = 1.0;
  double cpu_cap_cores = kNoCap;  ///< Hard cap in cores (cfs-quota style).

  // --- Block I/O ---
  double io_ops = 0.0;  ///< Operations demanded this tick.
  sim::Bytes io_bytes = 0.0;
  double io_weight = 1.0;
  sim::Bytes io_cap_bytes_per_sec = kNoCap;  ///< blkio throttle (bytes/s).

  // --- Memory subsystem ---
  sim::Bytes llc_footprint = 0.0;      ///< Working set competing for LLC.
  double mem_bw_per_cpu_sec = 0.0;     ///< DRAM traffic (bytes) per core-second.
  double cpi_base = 1.0;               ///< CPI with zero contention.
  double mem_sensitivity = 1.0;        ///< Scales contention-induced CPI inflation.
  /// NUMA socket this tenant's memory lives on. LLC and bandwidth
  /// contention are per-socket: tenants on different sockets do not
  /// interfere through the memory subsystem. Ignored (treated as 0) on
  /// single-socket servers. kNoMemoryTenant keeps the tenant out of the
  /// memory model altogether (an incoming migration's page stream, which
  /// only writes to disk).
  int numa_node = 0;
  /// The tenant's noise state; must be set before the demand reaches the
  /// disk or memory model. Demand order only decides the order of the
  /// models' RNG draws, never whose state a draw advances.
  TenantNoise* noise = nullptr;
};

/// What the server actually delivered to one tenant for one tick.
struct TenantGrant {
  double cpu_core_seconds = 0.0;
  double cycles = 0.0;        ///< cpu_core_seconds * clock_hz.
  double instructions = 0.0;  ///< cycles / effective CPI.
  double cpi = 0.0;           ///< Effective (contention-inflated) CPI.
  double llc_misses = 0.0;    ///< Cache-line misses this tick.

  double io_ops = 0.0;
  sim::Bytes io_bytes = 0.0;
  double io_wait_seconds = 0.0;  ///< Queue + service wait accumulated.

  sim::Bytes mem_bw_bytes = 0.0;  ///< DRAM traffic achieved.
};

}  // namespace perfcloud::hw
