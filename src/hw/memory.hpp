// Shared last-level cache and memory-bandwidth contention model.
//
// Substrate for the paper's second contention signal: CPI (cycles per
// instruction) measured per cgroup via hardware performance counters, whose
// deviation across a scale-out application's VMs rises when a colocated
// memory-intensive tenant (e.g. STREAM) squeezes the LLC and saturates
// memory bandwidth (§III-A.2).
#pragma once

#include <span>
#include <vector>

#include "hw/tenant.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {

struct MemoryConfig {
  sim::Bytes llc_size = 60.0 * 1024 * 1024;  ///< ~2 sockets worth of L3.
  sim::Bytes bw_capacity = 60.0e9;           ///< DRAM bandwidth, bytes/s.
  /// Working sets at or below this size live in private L1/L2 caches and
  /// neither compete for the LLC nor suffer when it is thrashed (a
  /// prime-computing bystander is immune to a STREAM neighbour).
  sim::Bytes private_cache = 2.5 * 1024 * 1024;
  double miss_cpi_coeff = 1.0;   ///< CPI inflation at 100 % LLC miss fraction.
  double bw_cpi_coeff = 0.7;     ///< CPI inflation per unit of saturation past the knee.
  double bw_knee = 0.7;          ///< Bandwidth utilization where stalls begin.
  double bw_rho_ceiling = 1.5;   ///< Saturation term stops growing past this.
  double traffic_floor = 0.10;   ///< Compulsory DRAM traffic fraction at 0 misses.
  /// Per-tenant multiplicative CPI jitter sigma at foreign pressure 1.0;
  /// AR(1)-correlated for the same reason as the disk model (see DiskConfig).
  double cpi_jitter_sigma = 0.3;
  double jitter_correlation_time = 12.0;
  /// Persistent per-tenant spread of the contention penalty: VMs land on
  /// different sockets/NUMA nodes relative to the aggressor, so the same
  /// foreign pressure hits them unequally. Drawn once per slot as
  /// exp(sigma * N(0,1)) and applied to the contention CPI terms — this is
  /// the stable cross-VM asymmetry behind the paper's CPI-deviation signal.
  double placement_spread_sigma = 0.5;
};

struct MemoryGrant {
  double cpi = 1.0;            ///< Effective cycles-per-instruction.
  double miss_fraction = 0.0;  ///< Fraction of LLC accesses missing to DRAM.
  sim::Bytes bw_bytes = 0.0;   ///< DRAM traffic achieved this tick.
  double llc_misses = 0.0;     ///< Cache-line miss count this tick.
};

/// Computes per-tenant CPI, miss counts, and DRAM traffic for one tick,
/// given the CPU time each tenant was granted.
///
/// Model: LLC capacity is shared in proportion to each tenant's declared
/// working-set footprint (an LRU-like cache favours high-rate, large
/// working sets); the miss fraction is the part of the footprint that does
/// not fit in the tenant's share. DRAM traffic scales with CPU time, the
/// tenant's intrinsic traffic intensity, and its miss fraction. CPI is then
/// inflated by the miss fraction and by bandwidth saturation past a knee,
/// with slowly-varying per-tenant jitter proportional to foreign pressure.
class MemorySystem {
 public:
  MemorySystem(MemoryConfig cfg, sim::Rng rng) : cfg_(cfg), rng_(rng) {}

  [[nodiscard]] const MemoryConfig& config() const { return cfg_; }

  /// `cpu_core_seconds[i]` is the CPU time granted to demands[i] this tick;
  /// one grant per demand is written into `grants` (all three spans the
  /// same size). Tenant order must be stable across ticks (jitter state is
  /// positional). Scratch is reused per-thread vectors (see
  /// sim/scratch.hpp).
  void compute(double dt, std::span<const TenantDemand> demands,
               std::span<const double> cpu_core_seconds, std::span<MemoryGrant> grants);

  /// Bandwidth utilization (demand over capacity) of the last tick.
  [[nodiscard]] double last_bw_utilization() const { return last_bw_utilization_; }

 private:
  MemoryConfig cfg_;
  sim::Rng rng_;
  std::vector<double> jitter_z_;
  std::vector<double> placement_factor_;  ///< Per-slot persistent multiplier.
  double last_bw_utilization_ = 0.0;
};

}  // namespace perfcloud::hw
