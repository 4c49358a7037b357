#include "hw/memory.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "hw/allocation.hpp"
#include "sim/scratch.hpp"

namespace perfcloud::hw {

namespace {
constexpr double kCacheLineBytes = 64.0;
}

void MemorySystem::compute(double dt, std::span<const TenantDemand> demands,
                           std::span<const double> cpu_core_seconds,
                           std::span<MemoryGrant> grants) {
  assert(demands.size() == cpu_core_seconds.size());
  assert(demands.size() == grants.size());
  const std::size_t n = demands.size();
  if (n == 0 || dt <= 0.0) {
    std::fill(grants.begin(), grants.end(), MemoryGrant{});
    return;
  }
  if (jitter_z_.size() < n) jitter_z_.resize(n, 0.0);
  while (placement_factor_.size() < n) {
    placement_factor_.push_back(std::exp(cfg_.placement_spread_sigma * rng_.normal()));
  }
  const double phi = std::exp(-dt / cfg_.jitter_correlation_time);
  const double innov = std::sqrt(std::max(0.0, 1.0 - phi * phi));
  for (std::size_t i = 0; i < n; ++i) {
    jitter_z_[i] = phi * jitter_z_[i] + innov * rng_.normal();
  }

  // 1. LLC occupancy competition: a tenant's share of the cache follows its
  //    line-insertion bandwidth (an LRU-like cache is owned by whoever
  //    streams through it fastest), so a CPU-capped aggressor loses its
  //    occupancy along with its CPU time. The insertion potential is the
  //    tenant's granted CPU time times its intrinsic traffic intensity.
  thread_local std::vector<double> potential;
  sim::refill(potential, n);
  double total_potential = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    potential[i] = cpu_core_seconds[i] * demands[i].mem_bw_per_cpu_sec;
    total_potential += potential[i];
  }

  // 2. Miss fractions and DRAM traffic demand.
  thread_local std::vector<double> traffic;
  sim::refill(traffic, n);
  double total_traffic = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const TenantDemand& d = demands[i];
    MemoryGrant& g = grants[i];
    // Only the part of the working set that spills out of private caches
    // competes for the LLC.
    const double llc_set = std::max(0.0, d.llc_footprint - cfg_.private_cache);
    if (cpu_core_seconds[i] <= 0.0 || llc_set <= 0.0) {
      g.miss_fraction = 0.0;
    } else {
      const double share = total_potential > 0.0
                               ? cfg_.llc_size * potential[i] / total_potential
                               : cfg_.llc_size;
      g.miss_fraction = llc_set > share ? 1.0 - share / llc_set : 0.0;
    }
    const double miss_scale = std::max(g.miss_fraction, cfg_.traffic_floor);
    traffic[i] = cpu_core_seconds[i] * d.mem_bw_per_cpu_sec * miss_scale;
    total_traffic += traffic[i];
  }

  const double bw_capacity_tick = cfg_.bw_capacity * dt;
  const double rho_bw = bw_capacity_tick > 0.0 ? total_traffic / bw_capacity_tick : 0.0;
  last_bw_utilization_ = rho_bw;
  const double saturation = std::max(0.0, std::min(rho_bw, cfg_.bw_rho_ceiling) - cfg_.bw_knee);

  // Memory controllers approximate fair bandwidth partitioning: a tenant
  // with a small demand is served in full under any load (its measured
  // traffic — and LLC miss rate — stays flat no matter who else streams),
  // while the big streamers split what remains.
  thread_local std::vector<Claim> bw_claims;
  sim::refill(bw_claims, n);
  for (std::size_t i = 0; i < n; ++i) {
    bw_claims[i] = Claim{.demand = traffic[i], .weight = 1.0, .cap = traffic[i]};
  }
  thread_local std::vector<double> bw_granted;
  sim::refill(bw_granted, n);
  weighted_fair_allocate(bw_capacity_tick, bw_claims, bw_granted);

  // 3. Effective CPI with contention inflation and correlated jitter.
  for (std::size_t i = 0; i < n; ++i) {
    const TenantDemand& d = demands[i];
    MemoryGrant& g = grants[i];
    g.bw_bytes = bw_granted[i];
    g.llc_misses = g.bw_bytes / kCacheLineBytes;

    const double foreign_traffic = (total_traffic - traffic[i]) / std::max(bw_capacity_tick, 1.0);
    const double sigma = cfg_.cpi_jitter_sigma * std::min(foreign_traffic, 1.5);
    const double jitter = std::exp(sigma * jitter_z_[i]);

    // Additive stall components: LLC misses and bandwidth queuing delays
    // overlap in real pipelines, so their penalties add rather than multiply.
    // The persistent placement factor spreads the contention penalty across
    // tenants; the AR(1) jitter adds the slow time-varying component.
    const double miss_term = cfg_.miss_cpi_coeff * g.miss_fraction * d.mem_sensitivity;
    const double bw_term = cfg_.bw_cpi_coeff * saturation * d.mem_sensitivity;
    g.cpi = d.cpi_base * (1.0 + (miss_term + bw_term) * placement_factor_[i]) * jitter;
  }
}

}  // namespace perfcloud::hw
