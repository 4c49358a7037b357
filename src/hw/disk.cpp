#include "hw/disk.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>
#include <vector>

#include "hw/allocation.hpp"
#include "sim/scratch.hpp"

namespace perfcloud::hw {

void BlockDevice::set_throughput_degradation(double factor) {
  if (!(factor > 0.0 && factor <= 1.0)) {
    throw std::invalid_argument("disk degradation factor must be in (0, 1]");
  }
  degradation_ = factor;
}

void BlockDevice::serve(double dt, std::span<const TenantDemand> demands,
                        std::span<DiskGrant> grants) {
  assert(demands.size() == grants.size());
  const std::size_t n = demands.size();
  if (n == 0 || dt <= 0.0) {
    std::fill(grants.begin(), grants.end(), DiskGrant{});
    return;
  }
  const double t_op = 1.0 / (cfg_.iops_capacity * degradation_);  // seek/queue cost per op
  const double inv_bw = 1.0 / (cfg_.bw_capacity * degradation_);  // transfer cost per byte

  // Advance per-slot AR(1) jitter state (stationary standard normal).
  if (jitter_z_.size() < n) jitter_z_.resize(n, 0.0);
  const double phi = std::exp(-dt / cfg_.jitter_correlation_time);
  const double innov = std::sqrt(std::max(0.0, 1.0 - phi * phi));
  for (std::size_t i = 0; i < n; ++i) {
    jitter_z_[i] = phi * jitter_z_[i] + innov * rng_.normal();
  }

  // 1. Apply blkio throttles: scale ops and bytes together so the request
  //    mix is preserved (the throttler delays whole requests).
  thread_local std::vector<double> ops;
  thread_local std::vector<double> bytes;
  sim::refill(ops, n);
  sim::refill(bytes, n);
  for (std::size_t i = 0; i < n; ++i) {
    const TenantDemand& d = demands[i];
    double scale = 1.0;
    if (d.io_bytes > 0.0 && d.io_cap_bytes_per_sec != kNoCap) {
      scale = std::min(scale, d.io_cap_bytes_per_sec * dt / d.io_bytes);
    }
    scale = std::clamp(scale, 0.0, 1.0);
    ops[i] = d.io_ops * scale;
    bytes[i] = d.io_bytes * scale;
  }

  // 2. Convert to device-seconds (each op costs a seek plus its transfer)
  //    and water-fill the device's dt seconds of service capacity.
  thread_local std::vector<Claim> claims;
  sim::refill(claims, n);
  double total_need = 0.0;
  double bursty_need = 0.0;  // device-seconds offered by deep-queue tenants
  for (std::size_t i = 0; i < n; ++i) {
    const double need = ops[i] * t_op + bytes[i] * inv_bw;
    claims[i] = Claim{.demand = need, .weight = demands[i].io_weight, .cap = need};
    total_need += need;
    // "Burstiness" of a stream: the fraction of its queue occupancy beyond
    // a fair shallow queue, 1 - 1/weight, times its offered device time.
    bursty_need += (1.0 - 1.0 / std::max(demands[i].io_weight, 1.0)) * need;
  }
  thread_local std::vector<double> granted_sec;
  sim::refill(granted_sec, n);
  weighted_fair_allocate(dt, claims, granted_sec);

  const double rho = total_need / dt;
  last_utilization_ = rho;
  const double qfactor = std::min(rho, cfg_.queue_factor_max);

  // 3. Fill grants. Wait per op = own service time x queue factor x jitter;
  //    the jitter sigma is dominated by bursty foreign load (see header).
  for (std::size_t i = 0; i < n; ++i) {
    const double need = claims[i].demand;
    const double scale = need > 0.0 ? granted_sec[i] / need : 0.0;
    DiskGrant& g = grants[i];
    g = DiskGrant{.ops = ops[i] * scale, .bytes = bytes[i] * scale};

    if (g.ops > 0.0) {
      const double my_share = total_need > 0.0 ? need / total_need : 0.0;
      const double plain_foreign = std::min(rho * (1.0 - my_share), cfg_.jitter_scale_cap);
      const double my_burst = (1.0 - 1.0 / std::max(demands[i].io_weight, 1.0)) * need;
      const double burst_foreign = (bursty_need - my_burst) / dt;
      const double sigma_scale =
          std::min(cfg_.plain_jitter_coeff * plain_foreign + cfg_.burst_jitter_coeff * burst_foreign,
                   cfg_.jitter_scale_cap);
      const double jitter = std::exp(cfg_.wait_jitter_sigma * sigma_scale * jitter_z_[i]);
      const double per_op_service = granted_sec[i] / g.ops;
      g.wait_seconds = g.ops * per_op_service * qfactor * jitter * cfg_.wait_scale;
    }
  }
}

}  // namespace perfcloud::hw
