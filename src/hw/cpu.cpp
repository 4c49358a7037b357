#include "hw/cpu.hpp"

#include <algorithm>
#include <vector>

#include "hw/allocation.hpp"

namespace perfcloud::hw {

void CpuScheduler::allocate(double dt, std::span<const TenantDemand> demands,
                            std::span<double> core_seconds) const {
  // An empty tick grants nothing; it also keeps an uncapped demand's
  // `kNoCap * dt` from turning into inf * 0 = NaN below.
  if (dt <= 0.0) {
    std::fill(core_seconds.begin(), core_seconds.end(), 0.0);
    return;
  }
  // Per-thread scratch, sized but not cleared (every claim is written
  // below); live until the next call on this thread.
  thread_local std::vector<Claim> claims;
  claims.resize(demands.size());
  for (std::size_t i = 0; i < demands.size(); ++i) {
    const TenantDemand& d = demands[i];
    claims[i] = Claim{
        .demand = d.cpu_core_seconds,
        .weight = d.cpu_weight,
        .cap = d.cpu_cap_cores * dt,
    };
  }
  weighted_fair_allocate(capacity(dt), claims, core_seconds);
}

}  // namespace perfcloud::hw
