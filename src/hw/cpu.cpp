#include "hw/cpu.hpp"

#include "hw/allocation.hpp"
#include "sim/arena.hpp"

namespace perfcloud::hw {

void CpuScheduler::allocate(double dt, std::span<const TenantDemand> demands,
                            std::span<double> core_seconds) const {
  sim::Arena& arena = sim::scratch_arena();
  const sim::ArenaScope scratch(arena);
  sim::ArenaVec<Claim> claims(arena, demands.size());
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
