// Test helper for driving the hardware models directly: a device plus the
// per-tenant noise state a hypervisor would own, indexed by demand position.
// The tests that use it keep their tenants in a fixed order, so position i
// is always the same tenant.
#pragma once

#include <span>
#include <vector>

#include "hw/tenant.hpp"

namespace perfcloud::hw {

template <class Device>
struct WithNoiseSlots : Device {
  using Device::Device;

  /// Copy of `demands` whose i-th entry points at noise[i]; `noise` grows
  /// to fit, and new entries start undrawn.
  std::vector<TenantDemand> bind(std::span<const TenantDemand> demands) {
    if (noise.size() < demands.size()) noise.resize(demands.size());
    std::vector<TenantDemand> bound(demands.begin(), demands.end());
    for (std::size_t i = 0; i < bound.size(); ++i) bound[i].noise = &noise[i];
    return bound;
  }

  std::vector<TenantNoise> noise;
};

}  // namespace perfcloud::hw
