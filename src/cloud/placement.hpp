// VM placement policies.
#pragma once

#include <string>
#include <vector>

#include "cloud/cloud_manager.hpp"

namespace perfcloud::cloud {

/// Boot `count` identically-shaped VMs for one application, spread
/// round-robin over the given hosts (the paper's virtual Hadoop clusters
/// distribute worker VMs evenly over the bare-metal servers). Returns the
/// booted VM ids in order. Names are "<app_id>-<index>".
std::vector<int> place_spread(CloudManager& cloud, const std::vector<std::string>& hosts,
                              int count, virt::VmConfig shape, const std::string& app_id);

/// Boot `count` VMs filling hosts in order, `per_host` VMs per host before
/// moving on (consolidation-style placement — the packing that makes
/// multi-tenant interference likely in the first place).
std::vector<int> place_packed(CloudManager& cloud, const std::vector<std::string>& hosts,
                              int count, int per_host, virt::VmConfig shape,
                              const std::string& app_id);

/// Old VM id -> its replacement after a host crash.
struct Replacement {
  int old_id = 0;
  int new_id = 0;
  std::string host;
};

/// Re-place the victims of a host crash on the surviving (up) hosts. The
/// `lost` configs come from CloudManager::crash_host — each carries the old
/// VM id, preserved in the returned mapping; the booted replacements get
/// fresh ids and keep their old names, shapes, priorities, and app ids, but
/// come back with NO guest attached (the guest died with the host). Each
/// victim goes to the least-populated up host (ties broken by provisioning
/// order). Throws when no host survives.
std::vector<Replacement> place_replacements(CloudManager& cloud,
                                            const std::vector<virt::VmConfig>& lost);

}  // namespace perfcloud::cloud
