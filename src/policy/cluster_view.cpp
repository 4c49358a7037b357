#include "policy/cluster_view.hpp"

#include <algorithm>
#include <stdexcept>

namespace perfcloud::policy {

ClusterView::ClusterView(cloud::CloudManager& cloud, std::vector<core::NodeManager*> nms)
    : cloud_(cloud), nms_(std::move(nms)) {
  const std::vector<std::string> names = cloud_.host_names();
  if (nms_.size() != names.size()) {
    throw std::invalid_argument("ClusterView: need one node manager per host (" +
                                std::to_string(nms_.size()) + " for " +
                                std::to_string(names.size()) + " hosts)");
  }
  hosts_.resize(names.size());
  for (std::size_t i = 0; i < names.size(); ++i) {
    HostView& h = hosts_[i];
    h.name = names[i];
    h.index = i;
    const hw::ServerConfig& cfg = cloud_.host(names[i]).server().config();
    h.cores = cfg.cpu.cores;
    h.dram = cfg.dram;
    h.disk_bw = cfg.disk.bw_capacity;
  }
}

std::size_t ClusterView::index_of(const std::string& name) const {
  for (const HostView& h : hosts_) {
    if (h.name == name) return h.index;
  }
  return npos;
}

const VmUsage* ClusterView::find_vm(std::size_t host_index, int vm_id) const {
  for (const VmUsage& u : hosts_[host_index].vms) {
    if (u.vm_id == vm_id) return &u;
  }
  return nullptr;
}

void ClusterView::rebuild_residents(HostView& h) {
  h.vms.clear();
  for (const cloud::VmRecord& r : cloud_.vms_on_host(h.name)) {
    h.vms.push_back(VmUsage{.vm_id = r.id, .vcpus = r.vcpus, .memory = r.memory,
                            .priority = r.priority, .app = r.app});
  }
}

void ClusterView::refresh_host(HostView& h, core::NodeManager& nm) {
  const core::PerformanceMonitor& mon = nm.monitor();
  const double floor = nm.config().min_cap_fraction;
  h.cpu_cores_used = 0.0;
  h.io_bps = 0.0;
  h.llc_rate = 0.0;
  for (VmUsage& u : h.vms) {
    u.cpu_cores = mon.observed_cpu_cores(u.vm_id);
    u.io_bps = mon.observed_io_bps(u.vm_id);
    u.llc_rate = mon.observed_llc_rate(u.vm_id);
    u.cap.fill(-1.0);
    u.at_floor.fill(false);
    h.cpu_cores_used += u.cpu_cores;
    h.io_bps += u.io_bps;
    h.llc_rate += u.llc_rate;
  }
  for (const core::Resource r : core::kResources) {
    nm.for_each_cap(r, [&](int vm_id, double cap, bool ever_decreased) {
      for (VmUsage& u : h.vms) {
        if (u.vm_id != vm_id) continue;
        u.cap[r] = cap;
        // "At floor" means the controller actually drove the cap down to
        // its clamp, not that a fresh controller happens to start there.
        u.at_floor[r] = ever_decreased && cap <= floor + 1e-12;
        return;
      }
    });
    h.max_dev[r] = -1.0;
    nm.for_each_protected_app([&](core::NodeManager::AppId app) {
      h.max_dev[r] = std::max(h.max_dev[r], nm.latest_deviation(r, app));
    });
  }
}

void ClusterView::refresh(sim::SimTime now) {
  const std::uint64_t version = cloud_.registry_version();
  if (last_refresh_ == now && seen_registry_version_ == version) return;
  const bool rebuild = seen_registry_version_ != version;
  last_refresh_ = now;
  seen_registry_version_ = version;
  max_host_llc_rate_ = 0.0;
  for (std::size_t i = 0; i < hosts_.size(); ++i) {
    HostView& h = hosts_[i];
    h.up = cloud_.host_up(h.name);
    if (rebuild) rebuild_residents(h);
    refresh_host(h, *nms_[i]);
    max_host_llc_rate_ = std::max(max_host_llc_rate_, h.llc_rate);
  }
}

}  // namespace perfcloud::policy
