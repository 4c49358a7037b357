#include "cloud/placement.hpp"

#include <stdexcept>

namespace perfcloud::cloud {

std::vector<int> place_spread(CloudManager& cloud, const std::vector<std::string>& hosts,
                              int count, virt::VmConfig shape, const std::string& app_id) {
  if (hosts.empty()) throw std::invalid_argument("place_spread: no hosts");
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    virt::VmConfig cfg = shape;
    cfg.app_id = app_id;
    cfg.name = app_id + "-" + std::to_string(i);
    const virt::Vm& vm = cloud.boot_vm(hosts[static_cast<std::size_t>(i) % hosts.size()], cfg);
    ids.push_back(vm.id());
  }
  return ids;
}

std::vector<int> place_packed(CloudManager& cloud, const std::vector<std::string>& hosts,
                              int count, int per_host, virt::VmConfig shape,
                              const std::string& app_id) {
  if (hosts.empty()) throw std::invalid_argument("place_packed: no hosts");
  if (per_host <= 0) throw std::invalid_argument("place_packed: per_host must be positive");
  if (count > per_host * static_cast<int>(hosts.size())) {
    throw std::invalid_argument("place_packed: not enough host capacity");
  }
  std::vector<int> ids;
  ids.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    virt::VmConfig cfg = shape;
    cfg.app_id = app_id;
    cfg.name = app_id + "-" + std::to_string(i);
    const virt::Vm& vm = cloud.boot_vm(hosts[static_cast<std::size_t>(i / per_host)], cfg);
    ids.push_back(vm.id());
  }
  return ids;
}

std::vector<Replacement> place_replacements(CloudManager& cloud,
                                            const std::vector<virt::VmConfig>& lost) {
  std::vector<Replacement> out;
  if (lost.empty()) return out;
  const std::vector<std::string> hosts = cloud.up_hosts();
  if (hosts.empty()) throw std::runtime_error("place_replacements: no surviving hosts");
  out.reserve(lost.size());
  for (const virt::VmConfig& victim : lost) {
    std::string dst = hosts.front();
    std::size_t best = cloud.host(dst).vms().size();
    for (std::size_t i = 1; i < hosts.size(); ++i) {
      const std::size_t n = cloud.host(hosts[i]).vms().size();
      if (n < best) {
        best = n;
        dst = hosts[i];
      }
    }
    virt::VmConfig cfg = victim;  // boot_vm assigns the fresh id
    const virt::Vm& vm = cloud.boot_vm(dst, cfg);
    out.push_back(Replacement{victim.id, vm.id(), dst});
  }
  return out;
}

}  // namespace perfcloud::cloud
