// Physical server: composition of CPU scheduler, block device, and memory
// subsystem, arbitrated once per simulation tick.
#pragma once

#include <span>
#include <string>
#include <vector>

#include "hw/cpu.hpp"
#include "hw/disk.hpp"
#include "hw/memory.hpp"
#include "hw/tenant.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {

struct ServerConfig {
  std::string name = "server";
  CpuConfig cpu;
  DiskConfig disk;
  /// Per-socket memory subsystem configuration (LLC size and bandwidth are
  /// PER SOCKET when sockets > 1).
  MemoryConfig memory;
  /// NUMA sockets. 1 (default) reproduces the paper's single shared memory
  /// domain; 2 models the R630's dual-socket reality, where tenants only
  /// contend with same-socket neighbours (§IV-D future work).
  int sockets = 1;
  /// Installed DRAM — the capacity side of VM admission (placement and
  /// migration destinations must fit resident + inbound VM memory under
  /// this; bandwidth lives in MemoryConfig). Paper's R630: 256 GB.
  sim::Bytes dram = 256.0 * 1024 * 1024 * 1024;
};

/// One bare-metal host (the paper's Dell R630). The hypervisor presents the
/// demands of its resident VMs each tick; the server writes what each VM
/// actually received, from which cgroup counters are accumulated.
class Server {
 public:
  Server(ServerConfig cfg, sim::Rng rng);

  [[nodiscard]] const ServerConfig& config() const { return cfg_; }
  [[nodiscard]] const std::string& name() const { return cfg_.name; }

  /// Arbitrate one tick: writes one grant per demand into `grants` (same
  /// size as `demands`) and advances each demand's `noise`. Scratch is
  /// reused per-thread vectors, so a warmed tick never allocates; a call
  /// must not start on a thread where another is still running.
  void arbitrate(double dt, std::span<const TenantDemand> demands,
                 std::span<TenantGrant> grants);

  [[nodiscard]] double last_disk_utilization() const { return disk_.last_utilization(); }

  /// Fault hook (DiskDegrade): forwarded to the block device. 1.0 = healthy.
  void set_disk_degradation(double factor) { disk_.set_throughput_degradation(factor); }
  [[nodiscard]] double disk_degradation() const { return disk_.throughput_degradation(); }
  /// Max over sockets: the most-contended memory domain's utilization.
  [[nodiscard]] double last_bw_utilization() const;

  [[nodiscard]] int sockets() const { return cfg_.sockets; }

 private:
  ServerConfig cfg_;
  CpuScheduler cpu_;
  BlockDevice disk_;
  std::vector<MemorySystem> memory_;  ///< One per socket.
};

}  // namespace perfcloud::hw
