#include "hw/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>

#include "sim/scratch.hpp"

namespace perfcloud::hw {

Server::Server(ServerConfig cfg, sim::Rng rng)
    : cfg_(std::move(cfg)), cpu_(cfg_.cpu), disk_(cfg_.disk, rng.split(0xd15c)) {
  if (cfg_.sockets < 1) throw std::invalid_argument("server needs at least one socket");
  memory_.reserve(static_cast<std::size_t>(cfg_.sockets));
  for (int s = 0; s < cfg_.sockets; ++s) {
    memory_.emplace_back(cfg_.memory, rng.split(0x3e3 + static_cast<std::uint64_t>(s)));
  }
}

double Server::last_bw_utilization() const {
  double u = 0.0;
  for (const MemorySystem& m : memory_) u = std::max(u, m.last_bw_utilization());
  return u;
}

void Server::arbitrate(double dt, std::span<const TenantDemand> demands,
                       std::span<TenantGrant> grants) {
  assert(demands.size() == grants.size());
  const std::size_t n = demands.size();
  if (n == 0) return;

  // CPU first: instruction retirement depends on the memory model, which in
  // turn needs to know how much CPU time each tenant ran.
  thread_local std::vector<double> cpu_sec;
  sim::refill(cpu_sec, n);
  cpu_.allocate(dt, demands, cpu_sec);

  // Memory contention is per NUMA socket: partition the tenants, run each
  // socket's model on its residents, and scatter the results back. The
  // partition order is stable (ascending original index), which keeps the
  // per-slot jitter state attached to the same tenant over time as long as
  // the resident set is stable.
  thread_local std::vector<MemoryGrant> mem;
  thread_local std::vector<TenantDemand> socket_demands;
  thread_local std::vector<double> socket_cpu;
  thread_local std::vector<MemoryGrant> socket_mem;
  thread_local std::vector<std::size_t> index;
  sim::refill(mem, n);
  sim::refill(socket_demands, n);
  sim::refill(socket_cpu, n);
  sim::refill(socket_mem, n);
  sim::refill(index, n);
  for (int s = 0; s < cfg_.sockets; ++s) {
    std::size_t k = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const int node = std::clamp(demands[i].numa_node, 0, cfg_.sockets - 1);
      if (node != s) continue;
      socket_demands[k] = demands[i];
      socket_cpu[k] = cpu_sec[i];
      index[k] = i;
      ++k;
    }
    if (k == 0) continue;
    memory_[static_cast<std::size_t>(s)].compute(dt, {socket_demands.data(), k},
                                                 {socket_cpu.data(), k}, {socket_mem.data(), k});
    for (std::size_t j = 0; j < k; ++j) mem[index[j]] = socket_mem[j];
  }

  thread_local std::vector<DiskGrant> disk;
  sim::refill(disk, n);
  disk_.serve(dt, demands, disk);

  const double clock = cpu_.config().clock_hz;
  for (std::size_t i = 0; i < n; ++i) {
    TenantGrant& g = grants[i];
    g.cpu_core_seconds = cpu_sec[i];
    g.cycles = cpu_sec[i] * clock;
    g.cpi = mem[i].cpi;
    g.instructions = g.cpi > 0.0 ? g.cycles / g.cpi : 0.0;
    g.llc_misses = mem[i].llc_misses;
    g.mem_bw_bytes = mem[i].bw_bytes;
    g.io_ops = disk[i].ops;
    g.io_bytes = disk[i].bytes;
    g.io_wait_seconds = disk[i].wait_seconds;
  }
}

}  // namespace perfcloud::hw
