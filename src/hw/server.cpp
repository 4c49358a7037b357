#include "hw/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "sim/arena.hpp"

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
  sim::Arena& arena = sim::scratch_arena();
  const sim::ArenaScope scratch(arena);

  // CPU first: instruction retirement depends on the memory model, which in
  // turn needs to know how much CPU time each tenant ran.
  sim::ArenaVec<double> cpu_sec(arena, n);
  cpu_.allocate(dt, demands, cpu_sec);

  // Memory contention is per NUMA socket: partition the tenants, run each
  // socket's model on its residents, and scatter the results back. The
  // partition order is stable (ascending original index), which keeps the
  // per-slot jitter state attached to the same tenant over time as long as
  // the resident set is stable.
  sim::ArenaVec<MemoryGrant> mem(arena, n);
  sim::ArenaVec<TenantDemand> socket_demands(arena, n);
  sim::ArenaVec<double> socket_cpu(arena, n);
  sim::ArenaVec<MemoryGrant> socket_mem(arena, n);
  sim::ArenaVec<std::size_t> index(arena, n);
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

  sim::ArenaVec<DiskGrant> disk(arena, n);
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
