#include "hw/server.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <vector>


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

  // Per-thread columns, sized but not cleared: every element is written
  // before it is read. They stay live until the next call on this thread,
  // which must not start while this one runs.
  thread_local std::vector<double> cpu_sec;
  thread_local std::vector<MemoryGrant> mem;
  thread_local std::vector<DiskGrant> disk;
  thread_local std::vector<std::size_t> members;
  cpu_sec.resize(n);
  mem.resize(n);
  disk.resize(n);

  // CPU first: instruction retirement depends on the memory model, which in
  // turn needs to know how much CPU time each tenant ran.
  cpu_.allocate(dt, demands, cpu_sec);

  // Memory contention is per NUMA socket. On one socket with every tenant
  // in the memory model, the model reads the rows in place; otherwise each
  // socket's model runs on the ascending list of its residents' rows.
  // Tenants without memory join no socket and get an empty memory grant.
  const auto no_memory = [](const TenantDemand& d) { return d.numa_node == kNoMemoryTenant; };
  if (cfg_.sockets == 1 && std::none_of(demands.begin(), demands.end(), no_memory)) {
    memory_.front().compute(dt, demands, cpu_sec, mem);
  } else {
    for (int s = 0; s < cfg_.sockets; ++s) {
      members.clear();
      for (std::size_t i = 0; i < n; ++i) {
        if (no_memory(demands[i])) {
          if (s == 0) mem[i] = MemoryGrant{};
        } else if (std::clamp(demands[i].numa_node, 0, cfg_.sockets - 1) == s) {
          members.push_back(i);
        }
      }
      memory_[static_cast<std::size_t>(s)].compute(dt, demands, cpu_sec, mem, members);
    }
  }

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
