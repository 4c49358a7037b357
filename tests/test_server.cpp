#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "hw/server.hpp"
#include "sim/arena.hpp"

namespace perfcloud::hw {
namespace {

std::vector<TenantGrant> arbitrate(Server& s, double dt, std::span<const TenantDemand> demands) {
  std::vector<TenantGrant> g(demands.size());
  s.arbitrate(dt, demands, g);
  return g;
}

ServerConfig r630() {
  ServerConfig cfg;
  cfg.name = "r630";
  cfg.memory.cpi_jitter_sigma = 0.0;
  cfg.disk.wait_jitter_sigma = 0.0;
  return cfg;
}

TEST(Server, NameAndConfig) {
  Server s(r630(), sim::Rng(1));
  EXPECT_EQ(s.name(), "r630");
  EXPECT_EQ(s.config().cpu.cores, 48);
}

TEST(Server, GrantCombinesAllSubsystems) {
  Server s(r630(), sim::Rng(1));
  TenantDemand d;
  d.cpu_core_seconds = 2.0;
  d.io_ops = 10.0;
  d.io_bytes = 10.0 * 4096;
  d.llc_footprint = 4.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 0.5e9;
  d.cpi_base = 1.0;
  const auto g = arbitrate(s, 1.0, {&d, 1});
  ASSERT_EQ(g.size(), 1u);
  EXPECT_DOUBLE_EQ(g[0].cpu_core_seconds, 2.0);
  EXPECT_DOUBLE_EQ(g[0].cycles, 2.0 * 2.3e9);
  EXPECT_GT(g[0].instructions, 0.0);
  EXPECT_NEAR(g[0].instructions, g[0].cycles / g[0].cpi, 1.0);
  EXPECT_NEAR(g[0].io_ops, 10.0, 1e-9);
  EXPECT_GT(g[0].io_wait_seconds, 0.0);
}

TEST(Server, InstructionsInverseToCpi) {
  Server s(r630(), sim::Rng(1));
  TenantDemand light;
  light.cpu_core_seconds = 1.0;
  light.llc_footprint = 1.0 * 1024 * 1024;
  light.mem_bw_per_cpu_sec = 0.1e9;
  light.cpi_base = 1.0;

  TenantDemand heavy = light;
  heavy.cpi_base = 2.0;

  const std::vector<TenantDemand> d = {light, heavy};
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_NEAR(g[0].instructions / g[1].instructions, 2.0, 0.01);
}

TEST(Server, EmptyDemandsAreFine) {
  Server s(r630(), sim::Rng(1));
  EXPECT_TRUE(arbitrate(s, 1.0, {}).empty());
}

TEST(Server, UtilizationAccessorsReflectLoad) {
  Server s(r630(), sim::Rng(1));
  TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.io_ops = 2000.0;  // 4x the disk's 500 IOPS
  d.io_bytes = 2000.0 * 4096;
  d.llc_footprint = 1e12;
  d.mem_bw_per_cpu_sec = 100e9;
  const auto g = arbitrate(s, 1.0, {&d, 1});
  (void)g;
  EXPECT_GT(s.last_disk_utilization(), 2.0);
  EXPECT_GT(s.last_bw_utilization(), 1.0);
}

TEST(Server, DeterministicForSameSeed) {
  Server a(r630(), sim::Rng(9));
  Server b(r630(), sim::Rng(9));
  TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.io_ops = 100.0;
  d.io_bytes = 100.0 * 65536;
  d.llc_footprint = 64.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 1e9;
  for (int t = 0; t < 20; ++t) {
    const auto ga = arbitrate(a, 0.1, {&d, 1});
    const auto gb = arbitrate(b, 0.1, {&d, 1});
    EXPECT_DOUBLE_EQ(ga[0].io_wait_seconds, gb[0].io_wait_seconds);
    EXPECT_DOUBLE_EQ(ga[0].cpi, gb[0].cpi);
  }
}

// A seeded demand trace for one server: `ticks` rounds of `tenants` busy
// tenants spread round-robin over `sockets` NUMA nodes.
std::vector<std::vector<TenantDemand>> demand_trace(std::uint64_t seed, int tenants, int sockets,
                                                    int ticks) {
  sim::Rng rng(seed);
  std::vector<std::vector<TenantDemand>> trace(static_cast<std::size_t>(ticks));
  for (std::vector<TenantDemand>& round : trace) {
    for (int i = 0; i < tenants; ++i) {
      TenantDemand d;
      d.cpu_core_seconds = rng.uniform(0.0, 0.8);
      d.io_ops = rng.uniform(0.0, 40.0);
      d.io_bytes = d.io_ops * rng.uniform(4096.0, 1024.0 * 1024.0);
      d.io_weight = i == 0 ? 8.0 : 1.0;
      d.llc_footprint = rng.uniform(1.0, 64.0) * 1024 * 1024;
      d.mem_bw_per_cpu_sec = rng.uniform(0.1e9, 20e9);
      d.numa_node = i % sockets;
      round.push_back(d);
    }
  }
  return trace;
}

TEST(Server, InterleavedServersOnOneThreadMatchSoloRuns) {
  // Every host on a thread shares that thread's scratch arena. Two servers
  // arbitrated alternately — each one's grants still live in the arena while
  // the other's scratch is carved right behind them — must produce exactly
  // what each produces when run alone: no state may leak through scratch.
  constexpr int kTicks = 200;
  ServerConfig one_socket;  // default jitter on: RNG streams are in play
  ServerConfig two_sockets;
  two_sockets.sockets = 2;
  const auto trace_a = demand_trace(101, 3, 1, kTicks);
  const auto trace_b = demand_trace(202, 9, 2, kTicks);

  auto solo = [&](const ServerConfig& cfg, std::uint64_t seed,
                  const std::vector<std::vector<TenantDemand>>& trace) {
    Server s(cfg, sim::Rng(seed));
    std::vector<TenantGrant> out;
    for (const auto& round : trace) {
      const auto g = arbitrate(s, 0.1, round);
      out.insert(out.end(), g.begin(), g.end());
    }
    return out;
  };
  const std::vector<TenantGrant> solo_a = solo(one_socket, 7, trace_a);
  const std::vector<TenantGrant> solo_b = solo(two_sockets, 8, trace_b);

  Server a(one_socket, sim::Rng(7));
  Server b(two_sockets, sim::Rng(8));
  std::vector<TenantGrant> mixed_a;
  std::vector<TenantGrant> mixed_b;
  sim::Arena& arena = sim::scratch_arena();
  for (int t = 0; t < kTicks; ++t) {
    const sim::ArenaScope scratch(arena);
    const auto& da = trace_a[static_cast<std::size_t>(t)];
    const auto& db = trace_b[static_cast<std::size_t>(t)];
    sim::ArenaVec<TenantGrant> ga(arena, da.size());
    a.arbitrate(0.1, da, ga);
    sim::ArenaVec<TenantGrant> gb(arena, db.size());
    b.arbitrate(0.1, db, gb);
    mixed_a.insert(mixed_a.end(), ga.begin(), ga.end());
    mixed_b.insert(mixed_b.end(), gb.begin(), gb.end());
  }

  ASSERT_EQ(mixed_a.size(), solo_a.size());
  ASSERT_EQ(mixed_b.size(), solo_b.size());
  EXPECT_EQ(std::memcmp(mixed_a.data(), solo_a.data(), solo_a.size() * sizeof(TenantGrant)), 0);
  EXPECT_EQ(std::memcmp(mixed_b.data(), solo_b.data(), solo_b.size() * sizeof(TenantGrant)), 0);
}

}  // namespace
}  // namespace perfcloud::hw
