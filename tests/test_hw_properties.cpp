// Randomized property tests for the hardware models: for arbitrary demand
// vectors, the arbitration invariants must hold.
#include <gtest/gtest.h>

#include <cmath>

#include "hw/server.hpp"
#include "sim/rng.hpp"
#include "tenant_noise_slots.hpp"

namespace perfcloud::hw {
namespace {

using TestServer = WithNoiseSlots<Server>;

std::vector<TenantGrant> arbitrate(TestServer& s, double dt,
                                   std::span<const TenantDemand> demands) {
  std::vector<TenantGrant> g(demands.size());
  s.arbitrate(dt, s.bind(demands), g);
  return g;
}

using Disk = WithNoiseSlots<BlockDevice>;

std::vector<DiskGrant> serve(Disk& disk, double dt, std::span<const TenantDemand> demands) {
  std::vector<DiskGrant> g(demands.size());
  disk.serve(dt, disk.bind(demands), g);
  return g;
}

using Memory = WithNoiseSlots<MemorySystem>;

std::vector<MemoryGrant> compute(Memory& mem, double dt, std::span<const TenantDemand> demands,
                                 std::span<const double> cpu_core_seconds) {
  std::vector<MemoryGrant> g(demands.size());
  mem.compute(dt, mem.bind(demands), cpu_core_seconds, g);
  return g;
}

TenantDemand random_demand(sim::Rng& rng) {
  TenantDemand d;
  d.cpu_core_seconds = rng.uniform(0.0, 8.0);
  d.cpu_weight = rng.uniform(0.5, 4.0);
  if (rng.bernoulli(0.3)) d.cpu_cap_cores = rng.uniform(0.0, 4.0);
  d.io_ops = rng.uniform(0.0, 300.0);
  d.io_bytes = d.io_ops * rng.uniform(512.0, 1024.0 * 1024.0);
  d.io_weight = rng.bernoulli(0.2) ? rng.uniform(2.0, 8.0) : 1.0;
  if (rng.bernoulli(0.3)) d.io_cap_bytes_per_sec = rng.uniform(1e4, 1e8);
  d.llc_footprint = rng.uniform(0.0, 1e9);
  d.mem_bw_per_cpu_sec = rng.uniform(0.0, 10e9);
  d.cpi_base = rng.uniform(0.5, 2.0);
  d.mem_sensitivity = rng.uniform(0.0, 2.5);
  return d;
}

bool all_finite(const TenantGrant& g) {
  return std::isfinite(g.cpu_core_seconds) && std::isfinite(g.cycles) &&
         std::isfinite(g.instructions) && std::isfinite(g.cpi) && std::isfinite(g.llc_misses) &&
         std::isfinite(g.io_ops) && std::isfinite(g.io_bytes) &&
         std::isfinite(g.io_wait_seconds) && std::isfinite(g.mem_bw_bytes);
}

class ServerProperties : public ::testing::TestWithParam<int> {};

TEST_P(ServerProperties, ArbitrationInvariants) {
  // Robustness axes on top of the random demands: odd parameters run a
  // two-socket server, the disk is randomly degraded, and some rounds have
  // dt = 0 or no tenants at all.
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 7919 + 3);
  hw::ServerConfig cfg;
  cfg.sockets = 1 + GetParam() % 2;
  TestServer server(cfg, sim::Rng(static_cast<std::uint64_t>(GetParam())));

  for (int tick = 0; tick < 20; ++tick) {
    const int n = static_cast<int>(rng.uniform_int(0, 11));
    std::vector<TenantDemand> demands;
    for (int i = 0; i < n; ++i) {
      demands.push_back(random_demand(rng));
      demands.back().numa_node = static_cast<int>(rng.uniform_int(0, cfg.sockets - 1));
    }
    const double dt = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.05, 1.0);
    // (0, 1]: uniform() is in [0, 1).
    server.set_disk_degradation(rng.bernoulli(0.5) ? 1.0 : 1.0 - rng.uniform());
    const auto grants = arbitrate(server, dt, demands);
    ASSERT_EQ(grants.size(), demands.size());

    double cpu_total = 0.0;
    for (std::size_t i = 0; i < grants.size(); ++i) {
      const TenantDemand& d = demands[i];
      const TenantGrant& g = grants[i];

      EXPECT_TRUE(all_finite(g)) << "tick " << tick << " tenant " << i << " dt " << dt;

      // No negative grants.
      EXPECT_GE(g.cpu_core_seconds, 0.0);
      EXPECT_GE(g.io_ops, -1e-9);
      EXPECT_GE(g.io_bytes, -1e-9);
      EXPECT_GE(g.io_wait_seconds, 0.0);
      EXPECT_GE(g.instructions, 0.0);
      EXPECT_GE(g.llc_misses, 0.0);
      EXPECT_GE(g.mem_bw_bytes, 0.0);

      // Never more than demanded.
      EXPECT_LE(g.cpu_core_seconds, d.cpu_core_seconds + 1e-9);
      EXPECT_LE(g.io_ops, d.io_ops + 1e-9);
      EXPECT_LE(g.io_bytes, d.io_bytes + 1e-6);

      // A zero-length round grants nothing.
      if (dt == 0.0) {
        EXPECT_EQ(g.cpu_core_seconds, 0.0);
        EXPECT_EQ(g.io_ops, 0.0);
        EXPECT_EQ(g.io_bytes, 0.0);
        EXPECT_EQ(g.io_wait_seconds, 0.0);
        EXPECT_EQ(g.mem_bw_bytes, 0.0);
      }

      // CPU caps respected (an uncapped demand times dt = 0 has no bound).
      if (d.cpu_cap_cores != kNoCap) {
        EXPECT_LE(g.cpu_core_seconds, d.cpu_cap_cores * dt + 1e-9);
      }
      // I/O byte throttle respected.
      if (d.io_cap_bytes_per_sec != kNoCap) {
        EXPECT_LE(g.io_bytes, d.io_cap_bytes_per_sec * dt + 1e-6);
      }
      // Request mix preserved: ops/bytes ratio matches the demand's.
      if (g.io_ops > 1e-9 && d.io_ops > 1e-9) {
        EXPECT_NEAR(g.io_bytes / g.io_ops, d.io_bytes / d.io_ops,
                    1e-6 * d.io_bytes / d.io_ops + 1e-9);
      }
      // CPI is physical: at least the base, finite.
      if (g.cpu_core_seconds > 0.0) {
        EXPECT_GE(g.cpi, 0.1);
        EXPECT_LT(g.cpi, 100.0);
        // cycles = core-seconds * clock; instructions = cycles / cpi.
        EXPECT_NEAR(g.cycles, g.cpu_core_seconds * cfg.cpu.clock_hz, 1.0);
        EXPECT_NEAR(g.instructions * g.cpi, g.cycles, g.cycles * 1e-9 + 1.0);
      }
      cpu_total += g.cpu_core_seconds;
    }
    // CPU never oversubscribed.
    EXPECT_LE(cpu_total, cfg.cpu.cores * dt + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomTenantSets, ServerProperties, ::testing::Range(0, 25));

class DiskConservation : public ::testing::TestWithParam<int> {};

TEST_P(DiskConservation, DeviceTimeNeverOversubscribed) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 104729 + 17);
  DiskConfig cfg;
  Disk disk(cfg, sim::Rng(99));
  for (int tick = 0; tick < 30; ++tick) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 7));
    std::vector<TenantDemand> demands;
    for (int i = 0; i < n; ++i) demands.push_back(random_demand(rng));
    const double dt = rng.uniform(0.05, 0.5);
    const auto grants = serve(disk, dt, demands);

    double device_seconds = 0.0;
    for (const DiskGrant& g : grants) {
      device_seconds += g.ops / cfg.iops_capacity + g.bytes / cfg.bw_capacity;
    }
    EXPECT_LE(device_seconds, dt + 1e-6);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomIoLoads, DiskConservation, ::testing::Range(0, 15));

class MemoryConservation : public ::testing::TestWithParam<int> {};

TEST_P(MemoryConservation, BandwidthAndMissInvariants) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 65537 + 29);
  MemoryConfig cfg;
  Memory mem(cfg, sim::Rng(5));
  for (int tick = 0; tick < 30; ++tick) {
    const int n = 1 + static_cast<int>(rng.uniform_int(0, 7));
    std::vector<TenantDemand> demands;
    std::vector<double> cpu;
    for (int i = 0; i < n; ++i) {
      demands.push_back(random_demand(rng));
      cpu.push_back(rng.uniform(0.0, 4.0));
    }
    const double dt = rng.uniform(0.05, 0.5);
    const auto grants = compute(mem, dt, demands, cpu);

    double bw_total = 0.0;
    for (std::size_t i = 0; i < grants.size(); ++i) {
      EXPECT_GE(grants[i].miss_fraction, 0.0);
      EXPECT_LE(grants[i].miss_fraction, 1.0);
      EXPECT_GE(grants[i].bw_bytes, 0.0);
      EXPECT_NEAR(grants[i].llc_misses, grants[i].bw_bytes / 64.0, 1e-6);
      bw_total += grants[i].bw_bytes;
      if (cpu[i] == 0.0) {
        EXPECT_DOUBLE_EQ(grants[i].bw_bytes, 0.0);
      }
    }
    EXPECT_LE(bw_total, cfg.bw_capacity * dt + 1e-3);
  }
}

INSTANTIATE_TEST_SUITE_P(RandomMemLoads, MemoryConservation, ::testing::Range(0, 15));

}  // namespace
}  // namespace perfcloud::hw
