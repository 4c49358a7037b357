#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <thread>
#include <vector>

#include "hw/server.hpp"
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

ServerConfig r630() {
  ServerConfig cfg;
  cfg.name = "r630";
  cfg.memory.cpi_jitter_sigma = 0.0;
  cfg.disk.wait_jitter_sigma = 0.0;
  return cfg;
}

TEST(Server, NameAndConfig) {
  TestServer s(r630(), sim::Rng(1));
  EXPECT_EQ(s.name(), "r630");
  EXPECT_EQ(s.config().cpu.cores, 48);
}

TEST(Server, GrantCombinesAllSubsystems) {
  TestServer s(r630(), sim::Rng(1));
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
  TestServer s(r630(), sim::Rng(1));
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
  TestServer s(r630(), sim::Rng(1));
  EXPECT_TRUE(arbitrate(s, 1.0, {}).empty());
}

TEST(Server, UtilizationAccessorsReflectLoad) {
  TestServer s(r630(), sim::Rng(1));
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
  TestServer a(r630(), sim::Rng(9));
  TestServer b(r630(), sim::Rng(9));
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

// A seeded demand trace for one server: round t has `counts[t]` busy
// tenants spread round-robin over `sockets` NUMA nodes.
std::vector<std::vector<TenantDemand>> demand_trace(std::uint64_t seed,
                                                    const std::vector<int>& counts, int sockets) {
  sim::Rng rng(seed);
  std::vector<std::vector<TenantDemand>> trace(counts.size());
  for (std::size_t t = 0; t < counts.size(); ++t) {
    for (int i = 0; i < counts[t]; ++i) {
      TenantDemand d;
      d.cpu_core_seconds = rng.uniform(0.0, 0.8);
      d.io_ops = rng.uniform(0.0, 40.0);
      d.io_bytes = d.io_ops * rng.uniform(4096.0, 1024.0 * 1024.0);
      d.io_weight = i == 0 ? 8.0 : 1.0;
      d.llc_footprint = rng.uniform(1.0, 64.0) * 1024 * 1024;
      d.mem_bw_per_cpu_sec = rng.uniform(0.1e9, 20e9);
      d.numa_node = i % sockets;
      trace[t].push_back(d);
    }
  }
  return trace;
}

// Per-round tenant counts that grow and shrink from tick to tick, with about
// one round in eight empty.
std::vector<int> varying_counts(std::uint64_t seed, int max_tenants, int ticks) {
  sim::Rng rng(seed);
  std::vector<int> counts;
  for (int t = 0; t < ticks; ++t) {
    counts.push_back(rng.bernoulli(0.125) ? 0 : static_cast<int>(rng.uniform_int(1, max_tenants)));
  }
  return counts;
}

TEST(Server, InterleavedServersOnOneThreadMatchSoloRuns) {
  // The hardware models keep their per-tick scratch per thread, so every
  // host on a thread reuses the same scratch. Two servers arbitrated
  // alternately on one thread — either one's tick may follow a larger tick
  // of the other, or a larger earlier tick of its own — must produce
  // exactly what each produces alone on a fresh thread, whose scratch has
  // never held anything: no value may leak through reused scratch, between
  // hosts or from a larger earlier tenant count.
  constexpr int kTicks = 200;
  ServerConfig one_socket;  // default jitter on: RNG streams are in play
  ServerConfig two_sockets;
  two_sockets.sockets = 2;
  const std::vector<int> counts_a = varying_counts(303, 6, kTicks);
  const std::vector<int> counts_b = varying_counts(404, 12, kTicks);
  const auto trace_a = demand_trace(101, counts_a, 1);
  const auto trace_b = demand_trace(202, counts_b, 2);
  ASSERT_EQ(*std::max_element(counts_a.begin(), counts_a.end()), 6);
  ASSERT_EQ(*std::max_element(counts_b.begin(), counts_b.end()), 12);
  ASSERT_EQ(*std::min_element(counts_a.begin(), counts_a.end()), 0);
  ASSERT_EQ(*std::min_element(counts_b.begin(), counts_b.end()), 0);

  auto solo = [&](const ServerConfig& cfg, std::uint64_t seed,
                  const std::vector<std::vector<TenantDemand>>& trace) {
    std::vector<TenantGrant> out;
    std::thread fresh([&] {
      TestServer s(cfg, sim::Rng(seed));
      for (const auto& round : trace) {
        const auto g = arbitrate(s, 0.1, round);
        out.insert(out.end(), g.begin(), g.end());
      }
    });
    fresh.join();
    return out;
  };
  const std::vector<TenantGrant> solo_a = solo(one_socket, 7, trace_a);
  const std::vector<TenantGrant> solo_b = solo(two_sockets, 8, trace_b);

  TestServer a(one_socket, sim::Rng(7));
  TestServer b(two_sockets, sim::Rng(8));
  std::vector<TenantGrant> mixed_a;
  std::vector<TenantGrant> mixed_b;
  for (int t = 0; t < kTicks; ++t) {
    const auto ga = arbitrate(a, 0.1, trace_a[static_cast<std::size_t>(t)]);
    const auto gb = arbitrate(b, 0.1, trace_b[static_cast<std::size_t>(t)]);
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
