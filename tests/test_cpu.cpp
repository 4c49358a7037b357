#include <gtest/gtest.h>

#include <cmath>

#include "hw/cpu.hpp"

namespace perfcloud::hw {
namespace {

std::vector<double> allocate(const CpuScheduler& s, double dt,
                             std::span<const TenantDemand> demands) {
  std::vector<double> g(demands.size());
  s.allocate(dt, demands, g);
  return g;
}

CpuScheduler make_sched(int cores = 4) {
  CpuConfig cfg;
  cfg.cores = cores;
  return CpuScheduler(cfg);
}

TenantDemand cpu_demand(double core_seconds, double cap_cores = kNoCap) {
  TenantDemand d;
  d.cpu_core_seconds = core_seconds;
  d.cpu_cap_cores = cap_cores;
  return d;
}

TEST(CpuScheduler, CapacityScalesWithDt) {
  const CpuScheduler s = make_sched(48);
  EXPECT_DOUBLE_EQ(s.capacity(1.0), 48.0);
  EXPECT_DOUBLE_EQ(s.capacity(0.1), 4.8);
}

TEST(CpuScheduler, UndersubscribedFullGrant) {
  const CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(1.0), cpu_demand(2.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(CpuScheduler, OversubscribedFairSplit) {
  const CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(10.0), cpu_demand(10.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(CpuScheduler, QuotaCapsGrantEvenWhenIdle) {
  const CpuScheduler s = make_sched(8);
  const std::vector<TenantDemand> d = {cpu_demand(5.0, /*cap=*/1.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
}

TEST(CpuScheduler, QuotaScalesWithTickLength) {
  const CpuScheduler s = make_sched(8);
  const std::vector<TenantDemand> d = {cpu_demand(5.0, /*cap=*/2.0)};
  const auto g = allocate(s, 0.5, d);
  EXPECT_DOUBLE_EQ(g[0], 1.0);  // 2 cores * 0.5 s
}

TEST(CpuScheduler, WeightsRespectedUnderContention) {
  const CpuScheduler s = make_sched(4);
  std::vector<TenantDemand> d = {cpu_demand(100.0), cpu_demand(100.0)};
  d[0].cpu_weight = 3.0;
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 3.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
}

TEST(CpuScheduler, NoDemandNoGrant) {
  const CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(0.0), cpu_demand(1.0)};
  const auto g = allocate(s, 1.0, d);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 1.0);
}

TEST(CpuScheduler, ZeroDtGrantsNothing) {
  const CpuScheduler s = make_sched(4);
  const std::vector<TenantDemand> d = {cpu_demand(2.0), cpu_demand(2.0, /*cap=*/1.0),
                                       cpu_demand(0.0)};
  for (const double dt : {0.0, -0.0}) {
    std::vector<double> g(d.size(), -1.0);
    s.allocate(dt, d, g);
    for (const double grant : g) {
      EXPECT_TRUE(std::isfinite(grant));
      EXPECT_EQ(grant, 0.0);
    }
  }
}

}  // namespace
}  // namespace perfcloud::hw
