// NUMA extension (§IV-D future work): per-socket memory domains and
// NUMA-aware VM mapping.
#include <gtest/gtest.h>

#include "exp/cluster.hpp"
#include "hw/server.hpp"
#include "tenant_noise_slots.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::hw {
namespace {

using TestServer = WithNoiseSlots<Server>;

std::vector<TenantGrant> arbitrate(TestServer& s, double dt,
                                   std::span<const TenantDemand> demands) {
  std::vector<TenantGrant> g(demands.size());
  s.arbitrate(dt, s.bind(demands), g);
  return g;
}

ServerConfig dual_socket() {
  ServerConfig cfg;
  cfg.sockets = 2;
  cfg.memory.cpi_jitter_sigma = 0.0;
  cfg.memory.placement_spread_sigma = 0.0;
  return cfg;
}

TenantDemand streamer(int node) {
  TenantDemand d;
  d.cpu_core_seconds = 8.0;
  d.llc_footprint = 1e12;
  d.mem_bw_per_cpu_sec = 10e9;
  d.numa_node = node;
  return d;
}

TenantDemand victim(int node) {
  TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.llc_footprint = 16.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 1.0e9;
  d.cpi_base = 1.0;
  d.numa_node = node;
  return d;
}

TEST(Numa, ZeroSocketsRejected) {
  ServerConfig cfg;
  cfg.sockets = 0;
  EXPECT_THROW(Server(cfg, sim::Rng(1)), std::invalid_argument);
}

TEST(Numa, CrossSocketTenantsDoNotInterfere) {
  TestServer s(dual_socket(), sim::Rng(1));
  // Victim on socket 1, streamer on socket 0: victim keeps its base CPI.
  const std::vector<TenantDemand> d = {streamer(0), victim(1)};
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_NEAR(g[1].cpi, 1.0, 0.05);
}

TEST(Numa, SameSocketTenantsDoInterfere) {
  TestServer s(dual_socket(), sim::Rng(1));
  const std::vector<TenantDemand> d = {streamer(0), victim(0)};
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_GT(g[1].cpi, 1.3);
}

TEST(Numa, OutOfRangeNodeIsClamped) {
  TestServer s(dual_socket(), sim::Rng(1));
  const std::vector<TenantDemand> d = {victim(99)};  // clamped to socket 1
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_GT(g[0].instructions, 0.0);
}

TEST(Numa, SingleSocketIgnoresNodeTags) {
  ServerConfig cfg;  // default: one socket
  cfg.memory.cpi_jitter_sigma = 0.0;
  cfg.memory.placement_spread_sigma = 0.0;
  TestServer s(cfg, sim::Rng(1));
  const std::vector<TenantDemand> d = {streamer(0), victim(1)};
  const auto g = arbitrate(s, 1.0, d);
  EXPECT_GT(g[1].cpi, 1.3);  // everyone shares the one domain
}

TEST(Numa, BandwidthUtilizationIsMaxOverSockets) {
  TestServer s(dual_socket(), sim::Rng(1));
  const std::vector<TenantDemand> d = {streamer(0), victim(1)};
  (void)arbitrate(s, 1.0, d);
  EXPECT_GT(s.last_bw_utilization(), 1.0);  // socket 0 saturated by streamer
}

}  // namespace
}  // namespace perfcloud::hw

namespace perfcloud::virt {
namespace {

hw::ServerConfig dual_cfg() {
  hw::ServerConfig cfg;
  cfg.sockets = 2;
  return cfg;
}

TEST(NumaPlacement, AutoAssignmentBalancesSockets) {
  Hypervisor hv(dual_cfg(), sim::Rng(1));
  std::vector<int> nodes;
  for (int i = 0; i < 4; ++i) {
    nodes.push_back(hv.boot(VmConfig{.id = i + 1, .vcpus = 2}).numa_node());
  }
  int on0 = 0;
  for (int n : nodes) on0 += n == 0 ? 1 : 0;
  EXPECT_EQ(on0, 2);  // perfectly balanced for identical shapes
}

TEST(NumaPlacement, ExplicitPinIsHonoured) {
  Hypervisor hv(dual_cfg(), sim::Rng(1));
  const Vm& vm = hv.boot(VmConfig{.id = 1, .numa_node = 1});
  EXPECT_EQ(vm.numa_node(), 1);
}

TEST(NumaPlacement, SingleSocketHostPutsEveryoneOnZero) {
  hw::ServerConfig cfg;  // one socket
  Hypervisor hv(cfg, sim::Rng(1));
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(hv.boot(VmConfig{.id = i + 1}).numa_node(), 0);
  }
}

TEST(NumaPlacement, NumaAwareMappingShieldsVictims) {
  // §IV-D: NUMA-aware VM mapping as an interference remedy. The same Spark
  // job runs next to a STREAM VM; pinning the workers to the other socket
  // removes most of the penalty.
  auto run = [](int worker_node, int stream_node) {
    exp::ClusterParams p;
    p.workers = 6;
    p.seed = 5;
    p.server.sockets = 2;
    exp::Cluster c = exp::make_cluster(p);
    for (const int id : c.worker_vm_ids) c.vm(id).set_numa_node(worker_node);
    const int stream = exp::add_stream(
        c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .duty_period_s = 0.0});
    c.vm(stream).set_numa_node(stream_node);
    return exp::run_job(c, wl::make_spark_logreg(12, 6));
  };
  const double colocated = run(0, 0);
  const double separated = run(1, 0);
  EXPECT_LT(separated, 0.9 * colocated);
}

}  // namespace
}  // namespace perfcloud::virt
