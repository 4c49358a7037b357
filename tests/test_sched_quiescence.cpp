// The idle-host tick early-out: hypervisor quiescence, byte-identical
// simulation results with the early-out on and off on a cluster where most
// hosts are idle, and the known noise-stream deviation on a host that wakes
// up again.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/monitor.hpp"
#include "exp/cluster.hpp"
#include "sim/rng.hpp"
#include "virt/hypervisor.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

/// Minimal guest: demands one core until `until_s`, then reports finished.
class FakeGuest : public virt::GuestWorkload {
 public:
  explicit FakeGuest(double until_s) : until_s_(until_s) {}
  hw::TenantDemand demand(sim::SimTime now, double dt) override {
    hw::TenantDemand d{};
    if (!finished(now)) d.cpu_core_seconds = dt;
    return d;
  }
  void apply(const hw::TenantGrant&, sim::SimTime, double) override {}
  [[nodiscard]] bool finished(sim::SimTime now) const override {
    return now.seconds() >= until_s_;
  }
  [[nodiscard]] std::string_view name() const override { return "fake"; }

 private:
  double until_s_;
};

/// RAII save/restore of the global fast-path switch.
class ScopedFastpath {
 public:
  explicit ScopedFastpath(bool enabled) : saved_(virt::idle_fastpath_enabled()) {
    virt::set_idle_fastpath_enabled(enabled);
  }
  ~ScopedFastpath() { virt::set_idle_fastpath_enabled(saved_); }

 private:
  bool saved_;
};

TEST(Quiescence, HypervisorTracksActivityTransitions) {
  hw::ServerConfig cfg;
  cfg.name = "h";
  virt::Hypervisor hv(cfg, sim::Rng(1));
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(0.0)));

  virt::VmConfig vmc;
  vmc.id = 1;
  virt::Vm& vm = hv.boot(vmc);
  // A VM with no guest presents no demand: still quiescent.
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(0.0)));

  vm.attach(std::make_unique<FakeGuest>(10.0));
  EXPECT_FALSE(hv.is_quiescent(sim::SimTime(0.0)));
  // Guest completion is monotone, so quiescence returns — and stays.
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(10.0)));
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(11.0)));

  vm.set_paused(true);
  EXPECT_FALSE(hv.is_quiescent(sim::SimTime(11.0)));
  vm.set_paused(false);
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(11.0)));

  hv.set_vcpu_quota(1, 1.0);
  EXPECT_FALSE(hv.is_quiescent(sim::SimTime(11.0)));
  hv.clear_vcpu_quota(1);
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(11.0)));

  hv.server().set_disk_degradation(0.5);
  EXPECT_FALSE(hv.is_quiescent(sim::SimTime(11.0)));
  hv.server().set_disk_degradation(1.0);
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(11.0)));
}

/// Everything observable about one run of a mostly-idle cluster.
struct IdleRunTrace {
  double final_time_s = 0.0;
  double jct = 0.0;
  std::vector<std::pair<double, double>> samples;
  bool operator==(const IdleRunTrace&) const = default;
};

IdleRunTrace run_mostly_idle(bool fastpath) {
  ScopedFastpath guard(fastpath);
  exp::ClusterParams p;
  p.hosts = 6;
  p.workers = 6;
  p.worker_host_limit = 2;  // hosts 2..5 carry no workers
  p.seed = 11;
  exp::Cluster c = exp::make_cluster(p);
  // A finite antagonist on an otherwise-empty host: once it completes, the
  // host is quiescent and its monitor series decay through the fast path.
  const int fio = exp::add_fio(
      c, "host-2", wl::FioRandomRead::Params{.duration_s = 60.0, .start_s = 10.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  IdleRunTrace trace;
  trace.jct = exp::run_job(c, wl::make_benchmark("terasort", 4));
  exp::run_for(c, 400.0);
  trace.final_time_s = c.engine->now().seconds();
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    core::NodeManager& nm = c.node_manager(h);
    const sim::TimeSeries& io = nm.io_signal(p.app_id);
    for (std::size_t i = 0; i < io.size(); ++i) {
      trace.samples.emplace_back(io.time(i).seconds(), io.value(i));
    }
    const sim::TimeSeries& fio_io = nm.monitor().io_throughput_series(fio);
    for (std::size_t i = 0; i < fio_io.size(); ++i) {
      trace.samples.emplace_back(fio_io.time(i).seconds(), fio_io.value(i));
    }
  }
  if (fastpath) {
    // The fast path's preconditions actually held on the drained host —
    // otherwise this test exercises nothing.
    EXPECT_TRUE(c.cloud->host("host-2").is_quiescent(c.engine->now()));
    EXPECT_TRUE(c.cloud->host("host-5").is_quiescent(c.engine->now()));
  }
  return trace;
}

TEST(Quiescence, FastPathIsStateIdenticalOnMostlyIdleCluster) {
  const IdleRunTrace off = run_mostly_idle(false);
  const IdleRunTrace on = run_mostly_idle(true);
  EXPECT_GT(on.jct, 0.0);
  EXPECT_FALSE(on.samples.empty());
  EXPECT_EQ(on, off);
}

/// Cumulative counters of a VM booted onto a host that sat quiescent: a
/// finite fio drains, the host ticks idle for 15 s, then two fio VMs and a
/// STREAM VM boot and contend for 10 s. Contention is needed: the disk's and
/// memory's jitter scale with a tenant's *foreign* load.
virt::CgroupStats run_reactivated_host(bool fastpath) {
  ScopedFastpath guard(fastpath);
  hw::ServerConfig cfg;
  cfg.name = "h";
  virt::Hypervisor hv(cfg, sim::Rng(5));
  virt::Vm& drained = hv.boot(virt::VmConfig{.id = 1});
  drained.attach(
      std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{.duration_s = 5.0}));
  int tick = 0;
  for (; tick < 200; ++tick) hv.tick(sim::SimTime((tick + 1) * 0.1), 0.1);
  EXPECT_TRUE(hv.is_quiescent(sim::SimTime(tick * 0.1)));

  for (const int id : {2, 3}) {
    hv.boot(virt::VmConfig{.id = id})
        .attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
  }
  hv.boot(virt::VmConfig{.id = 4, .vcpus = 2})
      .attach(std::make_unique<wl::StreamBenchmark>(wl::StreamBenchmark::Params{.threads = 2}));
  for (; tick < 300; ++tick) hv.tick(sim::SimTime((tick + 1) * 0.1), 0.1);
  return hv.dom_stats(2);
}

// Known deviation. A skipped tick draws nothing from the server's Rng, while
// the full tick draws the disk's and memory's AR(1) jitter for every
// resident slot. Once the host wakes, every draw is shifted, so the noise
// the fio tenant sees — its I/O wait and its CPI — differs from an
// always-full tick; what it was granted does not. When noise becomes
// counter-based (keyed by VM and tick, not by a sequential stream), a
// skipped tick no longer shifts anything and this test must flip to
// expecting equal io_wait_time_ms and instructions.
TEST(Quiescence, ReactivatedHostNoiseDiffersFromFullTick) {
  const virt::CgroupStats on = run_reactivated_host(true);
  const virt::CgroupStats off = run_reactivated_host(false);
  EXPECT_GT(on.io_serviced_ops, 0.0);
  EXPECT_EQ(on.io_serviced_ops, off.io_serviced_ops);
  EXPECT_EQ(on.io_service_bytes, off.io_service_bytes);
  EXPECT_EQ(on.cpu_time_s, off.cpu_time_s);
  EXPECT_NE(on.io_wait_time_ms, off.io_wait_time_ms);
  EXPECT_NE(on.instructions, off.instructions);
}

}  // namespace
}  // namespace perfcloud
