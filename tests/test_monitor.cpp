#include <gtest/gtest.h>

#include <memory>

#include "core/monitor.hpp"
#include "workloads/antagonists.hpp"

namespace perfcloud::core {
namespace {

hw::ServerConfig quiet_server() {
  hw::ServerConfig cfg;
  cfg.disk.wait_jitter_sigma = 0.0;
  cfg.memory.cpi_jitter_sigma = 0.0;
  return cfg;
}

struct MonitorRig {
  virt::Hypervisor hv{quiet_server(), sim::Rng(1)};
  PerfCloudConfig cfg;
  std::unique_ptr<PerformanceMonitor> mon;

  MonitorRig() { mon = std::make_unique<PerformanceMonitor>(hv, cfg); }

  void run_interval(double t0) {
    for (int i = 1; i <= 50; ++i) hv.tick(sim::SimTime(t0 + i * 0.1), 0.1);
    mon->sample(sim::SimTime(t0 + 5.0));
  }
};

TEST(Monitor, NoSampleBeforeFirstInterval) {
  MonitorRig rig;
  rig.hv.boot(virt::VmConfig{.id = 1});
  EXPECT_EQ(rig.mon->latest(1), nullptr);
  rig.mon->sample(sim::SimTime(5.0));  // primes the delta baseline
  EXPECT_EQ(rig.mon->latest(1), nullptr);
  rig.mon->sample(sim::SimTime(10.0));
  EXPECT_NE(rig.mon->latest(1), nullptr);
  // A blackout forgets the baseline: the first interval after it only
  // re-primes, exactly like the first interval ever, instead of reporting
  // the whole dark period's counter delta as one sample.
  rig.mon->set_blackout(1, true);
  rig.mon->sample(sim::SimTime(15.0));
  EXPECT_EQ(rig.mon->latest(1), nullptr);
  rig.mon->set_blackout(1, false);
  rig.mon->sample(sim::SimTime(20.0));
  EXPECT_EQ(rig.mon->latest(1), nullptr);
  rig.mon->sample(sim::SimTime(25.0));
  EXPECT_NE(rig.mon->latest(1), nullptr);
}

TEST(Monitor, IdleVmHasMissingMetrics) {
  MonitorRig rig;
  rig.hv.boot(virt::VmConfig{.id = 1});
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  const VmSample* s = rig.mon->latest(1);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->iowait_ratio_ms.has_value());
  EXPECT_FALSE(s->cpi.has_value());
  EXPECT_FALSE(s->llc_miss_rate.has_value());
  EXPECT_DOUBLE_EQ(s->io_throughput_bps, 0.0);
  EXPECT_DOUBLE_EQ(s->cpu_usage_cores, 0.0);
}

TEST(Monitor, BusyVmProducesAllMetrics) {
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  rig.run_interval(5.0);  // ratio/CPI metrics report from the 2nd update on
  const VmSample* s = rig.mon->latest(1);
  ASSERT_NE(s, nullptr);
  EXPECT_TRUE(s->iowait_ratio_ms.has_value());
  EXPECT_TRUE(s->cpi.has_value());
  EXPECT_TRUE(s->llc_miss_rate.has_value());
  EXPECT_GT(s->io_throughput_bps, 0.0);
  EXPECT_GT(s->cpu_usage_cores, 0.0);
  EXPECT_GT(*s->iowait_ratio_ms, 0.0);
  EXPECT_GT(*s->cpi, 0.5);
}

TEST(Monitor, SuspectSeriesGrowPerInterval) {
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  rig.run_interval(5.0);
  rig.run_interval(10.0);
  EXPECT_EQ(rig.mon->io_throughput_series(1).size(), 3u);
  EXPECT_EQ(rig.mon->llc_miss_series(1).size(), 3u);
}

TEST(Monitor, IdleVmContributesNoLlcSamples) {
  MonitorRig rig;
  rig.hv.boot(virt::VmConfig{.id = 1});
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  rig.run_interval(5.0);
  // The IO-throughput series still records zeros; the LLC series records
  // nothing ("not counted when the VM is not running any workload").
  EXPECT_EQ(rig.mon->io_throughput_series(1).size(), 2u);
  EXPECT_EQ(rig.mon->llc_miss_series(1).size(), 0u);
}

TEST(Monitor, ObservedBaselinesReflectUsage) {
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 4});
  vm.attach(std::make_unique<wl::SysbenchCpu>(wl::SysbenchCpu::Params{.threads = 2}));
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  EXPECT_NEAR(rig.mon->observed_cpu_cores(1), 2.0, 0.1);
  EXPECT_NEAR(rig.mon->observed_io_bps(1), 0.0, 1.0);
}

TEST(Monitor, UnknownVmQueriesAreSafe) {
  MonitorRig rig;
  EXPECT_EQ(rig.mon->latest(42), nullptr);
  EXPECT_TRUE(rig.mon->io_throughput_series(42).empty());
  EXPECT_TRUE(rig.mon->llc_miss_series(42).empty());
  EXPECT_DOUBLE_EQ(rig.mon->observed_io_bps(42), 0.0);
}

TEST(Monitor, FirstIntervalReportsThroughputButNotRatios) {
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
  rig.mon->sample(sim::SimTime(0.0));  // primes the delta baseline
  rig.run_interval(0.0);               // first real interval
  const VmSample* s = rig.mon->latest(1);
  ASSERT_NE(s, nullptr);
  // Ratio metrics are EWMA-warmup gated: the first update is the raw sample
  // and must not masquerade as a trend, so they report from the 2nd update.
  EXPECT_FALSE(s->iowait_ratio_ms.has_value());
  EXPECT_FALSE(s->cpi.has_value());
  // Suspect-side usage metrics carry no such gate — they exist immediately.
  EXPECT_GT(s->io_throughput_bps, 0.0);
  EXPECT_GT(s->cpu_usage_cores, 0.0);
  EXPECT_TRUE(s->llc_miss_rate.has_value());
}

TEST(Monitor, IowaitRatioGatedOnMinOps) {
  // A VM doing only trickle I/O (10 ops per 5 s interval, below
  // min_ops_per_interval = 20) carries no contention evidence: its iowait
  // ratio would be pure noise and must never be reported.
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(
      wl::FioRandomRead::Params{.issue_iops = 2.0}));
  rig.mon->sample(sim::SimTime(0.0));
  for (int i = 0; i < 4; ++i) rig.run_interval(5.0 * i);
  const VmSample* s = rig.mon->latest(1);
  ASSERT_NE(s, nullptr);
  EXPECT_GT(s->io_ops_per_s, 0.0);  // it *is* doing I/O...
  EXPECT_FALSE(s->iowait_ratio_ms.has_value());  // ...but below the gate
}

TEST(Monitor, LlcSamplesSuppressedBelowCpuFloor) {
  // §III-B: "LLC miss rates are not counted when the VM is not running any
  // workload" — a VM that burned less than 5 % of one core the whole
  // interval contributes no LLC sample, while its I/O series keeps growing.
  MonitorRig rig;
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(
      wl::FioRandomRead::Params{.cpu_cores = 0.01}));
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  rig.run_interval(5.0);
  const VmSample* s = rig.mon->latest(1);
  ASSERT_NE(s, nullptr);
  EXPECT_FALSE(s->llc_miss_rate.has_value());
  EXPECT_EQ(rig.mon->llc_miss_series(1).size(), 0u);
  EXPECT_EQ(rig.mon->io_throughput_series(1).size(), 2u);
  EXPECT_GT(s->io_throughput_bps, 0.0);
}

TEST(Monitor, BoundedSeriesEvictsOldestSamples) {
  MonitorRig rig;
  rig.cfg.monitor_series_capacity = 4;
  rig.mon = std::make_unique<PerformanceMonitor>(rig.hv, rig.cfg);
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<wl::FioRandomRead>(wl::FioRandomRead::Params{}));
  rig.mon->sample(sim::SimTime(0.0));
  // Six sampled intervals at t = 5, 10, ..., 30; capacity 4 must keep only
  // the newest four (15..30), evicting in arrival order.
  for (int i = 0; i < 6; ++i) rig.run_interval(5.0 * i);
  const sim::TimeSeries& io = rig.mon->io_throughput_series(1);
  ASSERT_EQ(io.size(), 4u);
  EXPECT_DOUBLE_EQ(io.time(0).seconds(), 15.0);
  EXPECT_DOUBLE_EQ(io.time(3).seconds(), 30.0);
}

TEST(Monitor, EwmaSmoothsStepChange) {
  PerfCloudConfig cfg;
  cfg.ewma_alpha = 0.5;
  MonitorRig rig;
  rig.cfg = cfg;
  rig.mon = std::make_unique<PerformanceMonitor>(rig.hv, cfg);
  virt::Vm& vm = rig.hv.boot(virt::VmConfig{.id = 1, .vcpus = 2});
  // Two intervals busy, then the workload stops: throughput EWMA must decay
  // gradually, not drop to zero instantly.
  vm.attach(std::make_unique<wl::FioRandomRead>(
      wl::FioRandomRead::Params{.issue_iops = 400.0, .duration_s = 10.0}));
  rig.mon->sample(sim::SimTime(0.0));
  rig.run_interval(0.0);
  rig.run_interval(5.0);
  const double busy = rig.mon->latest(1)->io_throughput_bps;
  ASSERT_GT(busy, 0.0);
  rig.run_interval(10.0);  // fio finished at t=10
  const double after = rig.mon->latest(1)->io_throughput_bps;
  EXPECT_LT(after, busy);
  EXPECT_GT(after, 0.0);
}

}  // namespace
}  // namespace perfcloud::core
