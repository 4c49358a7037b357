// Fault subsystem: plan validation and the observable effect of every fault
// kind, injected through exp::attach_faults into real clusters.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>

#include "exp/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

exp::Cluster small_cluster(int hosts, int workers, std::uint64_t seed = 11) {
  exp::ClusterParams p;
  p.hosts = hosts;
  p.workers = workers;
  p.seed = seed;
  return exp::make_cluster(p);
}

// --- FaultPlan validation ---

TEST(FaultPlan, RejectsMalformedSpecs) {
  faults::FaultPlan plan;
  EXPECT_THROW(plan.disk_degrade("host-0", -1.0, 10.0, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.disk_degrade("host-0", 0.0, 10.0, 0.0), std::invalid_argument);
  EXPECT_THROW(plan.disk_degrade("host-0", 0.0, 10.0, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.disk_degrade("", 0.0, 10.0, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.vm_stall(-1, 0.0, 10.0), std::invalid_argument);
  EXPECT_THROW(plan.vm_stall(3, 0.0, -1.0), std::invalid_argument);  // must end
  EXPECT_THROW(plan.cap_command_loss("host-0", 0.0, 10.0, 1.5), std::invalid_argument);
  EXPECT_THROW(plan.host_crash("", 0.0), std::invalid_argument);
  EXPECT_THROW(plan.task_failure(-0.1, 0.0), std::invalid_argument);
  // Non-finite values: a NaN duration would silently never recover, a NaN
  // or infinite inject time would never fire, a NaN rate would inject
  // nothing.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  // Each row has its own target, so none is rejected for overlapping another.
  EXPECT_THROW(plan.host_crash("host-0", 0.0, nan), std::invalid_argument);
  EXPECT_THROW(plan.cap_command_loss("host-1", 0.0, nan, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.disk_degrade("host-2", 0.0, inf, 0.5), std::invalid_argument);
  EXPECT_THROW(plan.monitor_blackout("host-3", nan, 10.0), std::invalid_argument);
  EXPECT_THROW(plan.monitor_blackout("host-4", inf, 10.0), std::invalid_argument);
  EXPECT_THROW(plan.task_failure(nan, 0.0), std::invalid_argument);
  EXPECT_THROW(faults::FaultPlan{}.task_failure(inf, 0.0), std::invalid_argument);
  EXPECT_TRUE(plan.empty());

  // Degenerate-but-legal magnitudes are accepted.
  plan.disk_degrade("host-0", 0.0, 10.0, 1.0).cap_command_loss("host-1", 0.0, 10.0, 1.0);
  EXPECT_EQ(plan.size(), 2u);
}

TEST(FaultPlan, RejectsOverlapOnSameTargetOnly) {
  faults::FaultPlan plan;
  plan.disk_degrade("host-0", 10.0, 20.0, 0.5);
  // Overlapping window, same kind + target: rejected.
  EXPECT_THROW(plan.disk_degrade("host-0", 25.0, 10.0, 0.5), std::invalid_argument);
  // Back-to-back (prior recovers exactly when the next injects) is fine, as
  // are other targets and other kinds over the same window.
  plan.disk_degrade("host-0", 30.0, 10.0, 0.5);
  plan.disk_degrade("host-1", 15.0, 10.0, 0.5);
  plan.monitor_blackout("host-0", 15.0, 10.0);
  EXPECT_EQ(plan.size(), 4u);

  // A never-recovering fault occupies [t, inf): everything later collides.
  plan.host_crash("host-2", 50.0);
  EXPECT_THROW(plan.host_crash("host-2", 500.0), std::invalid_argument);
}

// --- Injector lifecycle ---

TEST(FaultInjector, EmptyPlanIsANoOpAndArmIsOnce) {
  exp::Cluster c = small_cluster(1, 2);
  faults::FaultInjector injector(*c.cloud, faults::FaultPlan{});
  exp::attach_faults(c, injector);
  EXPECT_THROW(injector.arm(), std::logic_error);
  exp::run_for(c, 20.0);
  EXPECT_EQ(injector.injected(), 0);
  EXPECT_EQ(injector.recovered(), 0);
  EXPECT_EQ(injector.failed(), 0);
  EXPECT_EQ(injector.pending(), 0);
}

TEST(FaultInjector, MissingTargetMarksSpecFailedAndRunContinues) {
  exp::Cluster c = small_cluster(1, 2);
  faults::FaultPlan plan;
  plan.vm_stall(9999, 5.0, 10.0);  // no such VM
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);
  exp::run_for(c, 30.0);
  EXPECT_EQ(injector.injected(), 0);
  EXPECT_EQ(injector.failed(), 1);
  EXPECT_EQ(injector.recovered(), 0);  // revert of a failed inject is skipped
  EXPECT_EQ(c.engine->now().seconds(), 30.0);
}

// --- DiskDegrade ---

TEST(FaultInjector, DiskDegradeAppliesAndReverts) {
  exp::Cluster c = small_cluster(1, 2);
  faults::FaultPlan plan;
  plan.disk_degrade("host-0", 10.0, 20.0, 0.25);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  exp::run_for(c, 15.0);
  EXPECT_DOUBLE_EQ(c.cloud->host("host-0").server().disk_degradation(), 0.25);
  EXPECT_EQ(injector.active(), 1);
  exp::run_for(c, 20.0);
  EXPECT_DOUBLE_EQ(c.cloud->host("host-0").server().disk_degradation(), 1.0);
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(injector.recovered(), 1);
  EXPECT_EQ(injector.active(), 0);
}

TEST(FaultInjector, DiskDegradeSlowsAnIoBoundJob) {
  const auto jct_with_factor = [](double factor) {
    exp::Cluster c = small_cluster(1, 4);
    if (factor < 1.0) {
      faults::FaultPlan plan;
      plan.disk_degrade("host-0", 0.5, -1.0, factor);
      // The injector only lives for this run; keep it on the stack.
      faults::FaultInjector injector(*c.cloud, plan);
      exp::attach_faults(c, injector);
      return exp::run_job(c, wl::make_terasort(8, 4));
    }
    return exp::run_job(c, wl::make_terasort(8, 4));
  };
  const double healthy = jct_with_factor(1.0);
  const double degraded = jct_with_factor(0.2);
  EXPECT_GT(degraded, healthy);
}

// --- VmStall ---

TEST(FaultInjector, VmStallFreezesAndResumesAWorker) {
  exp::Cluster baseline = small_cluster(1, 2, 17);
  const double healthy_jct = exp::run_job(baseline, wl::make_terasort(8, 4));

  exp::Cluster c = small_cluster(1, 2, 17);
  faults::FaultPlan plan;
  plan.vm_stall(c.worker_vm_ids.front(), 2.0, 60.0);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  exp::run_for(c, 5.0);
  EXPECT_TRUE(c.vm(c.worker_vm_ids.front()).paused());
  const double stalled_jct = exp::run_job(c, wl::make_terasort(8, 4));
  EXPECT_FALSE(c.vm(c.worker_vm_ids.front()).paused());
  // The job straddled the stall: half the cluster was frozen, so it must
  // have taken visibly longer than the healthy run.
  EXPECT_GT(stalled_jct, healthy_jct);
  EXPECT_EQ(injector.recovered(), 1);
}

// --- MonitorBlackout ---

TEST(FaultInjector, MonitorBlackoutDropsSamplesAndReprimesWithoutSpike) {
  exp::Cluster c = small_cluster(1, 2);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 300.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  core::NodeManager& nm = c.node_manager(0);

  faults::FaultPlan plan;
  plan.monitor_blackout("host-0", 50.0, 50.0, fio);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  exp::run_for(c, 50.0);
  const std::size_t before = nm.monitor().suspect_series(core::kIo, fio).size();
  ASSERT_GT(before, 0u);
  double peak_before = 0.0;
  for (std::size_t i = 0; i < before; ++i) {
    peak_before = std::max(peak_before, nm.monitor().suspect_series(core::kIo, fio).value(i));
  }

  exp::run_for(c, 48.0);  // inside the blackout
  EXPECT_EQ(nm.monitor().suspect_series(core::kIo, fio).size(), before);
  EXPECT_EQ(nm.monitor().latest(fio), nullptr);
  EXPECT_TRUE(nm.monitor().blacked_out(fio));

  exp::run_for(c, 52.0);  // recovered; samples flow again
  const sim::TimeSeries& series = nm.monitor().suspect_series(core::kIo, fio);
  EXPECT_GT(series.size(), before);
  EXPECT_FALSE(nm.monitor().blacked_out(fio));
  // Re-priming, not catch-up: the first post-blackout samples must be in
  // line with the steady-state throughput, not one giant delta carrying the
  // whole blackout's worth of I/O.
  for (std::size_t i = before; i < series.size(); ++i) {
    EXPECT_LT(series.value(i), 3.0 * peak_before);
  }
}

// --- CapCommandLoss ---

TEST(FaultInjector, CapCommandLossEatsEveryActuation) {
  // Noisy-neighbour scenario where PerfCloud definitely throttles the fio
  // antagonist — but every libvirt call is dropped (p = 1), so the cgroup
  // never sees a cap even while the CUBIC controller runs.
  exp::Cluster c = small_cluster(1, 10, 2026);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 20.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  core::NodeManager& nm = c.node_manager(0);

  faults::FaultPlan plan;
  plan.cap_command_loss("host-0", 1.0, -1.0, 1.0);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  (void)exp::run_job(c, wl::make_spark_logreg(30, 8));
  ASSERT_FALSE(nm.cap_series(core::kIo, fio).empty()) << "controller never engaged";
  EXPECT_GT(nm.cap_commands_dropped(), 0L);
  EXPECT_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), hw::kNoCap);
}

// --- TaskFailure (and the set_task_failure_rate unification) ---

TEST(FaultInjector, TaskFailurePlanDrivesTheFrameworkRate) {
  exp::Cluster c = small_cluster(1, 2);
  faults::FaultPlan plan;
  plan.task_failure(0.02, 10.0, 20.0);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  EXPECT_DOUBLE_EQ(c.framework->task_failure_rate(), 0.0);
  exp::run_for(c, 15.0);
  EXPECT_DOUBLE_EQ(c.framework->task_failure_rate(), 0.02);
  exp::run_for(c, 20.0);
  EXPECT_DOUBLE_EQ(c.framework->task_failure_rate(), 0.0);
}

// --- HostCrash ---

TEST(FaultInjector, HostCrashReplacesWorkersAndJobsStillComplete) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 8;
  p.seed = 99;
  exp::Cluster c = exp::make_cluster(p);

  const std::vector<cloud::VmRecord> doomed = c.cloud->vms_on_host("host-3");
  ASSERT_FALSE(doomed.empty());

  faults::FaultPlan plan;
  plan.host_crash("host-3", 3.0, 120.0);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  const wl::JobId id = c.framework->submit(wl::make_terasort(24, 12));
  c.engine->run_while([&] { return !c.framework->all_done(); }, sim::SimTime(3000.0));

  const wl::Job* job = c.framework->find_job(id);
  ASSERT_NE(job, nullptr);
  EXPECT_TRUE(job->completed());
  // The crash caught attempts mid-flight and the framework re-ran them.
  EXPECT_GT(c.framework->crash_lost_attempts(), 0);
  // The victims' worker slots were rebound to fresh VMs on survivors: the
  // old ids are gone from the framework and from the cloud registry.
  for (const cloud::VmRecord& r : doomed) {
    EXPECT_FALSE(c.framework->has_worker_vm(r.id));
  }
  // Replacements are 1:1 — the cluster still has all 8 workers.
  EXPECT_EQ(c.cloud->all_vms().size(), 8u);
  // The job finished before the host's recovery; run past it.
  exp::run_for(c, 150.0);
  // The host came back (empty) after 120 s and can take placements again.
  EXPECT_TRUE(c.cloud->host_up("host-3"));
  EXPECT_TRUE(c.cloud->vms_on_host("host-3").empty());
  virt::VmConfig cfg;
  cfg.priority = virt::Priority::kLow;
  EXPECT_NO_THROW(c.cloud->boot_vm("host-3", cfg));
  EXPECT_EQ(injector.injected(), 1);
  EXPECT_EQ(injector.recovered(), 1);
}

TEST(FaultInjector, HostCrashWhileDownRejectsPlacement) {
  exp::Cluster c = small_cluster(2, 2);
  faults::FaultPlan plan;
  plan.host_crash("host-1", 1.0);  // never recovers
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);
  exp::run_for(c, 5.0);
  EXPECT_FALSE(c.cloud->host_up("host-1"));
  EXPECT_EQ(c.cloud->up_hosts(), std::vector<std::string>{"host-0"});
  virt::VmConfig cfg;
  EXPECT_THROW(c.cloud->boot_vm("host-1", cfg), std::invalid_argument);
}

}  // namespace
}  // namespace perfcloud
