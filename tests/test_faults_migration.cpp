// Host crashes interacting with in-flight live migrations: the abort path
// (DESIGN.md §5j) must leave no dangling pre-copy inflows, no cancelled
// events that later fire, no stuck-paused VMs — and stay byte-identical
// across shard counts like every other fault.
#include <gtest/gtest.h>

#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

TEST(FaultMigration, SourceCrashMidCopyKillsVmAndMigration) {
  exp::ClusterParams p;
  p.hosts = 3;
  p.workers = 3;
  p.seed = 5;
  p.migration = {.bandwidth_bps = 1.0e9, .downtime_s = 0.5};
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 500.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  faults::FaultPlan plan;
  plan.host_crash("host-0", 15.0);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  exp::run_for(c, 10.0);
  c.cloud->migrate_vm(fio, "host-1");  // ~8.6 s copy: in flight at the crash
  ASSERT_EQ(c.cloud->migrations_in_flight(), 1u);
  ASSERT_EQ(c.cloud->host("host-1").migration_inflow_count(), 1u);

  exp::run_for(c, 10.0);  // crash at t=15
  EXPECT_FALSE(c.cloud->host_up("host-0"));
  EXPECT_EQ(c.cloud->migrations_in_flight(), 0u);
  EXPECT_EQ(c.cloud->migrations_aborted(), 1);
  EXPECT_EQ(c.cloud->migrations_completed(), 0);
  EXPECT_EQ(c.cloud->host("host-1").migration_inflow_count(), 0u);
  // The VM died with its source host; it never materializes on host-1.
  EXPECT_THROW((void)c.vm(fio), std::invalid_argument);
  EXPECT_EQ(c.cloud->host("host-1").find(fio), nullptr);

  // The cancelled pause/finish events never fire and the run stays healthy.
  exp::run_for(c, 20.0);
  EXPECT_EQ(c.cloud->migrations_completed(), 0);
}

TEST(FaultMigration, DestinationCrashMidPauseLeavesVmOnSource) {
  exp::ClusterParams p;
  p.hosts = 3;
  p.workers = 3;
  p.seed = 5;
  // Default 8 GiB VM at 4 GB/s: 2.147 s copy, pause [12.147, 12.647) for a
  // migration started at t=10 — the crash at 12.3 lands inside the pause.
  p.migration = {.bandwidth_bps = 4.0e9, .downtime_s = 0.5};
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 500.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  faults::FaultPlan plan;
  plan.host_crash("host-1", 12.3);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  exp::run_for(c, 10.0);
  c.cloud->migrate_vm(fio, "host-1");
  exp::run_for(c, 5.0);  // crash hits during the stop-and-copy pause

  // The VM never left the source: still there, unpaused, not migrating.
  ASSERT_NE(c.cloud->host("host-0").find(fio), nullptr);
  EXPECT_FALSE(c.vm(fio).paused());
  EXPECT_EQ(c.cloud->migrations_aborted(), 1);
  EXPECT_EQ(c.cloud->migrations_in_flight(), 0u);

  // And it is re-migratable to a surviving host.
  c.cloud->migrate_vm(fio, "host-2");
  exp::run_for(c, 10.0);
  EXPECT_NE(c.cloud->host("host-2").find(fio), nullptr);
  EXPECT_EQ(c.cloud->migrations_completed(), 1);
}

// A VmStall and a migration's stop-and-copy window each hold their own pause
// cause: whichever ends first must not lift the other. Default 8 GiB VM at
// 1 GB/s, migration started at t=10: pause [18.59, 20.59), then handoff.
constexpr double kMigrateAt = 10.0;
constexpr double kCopyEnd = kMigrateAt + 8.0 * 1024 * 1024 * 1024 / 1.0e9;
constexpr double kHandoff = kCopyEnd + 2.0;

/// A fio VM on host-0 whose migration to host-1 starts at kMigrateAt, and a
/// VmStall of it over [stall_at, stall_at + stall_s).
struct StallAcrossCopyRig {
  exp::Cluster c;
  int vm;
  faults::FaultInjector injector;

  StallAcrossCopyRig(double stall_at, double stall_s)
      : c(exp::make_cluster(exp::ClusterParams{
            .hosts = 2, .workers = 2, .migration = {.bandwidth_bps = 1.0e9, .downtime_s = 2.0}})),
        vm(exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 500.0})),
        injector(*c.cloud, faults::FaultPlan().vm_stall(vm, stall_at, stall_s)) {
    exp::attach_faults(c, injector);
    c.engine->at(sim::SimTime(kMigrateAt),
                 [this](sim::SimTime) { c.cloud->migrate_vm(vm, "host-1"); });
  }
  void run_until(double t) { c.engine->run_until(sim::SimTime(t)); }
};

TEST(FaultMigration, StallInjectedDuringStopAndCopySurvivesHandoff) {
  StallAcrossCopyRig rig(kCopyEnd + 0.5, 10.0);
  rig.run_until(kHandoff + 1.0);
  ASSERT_NE(rig.c.cloud->host("host-1").find(rig.vm), nullptr);
  EXPECT_TRUE(rig.c.vm(rig.vm).paused()) << "handoff lifted a stall that is still active";
  rig.run_until(kCopyEnd + 11.0);
  EXPECT_FALSE(rig.c.vm(rig.vm).paused());
}

TEST(FaultMigration, StallEndingDuringStopAndCopyKeepsTheCopyPaused) {
  constexpr double kStallAt = kMigrateAt + 2.0;
  StallAcrossCopyRig rig(kStallAt, kCopyEnd + 0.5 - kStallAt);
  rig.run_until(kCopyEnd + 1.0);
  ASSERT_NE(rig.c.cloud->host("host-0").find(rig.vm), nullptr);
  EXPECT_TRUE(rig.c.vm(rig.vm).paused()) << "stall recovery unpaused a stop-and-copy";
  rig.run_until(kHandoff + 1.0);
  ASSERT_NE(rig.c.cloud->host("host-1").find(rig.vm), nullptr);
  EXPECT_FALSE(rig.c.vm(rig.vm).paused());
  EXPECT_EQ(rig.injector.recovered(), 1);
}

/// One fingerprint of a chaos run: crash a migration destination while a
/// migration is in flight, with escalation-driven migrations earlier and a
/// disk degradation later.
struct Fingerprint {
  double final_time_s = 0.0;
  std::vector<double> jcts;
  long started = 0;
  long completed = 0;
  long aborted = 0;
  std::vector<std::pair<int, std::string>> placement;
  std::vector<std::pair<double, double>> samples;

  bool operator==(const Fingerprint&) const = default;
};

Fingerprint run_chaos(unsigned shards) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 6;
  p.seed = 31;
  p.shards = shards;
  p.placement = exp::Placement::kPacked;  // everything lands on host-0
  p.migration = {.bandwidth_bps = 2.0e9, .downtime_s = 0.25};
  exp::Cluster c = exp::make_cluster(p);
  virt::VmConfig rival;
  rival.priority = virt::Priority::kHigh;
  rival.app_id = "rival";
  rival.vcpus = 2;
  c.cloud->boot_vm("host-0", rival);
  c.cloud->boot_vm("host-0", rival);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 300.0, .start_s = 10.0});

  core::PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  exp::enable_perfcloud(c, cfg);

  faults::FaultPlan plan;
  plan.host_crash("host-1", 20.0, 40.0);
  plan.disk_degrade("host-0", 60.0, 30.0, 0.5);
  faults::FaultInjector injector(*c.cloud, plan);
  exp::attach_faults(c, injector);

  // An explicit migration timed so the copy is in flight when host-1
  // crashes at t=20 (4.3 s copy started at 18).
  c.engine->at(sim::SimTime(18.0), [&c, fio](sim::SimTime) {
    if (c.cloud->host_up("host-1") && !c.cloud->migration_in_flight(fio)) {
      c.cloud->migrate_vm(fio, "host-1");
    }
  });

  std::vector<wl::JobId> ids;
  c.engine->at(sim::SimTime(0.0), [&c, &ids](sim::SimTime) {
    ids.push_back(c.framework->submit(wl::make_benchmark("terasort", 8)));
  });
  c.engine->run_while([&] { return ids.empty() || !c.framework->all_done(); },
                      sim::SimTime(3000.0));

  Fingerprint fp;
  fp.final_time_s = c.engine->now().seconds();
  fp.started = c.cloud->migrations_started();
  fp.completed = c.cloud->migrations_completed();
  fp.aborted = c.cloud->migrations_aborted();
  for (const cloud::VmRecord& r : c.cloud->all_vms()) fp.placement.emplace_back(r.id, r.host);
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    fp.jcts.push_back(job != nullptr && job->completed() ? job->jct() : -1.0);
  }
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    core::NodeManager& nm = c.node_manager(h);
    const sim::TimeSeries& io = nm.deviation_signal(core::kIo, p.app_id);
    for (std::size_t i = 0; i < io.size(); ++i) {
      fp.samples.emplace_back(io.time(i).seconds(), io.value(i));
    }
    const sim::TimeSeries& mon = nm.monitor().suspect_series(core::kIo, fio);
    for (std::size_t i = 0; i < mon.size(); ++i) {
      fp.samples.emplace_back(mon.time(i).seconds(), mon.value(i));
    }
  }
  return fp;
}

TEST(FaultMigration, ChaosWithAbortedMigrationsIsDeterministicAcrossShards) {
  const Fingerprint sequential = run_chaos(1);
  // The chaos actually happened: escalation migrations completed, the
  // explicit one was killed by the destination crash, the job finished.
  EXPECT_GE(sequential.completed, 2);
  EXPECT_GE(sequential.aborted, 1);
  for (const double jct : sequential.jcts) EXPECT_GT(jct, 0.0);

  EXPECT_EQ(run_chaos(4), sequential);
}

}  // namespace
}  // namespace perfcloud
