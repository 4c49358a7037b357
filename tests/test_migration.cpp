// VM live migration and the §IV-D escalation path (high-priority
// application collisions resolved by the cloud manager).
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "exp/cluster.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::cloud {
namespace {

hw::ServerConfig host_cfg(const std::string& name) {
  hw::ServerConfig cfg;
  cfg.name = name;
  return cfg;
}

/// Host of each VM of `app`, in all_vms() (ascending VM id) order.
std::vector<std::string> app_hosts(const CloudManager& cloud, const std::string& app) {
  std::vector<std::string> hosts;
  for (const VmRecord& r : cloud.all_vms()) {
    if (r.app_id == app) hosts.push_back(r.host);
  }
  return hosts;
}

struct TwoHostRig {
  sim::Engine engine{1};
  CloudManager cloud{engine};
  TwoHostRig() {
    cloud.add_host(host_cfg("h0"));
    cloud.add_host(host_cfg("h1"));
  }
};

TEST(Migration, MovesVmBetweenHosts) {
  TwoHostRig rig;
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{.name = "a"});
  rig.cloud.migrate_vm(vm.id(), "h1");
  EXPECT_EQ(rig.cloud.host("h0").find(vm.id()), nullptr);
  EXPECT_NE(rig.cloud.host("h1").find(vm.id()), nullptr);
  const auto records = rig.cloud.vms_on_host("h1");
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].id, vm.id());
}

TEST(Migration, ToSameHostIsHardError) {
  TwoHostRig rig;
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{});
  // A self-migration is always a caller bug; it must fail loudly instead of
  // silently threading a no-op through the listener handoff.
  EXPECT_THROW(rig.cloud.migrate_vm(vm.id(), "h0"), std::invalid_argument);
  EXPECT_NE(rig.cloud.host("h0").find(vm.id()), nullptr);
  // The VM stays fully migratable afterwards.
  rig.cloud.migrate_vm(vm.id(), "h1");
  EXPECT_NE(rig.cloud.host("h1").find(vm.id()), nullptr);
  EXPECT_THROW(rig.cloud.migrate_vm(vm.id(), "h1"), std::invalid_argument);
}

TEST(Migration, UnknownVmOrHostThrows) {
  TwoHostRig rig;
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{});
  EXPECT_THROW(rig.cloud.migrate_vm(999, "h1"), std::invalid_argument);
  EXPECT_THROW(rig.cloud.migrate_vm(vm.id(), "nope"), std::invalid_argument);
}

TEST(Migration, CgroupStateTravelsWithVm) {
  TwoHostRig rig;
  virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{.vcpus = 2});
  vm.attach(std::make_unique<wl::SysbenchCpu>(wl::SysbenchCpu::Params{.threads = 2}));
  rig.cloud.start_ticking(0.1);
  rig.engine.run_until(sim::SimTime(1.0));
  const double cpu_before = rig.cloud.host("h0").dom_stats(vm.id()).cpu_time_s;
  ASSERT_GT(cpu_before, 0.0);

  rig.cloud.migrate_vm(vm.id(), "h1");
  rig.engine.run_until(sim::SimTime(2.0));
  const double cpu_after = rig.cloud.host("h1").dom_stats(vm.id()).cpu_time_s;
  // Counters are cumulative across the migration, and the guest kept running.
  EXPECT_GT(cpu_after, cpu_before + 0.5);
}

TEST(Migration, GuestWorkloadKeepsRunningOnNewHost) {
  TwoHostRig rig;
  virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{.vcpus = 4});
  auto guest = std::make_unique<wl::SysbenchCpu>(
      wl::SysbenchCpu::Params{.threads = 4, .total_instructions = 1e12});
  const auto* raw = guest.get();
  vm.attach(std::move(guest));
  rig.cloud.start_ticking(0.1);
  rig.engine.run_until(sim::SimTime(1.0));
  const double before = raw->progress();
  rig.cloud.migrate_vm(vm.id(), "h1");
  rig.engine.run_until(sim::SimTime(2.0));
  EXPECT_GT(raw->progress(), before);
}

TEST(CollisionResolution, SeparatesTwoHighPriorityApps) {
  TwoHostRig rig;
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.app_id = "app-a";
  rig.cloud.boot_vm("h0", high);
  rig.cloud.boot_vm("h0", high);
  rig.cloud.boot_vm("h0", high);
  high.app_id = "app-b";
  rig.cloud.boot_vm("h0", high);
  rig.cloud.boot_vm("h0", high);

  const int moved = rig.cloud.resolve_high_priority_collision("h0");
  EXPECT_EQ(moved, 2);  // the smaller group (app-b) moved
  EXPECT_EQ(app_hosts(rig.cloud, "app-a"), (std::vector<std::string>{"h0", "h0", "h0"}));
  EXPECT_EQ(app_hosts(rig.cloud, "app-b"), (std::vector<std::string>{"h1", "h1"}));
}

TEST(CollisionResolution, NoCollisionIsNoop) {
  TwoHostRig rig;
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.app_id = "only-app";
  rig.cloud.boot_vm("h0", high);
  EXPECT_EQ(rig.cloud.resolve_high_priority_collision("h0"), 0);
}

TEST(CollisionResolution, SingleHostCloudHasNowhereToGo) {
  sim::Engine engine{1};
  CloudManager cloud{engine};
  cloud.add_host(host_cfg("only"));
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.app_id = "a";
  cloud.boot_vm("only", high);
  high.app_id = "b";
  cloud.boot_vm("only", high);
  EXPECT_EQ(cloud.resolve_high_priority_collision("only"), 0);
}

TEST(CollisionResolution, NodeManagerEscalatesWhenEnabled) {
  // A second high-priority app lands on the hadoop-heaviest host of a
  // 3-host cloud; a node manager with escalation enabled moves it to the
  // least-conflicted host within one control interval.
  exp::ClusterParams p;
  p.hosts = 3;
  p.workers = 4;  // hadoop: 2 VMs on host-0, 1 each on hosts 1-2
  exp::Cluster c = exp::make_cluster(p);
  // Boot a second high-priority app squarely onto host-0.
  virt::VmConfig other;
  other.priority = virt::Priority::kHigh;
  other.app_id = "other-app";
  c.cloud->boot_vm("host-0", other);

  core::PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  exp::enable_perfcloud(c, cfg);
  exp::run_for(c, 11.0);  // two control intervals

  // host-0 now hosts only one high-priority app, and the moved app does
  // not bounce back (strict-improvement rule).
  int apps_on_h0 = 0;
  std::vector<std::string> seen;
  for (const VmRecord& r : c.cloud->vms_on_host("host-0")) {
    if (r.priority == virt::Priority::kHigh &&
        std::find(seen.begin(), seen.end(), r.app_id) == seen.end()) {
      seen.push_back(r.app_id);
      ++apps_on_h0;
    }
  }
  EXPECT_EQ(apps_on_h0, 1);
}

// --- Live-migration cost model (DESIGN.md §5j) ---

TEST(LiveMigration, PrecopiesThenPausesThenSwitchesHosts) {
  TwoHostRig rig;
  // 8 GiB VM over 4 GiB/s: exactly 2 s of pre-copy, then a 0.5 s
  // stop-and-copy pause, then the handoff.
  rig.cloud.set_migration_model(
      {.bandwidth_bps = 4.0 * 1024 * 1024 * 1024, .downtime_s = 0.5});
  virt::VmConfig cfg;
  cfg.name = "a";
  cfg.memory = 8.0 * 1024 * 1024 * 1024;
  const virt::Vm& vm = rig.cloud.boot_vm("h0", cfg);
  const int id = vm.id();
  std::vector<MigrationPhase> phases;
  rig.cloud.add_migration_listener(
      [&phases](const MigrationEvent& ev) { phases.push_back(ev.phase); });
  rig.cloud.start_ticking(0.1);
  rig.engine.run_until(sim::SimTime(0.5));

  rig.cloud.migrate_vm(id, "h1");  // copy [0.5, 2.5), pause [2.5, 3.0)
  EXPECT_TRUE(rig.cloud.migration_in_flight(id));
  EXPECT_EQ(rig.cloud.migrations_started(), 1);
  EXPECT_EQ(rig.cloud.migrations_completed(), 0);
  EXPECT_EQ(rig.cloud.host("h1").migration_inflow_count(), 1u);

  rig.engine.run_until(sim::SimTime(2.0));  // mid-copy: running on the source
  ASSERT_NE(rig.cloud.host("h0").find(id), nullptr);
  EXPECT_FALSE(rig.cloud.host("h0").find(id)->paused());
  EXPECT_EQ(rig.cloud.host("h1").find(id), nullptr);

  rig.engine.run_until(sim::SimTime(2.8));  // stop-and-copy window
  ASSERT_NE(rig.cloud.host("h0").find(id), nullptr);
  EXPECT_TRUE(rig.cloud.host("h0").find(id)->paused());

  rig.engine.run_until(sim::SimTime(3.5));  // handoff done
  EXPECT_EQ(rig.cloud.host("h0").find(id), nullptr);
  ASSERT_NE(rig.cloud.host("h1").find(id), nullptr);
  EXPECT_FALSE(rig.cloud.host("h1").find(id)->paused());
  EXPECT_EQ(rig.cloud.migrations_in_flight(), 0u);
  EXPECT_EQ(rig.cloud.migrations_completed(), 1);
  EXPECT_EQ(rig.cloud.host("h1").migration_inflow_count(), 0u);
  EXPECT_EQ(phases, (std::vector<MigrationPhase>{MigrationPhase::kStarted,
                                                 MigrationPhase::kDeparting,
                                                 MigrationPhase::kArrived}));
}

TEST(LiveMigration, PageStreamLoadsTheDestinationDisk) {
  TwoHostRig rig;
  rig.cloud.set_migration_model(
      {.bandwidth_bps = 1.0 * 1024 * 1024 * 1024, .downtime_s = 0.5});
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{});
  rig.cloud.start_ticking(0.1);
  rig.engine.run_until(sim::SimTime(0.5));
  EXPECT_DOUBLE_EQ(rig.cloud.host("h1").server().last_disk_utilization(), 0.0);

  rig.cloud.migrate_vm(vm.id(), "h1");
  rig.engine.run_until(sim::SimTime(1.5));  // mid-copy (8 GiB / 1 GiB/s = 8 s)
  // The destination runs no VMs, yet its disk is busy serving the page
  // stream — migration traffic is visible to that host's arbitration, so
  // resident tenants there would feel it.
  EXPECT_EQ(rig.cloud.host("h1").find(vm.id()), nullptr);
  EXPECT_GT(rig.cloud.host("h1").server().last_disk_utilization(), 0.0);
}

TEST(LiveMigration, ModelValidationAndInFlightGuards) {
  TwoHostRig rig;
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const MigrationModel bad[] = {
      {.bandwidth_bps = 1e9, .downtime_s = -0.1}, {.bandwidth_bps = 1e9, .downtime_s = nan},
      {.bandwidth_bps = nan, .downtime_s = 0.5},  {.bandwidth_bps = -1e9, .downtime_s = 0.5},
      {.bandwidth_bps = inf, .downtime_s = 0.5},
  };
  for (const MigrationModel& m : bad) {
    EXPECT_THROW(rig.cloud.set_migration_model(m), std::invalid_argument)
        << "bandwidth " << m.bandwidth_bps << ", downtime " << m.downtime_s;
    exp::ClusterParams p;
    p.migration = m;
    EXPECT_THROW(exp::make_cluster(p), std::invalid_argument)
        << "bandwidth " << m.bandwidth_bps << ", downtime " << m.downtime_s;
  }
  rig.cloud.set_migration_model({.bandwidth_bps = 1e9, .downtime_s = 0.5});
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{});
  rig.cloud.start_ticking(0.1);
  rig.cloud.migrate_vm(vm.id(), "h1");
  // While the copy is in flight: no model swap, no second migration.
  EXPECT_THROW(rig.cloud.set_migration_model({}), std::logic_error);
  EXPECT_THROW(rig.cloud.migrate_vm(vm.id(), "h1"), std::logic_error);
}

TEST(LiveMigration, SourceCrashKillsTheVmAndAbortsTheMigration) {
  TwoHostRig rig;
  rig.cloud.set_migration_model({.bandwidth_bps = 1e9, .downtime_s = 0.5});
  const virt::Vm& vm = rig.cloud.boot_vm("h0", virt::VmConfig{});
  const int id = vm.id();
  rig.cloud.start_ticking(0.1);
  rig.engine.run_until(sim::SimTime(0.5));
  rig.cloud.migrate_vm(id, "h1");  // ~8.6 s copy
  rig.engine.run_until(sim::SimTime(2.0));

  rig.cloud.crash_host("h0");
  EXPECT_EQ(rig.cloud.migrations_in_flight(), 0u);
  EXPECT_EQ(rig.cloud.migrations_aborted(), 1);
  EXPECT_EQ(rig.cloud.host("h1").migration_inflow_count(), 0u);
  EXPECT_TRUE(rig.cloud.all_vms().empty());
  // The cancelled pause/finish events must never fire.
  rig.engine.run_until(sim::SimTime(12.0));
  EXPECT_EQ(rig.cloud.migrations_completed(), 0);
}

TEST(LiveMigration, DestinationCrashLeavesVmRunningOnSource) {
  TwoHostRig rig;
  rig.cloud.add_host(host_cfg("h2"));
  rig.cloud.set_migration_model(
      {.bandwidth_bps = 4.0 * 1024 * 1024 * 1024, .downtime_s = 0.5});
  virt::VmConfig cfg;
  cfg.memory = 8.0 * 1024 * 1024 * 1024;
  const virt::Vm& vm = rig.cloud.boot_vm("h0", cfg);
  const int id = vm.id();
  rig.cloud.start_ticking(0.1);
  rig.cloud.migrate_vm(id, "h1");  // copy [0, 2), pause [2, 2.5)
  rig.engine.run_until(sim::SimTime(2.2));
  ASSERT_TRUE(rig.cloud.host("h0").find(id)->paused());

  rig.cloud.crash_host("h1");
  // The VM never left: still on the source, unpaused, and re-migratable.
  ASSERT_NE(rig.cloud.host("h0").find(id), nullptr);
  EXPECT_FALSE(rig.cloud.host("h0").find(id)->paused());
  EXPECT_EQ(rig.cloud.migrations_aborted(), 1);
  EXPECT_EQ(rig.cloud.migrations_in_flight(), 0u);

  rig.cloud.migrate_vm(id, "h2");
  rig.engine.run_until(sim::SimTime(6.0));
  EXPECT_NE(rig.cloud.host("h2").find(id), nullptr);
  EXPECT_EQ(rig.cloud.migrations_completed(), 1);
}

// --- Escalation destination capacity (§IV-D) ---

hw::ServerConfig small_host(const std::string& name, int cores) {
  hw::ServerConfig cfg;
  cfg.name = name;
  cfg.cpu.cores = cores;
  return cfg;
}

TEST(CollisionResolution, SkipsDestinationsWithoutCapacity) {
  sim::Engine engine{1};
  CloudManager cloud{engine};
  cloud.add_host(small_host("h0", 4));
  cloud.add_host(small_host("h1", 4));  // less populated, but full
  cloud.add_host(small_host("h2", 4));  // busier, but the VM fits
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.vcpus = 2;
  high.app_id = "app-a";
  cloud.boot_vm("h0", high);
  cloud.boot_vm("h0", high);
  high.app_id = "app-b";  // the smaller group: this is what moves
  cloud.boot_vm("h0", high);

  virt::VmConfig filler;
  filler.priority = virt::Priority::kLow;
  filler.vcpus = 4;
  cloud.boot_vm("h1", filler);  // 4/4 cores used: nothing fits
  filler.vcpus = 1;
  cloud.boot_vm("h2", filler);  // 2/4 cores used: a 2-vcpu VM fits
  cloud.boot_vm("h2", filler);

  // The population tie-break would prefer h1 (1 VM < 2 VMs), but h1 cannot
  // admit the mover; the feasible h2 must win.
  EXPECT_EQ(cloud.resolve_high_priority_collision("h0"), 1);
  EXPECT_EQ(app_hosts(cloud, "app-a"), (std::vector<std::string>{"h0", "h0"}));
  EXPECT_EQ(app_hosts(cloud, "app-b"), (std::vector<std::string>{"h2"}));
}

TEST(CollisionResolution, NoFeasibleDestinationMovesNothing) {
  sim::Engine engine{1};
  CloudManager cloud{engine};
  cloud.add_host(small_host("h0", 4));
  cloud.add_host(small_host("h1", 4));
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.vcpus = 2;
  high.app_id = "app-a";
  cloud.boot_vm("h0", high);
  high.app_id = "app-b";
  cloud.boot_vm("h0", high);
  virt::VmConfig filler;
  filler.priority = virt::Priority::kLow;
  filler.vcpus = 4;
  cloud.boot_vm("h1", filler);

  EXPECT_EQ(cloud.resolve_high_priority_collision("h0"), 0);
  EXPECT_EQ(cloud.resolve_high_priority_collision("h0"), 0);  // stable no-op
  EXPECT_EQ(app_hosts(cloud, "app-a"), (std::vector<std::string>{"h0"}));
  EXPECT_EQ(app_hosts(cloud, "app-b"), (std::vector<std::string>{"h0"}));
}

TEST(CollisionResolution, SkipsVmsAlreadyInFlight) {
  TwoHostRig rig;
  rig.cloud.set_migration_model({.bandwidth_bps = 1e9, .downtime_s = 0.5});
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.app_id = "app-a";
  rig.cloud.boot_vm("h0", high);
  rig.cloud.boot_vm("h0", high);
  high.app_id = "app-b";
  rig.cloud.boot_vm("h0", high);
  rig.cloud.start_ticking(0.1);

  EXPECT_EQ(rig.cloud.resolve_high_priority_collision("h0"), 1);
  EXPECT_EQ(rig.cloud.migrations_in_flight(), 1u);
  // The registry still shows the mover on h0 until the copy finishes, so
  // the collision is still visible — but re-resolving must not try to
  // double-migrate the in-flight VM.
  EXPECT_EQ(rig.cloud.resolve_high_priority_collision("h0"), 0);
  EXPECT_EQ(rig.cloud.migrations_in_flight(), 1u);
}

// --- Node-manager state handoff on migration (DESIGN.md §5j) ---

TEST(MigrationHandoff, CapsAreRetiredAndSourceForgets) {
  // A noisy-neighbour host (all ten workers packed with the fio antagonist
  // on host-0, host-1 empty) where the CUBIC controller reliably throttles
  // fio — then fio migrates away while its cap is applied.
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 10;
  p.worker_host_limit = 1;
  p.seed = 2026;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 20.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  core::NodeManager& src = c.node_manager(0);
  core::NodeManager& dst = c.node_manager(1);

  c.framework->submit(wl::make_spark_logreg(60, 8));
  double waited = 0.0;
  while (c.vm(fio).cgroup().blkio_throttle_bps() == hw::kNoCap && waited < 600.0) {
    exp::run_for(c, 20.0);
    waited += 20.0;
  }
  ASSERT_NE(c.vm(fio).cgroup().blkio_throttle_bps(), hw::kNoCap) << "controller never engaged";
  ASSERT_FALSE(src.monitor().suspect_series(core::kIo, fio).empty());
  const std::size_t cap_points = src.cap_series(core::kIo, fio).size();
  ASSERT_GT(cap_points, 0u);

  c.cloud->migrate_vm(fio, "host-1");

  // The applied cap was retired through the source cgroup at departure (no
  // controller travels with the VM, so nothing may stay throttled)...
  EXPECT_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), hw::kNoCap);
  // ...the source's monitor state is gone (a returning VM must re-prime)...
  EXPECT_TRUE(src.monitor().suspect_series(core::kIo, fio).empty());
  EXPECT_EQ(src.monitor().latest(fio), nullptr);
  // ...but cap history survives: it is plot data, not control state.
  EXPECT_EQ(src.cap_series(core::kIo, fio).size(), cap_points);

  // The run continues cleanly (no stale controller actuating a departed VM
  // id) and the destination starts monitoring the arrival.
  exp::run_for(c, 60.0);
  EXPECT_FALSE(dst.monitor().suspect_series(core::kIo, fio).empty());
}

TEST(MigrationHandoff, ReturningVmRePrimesTheCounterBaseline) {
  // Migrate a VM away, let it do 100 s of I/O elsewhere, bring it back.
  // Its cumulative cgroup counters travelled with it, so a source monitor
  // that kept the old baseline would book all that I/O as one interval's
  // delta — a giant phantom spike.
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 2;
  p.seed = 7;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  core::NodeManager& nm = c.node_manager(0);

  exp::run_for(c, 100.0);
  double peak_before = 0.0;
  {
    const sim::TimeSeries& series = nm.monitor().suspect_series(core::kIo, fio);
    ASSERT_GT(series.size(), 3u);
    for (std::size_t i = 0; i < series.size(); ++i) {
      peak_before = std::max(peak_before, series.value(i));
    }
  }
  ASSERT_GT(peak_before, 0.0);

  c.cloud->migrate_vm(fio, "host-1");
  exp::run_for(c, 100.0);
  c.cloud->migrate_vm(fio, "host-0");
  exp::run_for(c, 30.0);

  const sim::TimeSeries& after = nm.monitor().suspect_series(core::kIo, fio);
  ASSERT_GT(after.size(), 1u);
  for (std::size_t i = 0; i < after.size(); ++i) {
    EXPECT_LT(after.value(i), 3.0 * peak_before);
  }
}

TEST(Heterogeneity, SpeedFactorsScaleHostClocks) {
  exp::ClusterParams p;
  p.hosts = 3;
  p.workers = 3;
  p.host_speed_factors = {1.0, 0.5};
  exp::Cluster c = exp::make_cluster(p);
  const double base = p.server.cpu.clock_hz;
  EXPECT_DOUBLE_EQ(c.cloud->host("host-0").server().config().cpu.clock_hz, base);
  EXPECT_DOUBLE_EQ(c.cloud->host("host-1").server().config().cpu.clock_hz, 0.5 * base);
  EXPECT_DOUBLE_EQ(c.cloud->host("host-2").server().config().cpu.clock_hz, base);  // cycled
  // A zero, negative or NaN factor would leave a host without usable cycles.
  for (const double bad : {0.0, -1.0, std::numeric_limits<double>::quiet_NaN()}) {
    p.host_speed_factors = {1.0, bad};
    EXPECT_THROW(exp::make_cluster(p), std::invalid_argument) << bad;
  }
}

TEST(Heterogeneity, SlowHostCreatesStragglers) {
  // Same CPU-bound job on a homogeneous vs heterogeneous cluster: the
  // barrier waits for tasks on the slow host, so the job takes longer.
  auto run = [](std::vector<double> factors) {
    exp::ClusterParams p;
    p.hosts = 3;
    p.workers = 6;
    p.seed = 4;
    p.host_speed_factors = std::move(factors);
    exp::Cluster c = exp::make_cluster(p);
    return exp::run_job(c, wl::make_wordcount(12, 6));
  };
  const double homogeneous = run({});
  const double heterogeneous = run({1.0, 1.0, 0.5});
  EXPECT_GT(heterogeneous, 1.15 * homogeneous);
}

}  // namespace
}  // namespace perfcloud::cloud
