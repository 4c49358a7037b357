#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <stdexcept>
#include <vector>

#include "virt/hypervisor.hpp"

namespace perfcloud::virt {
namespace {

/// Minimal guest: constant demand, counts what it receives.
class ConstantGuest : public GuestWorkload {
 public:
  explicit ConstantGuest(hw::TenantDemand d) : d_(d) {}
  hw::TenantDemand demand(sim::SimTime, double dt) override {
    hw::TenantDemand scaled = d_;
    scaled.cpu_core_seconds *= dt;
    scaled.io_ops *= dt;
    scaled.io_bytes *= dt;
    return scaled;
  }
  void apply(const hw::TenantGrant& g, sim::SimTime, double) override {
    total_instructions += g.instructions;
    total_io_bytes += g.io_bytes;
    last_cpi = g.cpi;
  }
  [[nodiscard]] bool finished(sim::SimTime) const override { return false; }
  [[nodiscard]] std::string_view name() const override { return "constant"; }

  double total_instructions = 0.0;
  double total_io_bytes = 0.0;
  double last_cpi = 0.0;  ///< CPI of the last granted tick.

 private:
  hw::TenantDemand d_;
};

hw::TenantDemand busy_demand() {
  hw::TenantDemand d;
  d.cpu_core_seconds = 4.0;  // per second; will exceed 2 vCPUs
  d.io_ops = 50.0;
  d.io_bytes = 50.0 * 65536;
  d.llc_footprint = 4.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 0.3e9;
  return d;
}

hw::ServerConfig quiet_server() {
  hw::ServerConfig cfg;
  cfg.disk.wait_jitter_sigma = 0.0;
  cfg.memory.cpi_jitter_sigma = 0.0;
  return cfg;
}

TEST(Cgroup, AccountAccumulates) {
  Cgroup cg("test");
  hw::TenantGrant g;
  g.io_wait_seconds = 0.5;
  g.io_ops = 10.0;
  g.io_bytes = 4096.0;
  g.cycles = 100.0;
  g.instructions = 80.0;
  g.llc_misses = 5.0;
  g.cpu_core_seconds = 0.25;
  cg.account(g);
  cg.account(g);
  EXPECT_DOUBLE_EQ(cg.stats().io_wait_time_ms, 1000.0);
  EXPECT_DOUBLE_EQ(cg.stats().io_serviced_ops, 20.0);
  EXPECT_DOUBLE_EQ(cg.stats().io_service_bytes, 8192.0);
  EXPECT_DOUBLE_EQ(cg.stats().cycles, 200.0);
  EXPECT_DOUBLE_EQ(cg.stats().instructions, 160.0);
  EXPECT_DOUBLE_EQ(cg.stats().llc_misses, 10.0);
  EXPECT_DOUBLE_EQ(cg.stats().cpu_time_s, 0.5);
}

TEST(Cgroup, CapsDefaultToUncapped) {
  Cgroup cg("c");
  EXPECT_EQ(cg.cpu_quota_cores(), hw::kNoCap);
  EXPECT_EQ(cg.blkio_throttle_bps(), hw::kNoCap);
  cg.set_cpu_quota_cores(1.5);
  cg.set_blkio_throttle_bps(1e6);
  EXPECT_DOUBLE_EQ(cg.cpu_quota_cores(), 1.5);
  EXPECT_DOUBLE_EQ(cg.blkio_throttle_bps(), 1e6);
  cg.clear_cpu_quota();
  cg.clear_blkio_throttle();
  EXPECT_EQ(cg.cpu_quota_cores(), hw::kNoCap);
  EXPECT_EQ(cg.blkio_throttle_bps(), hw::kNoCap);
}

TEST(Vm, ConfigAccessors) {
  VmConfig cfg;
  cfg.id = 7;
  cfg.name = "worker";
  cfg.vcpus = 2;
  cfg.priority = Priority::kHigh;
  cfg.app_id = "hadoop";
  Vm vm(cfg);
  EXPECT_EQ(vm.id(), 7);
  EXPECT_EQ(vm.name(), "worker");
  EXPECT_EQ(vm.priority(), Priority::kHigh);
  EXPECT_EQ(vm.app_id(), "hadoop");
  EXPECT_TRUE(vm.idle(sim::SimTime(0.0)));
}

TEST(Vm, AttachedGuestMakesItBusy) {
  Vm vm(VmConfig{.id = 1});
  vm.attach(std::make_unique<ConstantGuest>(busy_demand()));
  EXPECT_FALSE(vm.idle(sim::SimTime(0.0)));
  vm.detach();
  EXPECT_TRUE(vm.idle(sim::SimTime(0.0)));
}

TEST(Hypervisor, BootAndFind) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  hv.boot(VmConfig{.id = 1, .name = "a"});
  hv.boot(VmConfig{.id = 2, .name = "b"});
  EXPECT_NE(hv.find(1), nullptr);
  EXPECT_EQ(hv.find(3), nullptr);
  EXPECT_EQ(hv.vms().size(), 2u);
}

TEST(Hypervisor, DuplicateIdThrows) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  hv.boot(VmConfig{.id = 1});
  EXPECT_THROW(hv.boot(VmConfig{.id = 1}), std::invalid_argument);
}

TEST(Hypervisor, UnknownVmThrows) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  EXPECT_THROW(hv.set_vcpu_quota(99, 1.0), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(hv.dom_stats(99)), std::invalid_argument);
}

TEST(Hypervisor, TickAccountsIntoCgroups) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  Vm& vm = hv.boot(VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<ConstantGuest>(busy_demand()));
  for (int t = 1; t <= 10; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  const CgroupStats& st = hv.dom_stats(1);
  EXPECT_GT(st.io_serviced_ops, 0.0);
  EXPECT_GT(st.instructions, 0.0);
  // vCPU clamp: 2 vCPUs for 1 simulated second.
  EXPECT_NEAR(st.cpu_time_s, 2.0, 1e-6);
}

TEST(Hypervisor, VcpuQuotaLimitsCpu) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  Vm& vm = hv.boot(VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<ConstantGuest>(busy_demand()));
  // A NaN quota would silently starve the VM; NaN and negative are rejected
  // and leave the cgroup untouched. 0 (full throttle) and +inf stay legal.
  EXPECT_THROW(hv.set_vcpu_quota(1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(hv.set_vcpu_quota(1, -0.5), std::invalid_argument);
  EXPECT_EQ(vm.cgroup().cpu_quota_cores(), hw::kNoCap);
  EXPECT_NO_THROW(hv.set_vcpu_quota(1, 0.0));
  EXPECT_NO_THROW(hv.set_vcpu_quota(1, std::numeric_limits<double>::infinity()));
  hv.set_vcpu_quota(1, 0.5);
  for (int t = 1; t <= 10; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  EXPECT_NEAR(hv.dom_stats(1).cpu_time_s, 0.5, 1e-6);
  hv.clear_vcpu_quota(1);
  for (int t = 11; t <= 20; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  EXPECT_NEAR(hv.dom_stats(1).cpu_time_s, 2.5, 1e-6);
}

TEST(Hypervisor, BlkioThrottleLimitsBytes) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  Vm& vm = hv.boot(VmConfig{.id = 1, .vcpus = 2});
  vm.attach(std::make_unique<ConstantGuest>(busy_demand()));
  // A NaN throttle would read as uncapped in the block device; NaN and
  // negative are rejected and leave the cgroup untouched. 0 and +inf stay
  // legal.
  EXPECT_THROW(hv.set_blkio_throttle(1, std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(hv.set_blkio_throttle(1, -65536.0), std::invalid_argument);
  EXPECT_EQ(vm.cgroup().blkio_throttle_bps(), hw::kNoCap);
  EXPECT_NO_THROW(hv.set_blkio_throttle(1, 0.0));
  EXPECT_NO_THROW(hv.set_blkio_throttle(1, std::numeric_limits<double>::infinity()));
  hv.set_blkio_throttle(1, 65536.0);  // 1 op/s worth
  for (int t = 1; t <= 10; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  EXPECT_LE(hv.dom_stats(1).io_service_bytes, 65536.0 + 1e-6);
}

TEST(Hypervisor, IdleVmAccruesNothing) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  hv.boot(VmConfig{.id = 1});
  for (int t = 1; t <= 5; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  EXPECT_DOUBLE_EQ(hv.dom_stats(1).cpu_time_s, 0.0);
  EXPECT_DOUBLE_EQ(hv.dom_stats(1).io_serviced_ops, 0.0);
}

TEST(Hypervisor, GuestReceivesGrants) {
  Hypervisor hv(quiet_server(), sim::Rng(1));
  Vm& vm = hv.boot(VmConfig{.id = 1, .vcpus = 2});
  auto guest = std::make_unique<ConstantGuest>(busy_demand());
  ConstantGuest* raw = guest.get();
  vm.attach(std::move(guest));
  for (int t = 1; t <= 10; ++t) hv.tick(sim::SimTime(t * 0.1), 0.1);
  EXPECT_GT(raw->total_instructions, 0.0);
  EXPECT_GT(raw->total_io_bytes, 0.0);
}

TEST(Hypervisor, MigrationInflowRejectsNonFiniteBandwidth) {
  // A NaN or infinite page stream would poison every tenant's disk grant on
  // the destination host; only a finite positive rate is a valid flow.
  Hypervisor hv(quiet_server(), sim::Rng(1));
  for (const double bad : {std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity(), 0.0, -1.0e8}) {
    EXPECT_THROW(hv.begin_migration_in(7, bad), std::invalid_argument) << bad;
  }
  EXPECT_EQ(hv.migration_inflow_count(), 0u);
  hv.begin_migration_in(7, 1.0e8);
  EXPECT_EQ(hv.migration_inflow_count(), 1u);
  EXPECT_THROW(hv.begin_migration_in(7, 1.0e8), std::logic_error);
  hv.end_migration_in(7);
  EXPECT_EQ(hv.migration_inflow_count(), 0u);
}

// --- Noise state travels with the VM ---
//
// The placement-factor tests below run with CPI jitter off, so a VM's CPI
// depends only on its contention and its placement factor. A hog streams
// through the LLC; the probe's working set spills into it, so the placement
// factor scales a large contention penalty. A VM without a guest demands
// nothing and changes nobody's contention.

hw::TenantDemand hog_demand() {
  hw::TenantDemand d;
  d.cpu_core_seconds = 8.0;
  d.llc_footprint = 1e12;
  d.mem_bw_per_cpu_sec = 10.0e9;
  return d;
}

hw::TenantDemand probe_demand() {
  hw::TenantDemand d;
  d.cpu_core_seconds = 1.0;
  d.llc_footprint = 64.0 * 1024 * 1024;
  d.mem_bw_per_cpu_sec = 1.0e9;
  return d;
}

ConstantGuest* boot_with(Hypervisor& hv, VmConfig cfg, hw::TenantDemand d) {
  auto guest = std::make_unique<ConstantGuest>(d);
  ConstantGuest* raw = guest.get();
  hv.boot(std::move(cfg)).attach(std::move(guest));
  return raw;
}

void tick_at(Hypervisor& hv, int t) { hv.tick(sim::SimTime(t * 0.1), 0.1); }

void expect_eviction_leaves_survivor_cpi(int sockets) {
  hw::ServerConfig cfg = quiet_server();
  cfg.sockets = sockets;
  Hypervisor hv(cfg, sim::Rng(11));
  // On two sockets a VM on the other socket comes first, so the memory
  // model's demand positions differ from the host's.
  if (sockets > 1) (void)boot_with(hv, VmConfig{.id = 9, .numa_node = 1}, probe_demand());
  (void)boot_with(hv, VmConfig{.id = 1, .vcpus = 8, .numa_node = 0}, hog_demand());
  hv.boot(VmConfig{.id = 2, .numa_node = 0});  // zero footprint, ahead of the survivor
  ConstantGuest* survivor = boot_with(hv, VmConfig{.id = 3, .numa_node = 0}, probe_demand());

  tick_at(hv, 1);
  const double before = survivor->last_cpi;
  (void)hv.evict(2);
  tick_at(hv, 2);
  EXPECT_GT(before, 1.0);
  EXPECT_EQ(survivor->last_cpi, before);
}

TEST(Hypervisor, EvictionLeavesSurvivorCpiOnOneSocket) { expect_eviction_leaves_survivor_cpi(1); }

TEST(Hypervisor, EvictionLeavesSurvivorCpiOnTwoSockets) { expect_eviction_leaves_survivor_cpi(2); }

TEST(Hypervisor, VmBootedDuringInflowKeepsItsOwnPlacement) {
  // The probe boots while a migration stream lands and stays after the
  // stream ends. The stream has no memory, so the probe draws the same
  // placement as on a host without it, and keeps it after the stream ends.
  Hypervisor with_inflow(quiet_server(), sim::Rng(5));
  (void)boot_with(with_inflow, VmConfig{.id = 1, .vcpus = 8}, hog_demand());
  with_inflow.begin_migration_in(7, 1.0e8);
  tick_at(with_inflow, 1);
  ConstantGuest* probe = boot_with(with_inflow, VmConfig{.id = 2}, probe_demand());
  tick_at(with_inflow, 2);
  const double during = probe->last_cpi;
  with_inflow.end_migration_in(7);
  tick_at(with_inflow, 3);
  const double after = probe->last_cpi;

  Hypervisor reference_host(quiet_server(), sim::Rng(5));
  (void)boot_with(reference_host, VmConfig{.id = 1, .vcpus = 8}, hog_demand());
  tick_at(reference_host, 1);
  ConstantGuest* reference = boot_with(reference_host, VmConfig{.id = 2}, probe_demand());
  tick_at(reference_host, 2);

  EXPECT_GT(reference->last_cpi, 1.0);
  EXPECT_EQ(during, reference->last_cpi);
  EXPECT_EQ(after, reference->last_cpi);
}

TEST(Hypervisor, InflowLeavesResidentsCpiUnchanged) {
  // With CPI jitter on, a page stream landing on the host must not shift
  // the memory model's draws: every resident retires the same instructions
  // at the same CPI, tick for tick, as on a twin host without the stream.
  Hypervisor with_inflow(hw::ServerConfig{}, sim::Rng(8));
  Hypervisor without(hw::ServerConfig{}, sim::Rng(8));
  std::vector<ConstantGuest*> guests_with;
  std::vector<ConstantGuest*> guests_without;
  for (Hypervisor* hv : {&with_inflow, &without}) {
    auto& guests = hv == &with_inflow ? guests_with : guests_without;
    guests.push_back(boot_with(*hv, VmConfig{.id = 1, .vcpus = 8}, hog_demand()));
    guests.push_back(boot_with(*hv, VmConfig{.id = 2}, probe_demand()));
  }
  with_inflow.begin_migration_in(7, 1.0e8);
  for (int t = 1; t <= 6; ++t) {
    if (t == 4) with_inflow.end_migration_in(7);
    tick_at(with_inflow, t);
    tick_at(without, t);
    for (std::size_t i = 0; i < guests_with.size(); ++i) {
      EXPECT_EQ(guests_with[i]->last_cpi, guests_without[i]->last_cpi) << "t=" << t << " vm " << i;
      EXPECT_EQ(guests_with[i]->total_instructions, guests_without[i]->total_instructions)
          << "t=" << t << " vm " << i;
    }
  }
  EXPECT_GT(guests_without[1]->last_cpi, 1.0);
}

TEST(Hypervisor, AdoptedVmDrawsFreshPlacement) {
  // A migrated VM's placement factor describes where it sat on its old
  // host; on arrival it draws a new one. Its CPI must match a twin booted
  // fresh on an identical destination, whose factor is the same draw.
  Hypervisor source(quiet_server(), sim::Rng(21));
  (void)boot_with(source, VmConfig{.id = 4, .vcpus = 8}, hog_demand());
  ConstantGuest* migrant = boot_with(source, VmConfig{.id = 2}, probe_demand());
  tick_at(source, 1);
  const double at_source = migrant->last_cpi;

  // Destination: a hog and an idle VM that leaves before the arrival.
  Hypervisor destination(quiet_server(), sim::Rng(11));
  (void)boot_with(destination, VmConfig{.id = 1, .vcpus = 8}, hog_demand());
  destination.boot(VmConfig{.id = 3});
  tick_at(destination, 1);
  (void)destination.evict(3);
  destination.adopt(source.evict(2));
  tick_at(destination, 2);

  // Twin destination: the idle VM stays, so the twin is appended behind it
  // and draws its placement at the same point of the host's stream.
  Hypervisor twin_host(quiet_server(), sim::Rng(11));
  (void)boot_with(twin_host, VmConfig{.id = 1, .vcpus = 8}, hog_demand());
  twin_host.boot(VmConfig{.id = 3});
  tick_at(twin_host, 1);
  ConstantGuest* twin = boot_with(twin_host, VmConfig{.id = 2}, probe_demand());
  tick_at(twin_host, 2);

  EXPECT_GT(twin->last_cpi, 1.0);
  EXPECT_NE(at_source, twin->last_cpi);
  EXPECT_EQ(migrant->last_cpi, twin->last_cpi);
}

TEST(Hypervisor, VmStateChangedOutsideTheHypervisorBindsNextTick) {
  // The hypervisor reads a VM's socket, pause flag and guest every tick, so
  // changes made straight on the Vm (NUMA remapping, a fault's stall, a
  // guest attached or detached) bind on the very next tick.
  hw::ServerConfig cfg = quiet_server();
  cfg.sockets = 2;
  Hypervisor hv(cfg, sim::Rng(3));
  ConstantGuest* workers[] = {
      boot_with(hv, VmConfig{.id = 1, .numa_node = 0}, probe_demand()),
      boot_with(hv, VmConfig{.id = 2, .numa_node = 0}, probe_demand()),
  };
  (void)boot_with(hv, VmConfig{.id = 3, .vcpus = 8, .numa_node = 0}, hog_demand());
  Vm& stream = *hv.find(3);
  int t = 0;
  tick_at(hv, ++t);
  tick_at(hv, ++t);
  const double shared_cpi[] = {workers[0]->last_cpi, workers[1]->last_cpi};

  // STREAM moves off the workers' socket: their CPI falls on the next tick,
  // and is back where it was on the tick after STREAM returns.
  stream.set_numa_node(1);
  tick_at(hv, ++t);
  for (int i = 0; i < 2; ++i) EXPECT_LT(workers[i]->last_cpi, shared_cpi[i]) << i;
  stream.set_numa_node(0);
  tick_at(hv, ++t);
  for (int i = 0; i < 2; ++i) EXPECT_EQ(workers[i]->last_cpi, shared_cpi[i]) << i;

  // A paused VM gets a zero grant from the next tick on; grants resume on
  // the tick after the pause is lifted.
  Vm& paused = *hv.find(1);
  paused.set_paused(PauseCause::kStall, true);
  const CgroupStats before_pause = hv.dom_stats(1);
  const double instructions_before_pause = workers[0]->total_instructions;
  tick_at(hv, ++t);
  EXPECT_EQ(hv.dom_stats(1).cpu_time_s, before_pause.cpu_time_s);
  EXPECT_EQ(hv.dom_stats(1).io_serviced_ops, before_pause.io_serviced_ops);
  EXPECT_EQ(workers[0]->total_instructions, instructions_before_pause);
  EXPECT_GT(workers[1]->total_instructions, 0.0);
  paused.set_paused(PauseCause::kStall, false);
  tick_at(hv, ++t);
  EXPECT_GT(hv.dom_stats(1).cpu_time_s, before_pause.cpu_time_s);
  EXPECT_GT(workers[0]->total_instructions, instructions_before_pause);

  // A guest attached to an idle VM runs from the next tick; once detached,
  // its VM accrues nothing.
  Vm& spare = hv.boot(VmConfig{.id = 4, .numa_node = 1});
  tick_at(hv, ++t);
  EXPECT_EQ(hv.dom_stats(4).cpu_time_s, 0.0);
  auto guest = std::make_unique<ConstantGuest>(busy_demand());
  const ConstantGuest* attached = guest.get();
  spare.attach(std::move(guest));
  tick_at(hv, ++t);
  EXPECT_GT(hv.dom_stats(4).cpu_time_s, 0.0);
  EXPECT_GT(attached->total_instructions, 0.0);
  spare.detach();
  const double cpu_at_detach = hv.dom_stats(4).cpu_time_s;
  tick_at(hv, ++t);
  EXPECT_EQ(hv.dom_stats(4).cpu_time_s, cpu_at_detach);
}

}  // namespace
}  // namespace perfcloud::virt
