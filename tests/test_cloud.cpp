#include <gtest/gtest.h>

#include "cloud/cloud_manager.hpp"
#include "cloud/placement.hpp"
#include "sim/engine.hpp"

namespace perfcloud::cloud {
namespace {

hw::ServerConfig host_cfg(const std::string& name) {
  hw::ServerConfig cfg;
  cfg.name = name;
  return cfg;
}

TEST(CloudManager, AddAndQueryHosts) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  cloud.add_host(host_cfg("h1"));
  EXPECT_EQ(cloud.host_count(), 2u);
  EXPECT_EQ(cloud.host_names(), (std::vector<std::string>{"h0", "h1"}));
  EXPECT_NO_THROW(static_cast<void>(cloud.host("h1")));
  EXPECT_THROW(static_cast<void>(cloud.host("nope")), std::invalid_argument);
}

TEST(CloudManager, DuplicateHostThrows) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  EXPECT_THROW(cloud.add_host(host_cfg("h0")), std::invalid_argument);
}

TEST(CloudManager, BootAssignsUniqueIds) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  const virt::Vm& a = cloud.boot_vm("h0", virt::VmConfig{.name = "a"});
  const virt::Vm& b = cloud.boot_vm("h0", virt::VmConfig{.name = "b"});
  EXPECT_NE(a.id(), b.id());
}

/// Host of each VM of `app`, in all_vms() (ascending VM id) order.
std::vector<std::string> app_hosts(const CloudManager& cloud, const std::string& app) {
  std::vector<std::string> hosts;
  for (const VmRecord& r : cloud.all_vms()) {
    if (r.app_id == app) hosts.push_back(r.host);
  }
  return hosts;
}

TEST(CloudManager, RegistryReflectsBootedVms) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  cloud.add_host(host_cfg("h1"));
  virt::VmConfig high;
  high.priority = virt::Priority::kHigh;
  high.app_id = "hadoop";
  cloud.boot_vm("h0", high);
  cloud.boot_vm("h1", high);
  cloud.boot_vm("h0", virt::VmConfig{.name = "fio"});

  const auto on_h0 = cloud.vms_on_host("h0");
  EXPECT_EQ(on_h0.size(), 2u);
  EXPECT_EQ(cloud.all_vms().size(), 3u);
  EXPECT_EQ(app_hosts(cloud, "hadoop"), (std::vector<std::string>{"h0", "h1"}));
  EXPECT_TRUE(app_hosts(cloud, "nothing").empty());
}

std::vector<int> ids_of(const std::vector<VmRecord>& records) {
  std::vector<int> ids;
  for (const VmRecord& r : records) ids.push_back(r.id);
  return ids;
}

TEST(CloudManager, RecordsComeInIdOrderAfterAdoption) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  cloud.add_host(host_cfg("h1"));
  virt::VmConfig high{.vcpus = 4, .priority = virt::Priority::kHigh, .app_id = "a"};
  const int first = cloud.boot_vm("h0", high).id();
  cloud.boot_vm("h1", virt::VmConfig{.priority = virt::Priority::kHigh, .app_id = "b"});
  cloud.boot_vm("h1", virt::VmConfig{.name = "fio"});
  cloud.boot_vm("h0", high);
  // Adoption appends the lowest id last on h1's hypervisor, and leaves h0
  // (first in provisioning order) holding only a later VM of app "a".
  cloud.migrate_vm(first, "h1");
  ASSERT_EQ(cloud.host("h1").vms().back()->id(), first);

  const std::vector<VmRecord> on_h1 = cloud.vms_on_host("h1");
  EXPECT_EQ(ids_of(on_h1), (std::vector<int>{1, 2, 3}));
  const VmRecord& moved = on_h1.front();
  EXPECT_EQ(moved.host, "h1");
  EXPECT_EQ(moved.app, cloud.app_interner().lookup("a"));
  EXPECT_EQ(moved.vcpus, 4);
  EXPECT_EQ(moved.memory, high.memory);
  EXPECT_EQ(ids_of(cloud.all_vms()), (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(app_hosts(cloud, "a"), (std::vector<std::string>{"h1", "h0"}));

  std::vector<int> victims;
  for (const virt::VmConfig& cfg : cloud.crash_host("h1")) victims.push_back(cfg.id);
  EXPECT_EQ(victims, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(ids_of(cloud.all_vms()), (std::vector<int>{4}));
}

TEST(CloudManager, StartTickingRunsHypervisors) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  virt::Vm& vm = cloud.boot_vm("h0", virt::VmConfig{.vcpus = 2});

  class Burner : public virt::GuestWorkload {
   public:
    hw::TenantDemand demand(sim::SimTime, double dt) override {
      hw::TenantDemand d;
      d.cpu_core_seconds = 1.0 * dt;
      return d;
    }
    void apply(const hw::TenantGrant&, sim::SimTime, double) override {}
    [[nodiscard]] bool finished(sim::SimTime) const override { return false; }
    [[nodiscard]] std::string_view name() const override { return "burner"; }
  };
  vm.attach(std::make_unique<Burner>());

  cloud.start_ticking(0.1);
  e.run_until(sim::SimTime(1.0));
  EXPECT_NEAR(vm.cgroup().stats().cpu_time_s, 1.0, 1e-6);
}

TEST(CloudManager, StartTickingTwiceThrows) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  cloud.start_ticking(0.1);
  EXPECT_THROW(cloud.start_ticking(0.1), std::logic_error);
}

TEST(Placement, SpreadIsRoundRobin) {
  sim::Engine e;
  CloudManager cloud(e);
  cloud.add_host(host_cfg("h0"));
  cloud.add_host(host_cfg("h1"));
  cloud.add_host(host_cfg("h2"));
  const auto ids = place_spread(cloud, cloud.host_names(), 7, virt::VmConfig{}, "app");
  EXPECT_EQ(ids.size(), 7u);
  EXPECT_EQ(cloud.vms_on_host("h0").size(), 3u);
  EXPECT_EQ(cloud.vms_on_host("h1").size(), 2u);
  EXPECT_EQ(cloud.vms_on_host("h2").size(), 2u);
  for (const auto& r : cloud.all_vms()) EXPECT_EQ(r.app_id, "app");
}

TEST(Placement, EmptyHostListThrows) {
  sim::Engine e;
  CloudManager cloud(e);
  EXPECT_THROW(place_spread(cloud, {}, 1, virt::VmConfig{}, "a"), std::invalid_argument);
}

}  // namespace
}  // namespace perfcloud::cloud
