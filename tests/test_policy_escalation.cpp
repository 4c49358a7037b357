// Throttle-escalation end-to-end and hysteresis-edge tests (DESIGN.md §5k).
//
// The honest way to pin a cap at its floor: raise min_cap_fraction so the
// CUBIC controller's clamp makes throttling ineffective — the antagonist is
// identified and capped, the cap sits at the floor with ever_decreased set,
// and the victim's deviation genuinely persists. The policy must then move
// the ANTAGONIST (never the victim's VMs) to the best-scored host, after
// which the victim recovers — unless a guardrail (dwell, cooldown, budget,
// blacklist) or infeasibility (no host without the victim app) suppresses
// the move, each with its own counter and decision-trail event.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>

#include "exp/chaos.hpp"
#include "exp/cluster.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::policy {
namespace {

struct Scenario {
  int hosts = 3;
  int workers = 6;
  std::uint64_t seed = 91;
  exp::Placement placement = exp::Placement::kPacked;
  PolicyParams policy;
  cloud::MigrationModel migration;  // default: instantaneous
  double min_cap_fraction = 0.9;    // throttle to 90 % of baseline: toothless
};

exp::Cluster build(const Scenario& s) {
  exp::ClusterParams p;
  p.hosts = s.hosts;
  p.workers = s.workers;
  p.seed = s.seed;
  p.placement = s.placement;
  p.migration = s.migration;
  p.policy = s.policy;
  return exp::make_cluster(p);
}

core::PerfCloudConfig control_cfg(const Scenario& s) {
  core::PerfCloudConfig cfg;
  cfg.min_cap_fraction = s.min_cap_fraction;
  return cfg;
}

PolicyParams eager_policy() {
  PolicyParams params;
  params.floor_windows = 2;
  params.dwell_min_s = 0.0;
  params.host_cooldown_s = 0.0;
  params.max_in_flight = 4;
  return params;
}

/// Keep the victim app's I/O flowing for the whole observation window.
void submit_stream_of_jobs(exp::Cluster& c) {
  for (double at : {0.0, 150.0, 300.0, 450.0}) {
    c.engine->at(sim::SimTime(at), [&c](sim::SimTime) {
      c.framework->submit(wl::make_terasort(16, 16));
    });
  }
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

TEST(ThrottleEscalation, MigratesAntagonistAndVictimRecovers) {
  Scenario s;
  s.policy = eager_policy();
  exp::Cluster c = build(s);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::enable_perfcloud(c, control_cfg(s));

  const std::string jsonl = "/tmp/perfcloud_policy_escalation.jsonl";
  exp::EventSink sink(exp::EventSink::Options{.events_jsonl_path = jsonl, .async = false});
  exp::attach_sink(c, sink);

  submit_stream_of_jobs(c);
  exp::run_for(c, 600.0);

  ASSERT_NE(c.policy, nullptr);
  EXPECT_GE(c.policy->triggered(), 1);
  EXPECT_GE(c.policy->migrated(), 1);
  EXPECT_GE(c.cloud->migrations_completed(), 1);

  // The ANTAGONIST moved; every worker of the protected app stayed put.
  std::string fio_host;
  for (const cloud::VmRecord& r : c.cloud->all_vms()) {
    if (r.id == fio) fio_host = r.host;
  }
  EXPECT_NE(fio_host, "host-0");
  EXPECT_FALSE(fio_host.empty());
  for (const int id : c.worker_vm_ids) {
    for (const cloud::VmRecord& r : c.cloud->all_vms()) {
      if (r.id == id) {
        EXPECT_EQ(r.host, "host-0");
      }
    }
  }

  // With the antagonist gone the victim's deviation signal recovered.
  const sim::TimeSeries& dev = c.node_manager(0).deviation_signal(core::kIo, "hadoop");
  ASSERT_FALSE(dev.empty());
  EXPECT_LT(dev.value(dev.size() - 1), control_cfg(s).io_deviation_threshold);

  // Decision trail: trigger and migrate events under the "policy" source.
  sink.close();
  const std::string events = slurp(jsonl);
  EXPECT_NE(events.find("\"policy\""), std::string::npos);
  EXPECT_NE(events.find("trigger io vm="), std::string::npos);
  EXPECT_NE(events.find("migrate io vm="), std::string::npos);

  // chaos_report folds the placement-churn counters.
  const exp::ChaosReport report = exp::chaos_report(c, control_cfg(s), {fio});
  EXPECT_EQ(report.migrations_started, c.cloud->migrations_started());
  EXPECT_GE(report.policy_triggered, 1);
  EXPECT_GE(report.policy_migrated, 1);
}

TEST(ThrottleEscalation, ViewShowsCapPinnedAtFloorBeforeTheMove) {
  // Freeze the policy (huge dwell) so the pinned-at-floor state is
  // observable instead of being resolved by a migration.
  Scenario s;
  s.policy = eager_policy();
  s.policy.dwell_min_s = 1.0e9;
  exp::Cluster c = build(s);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::enable_perfcloud(c, control_cfg(s));
  submit_stream_of_jobs(c);
  exp::run_for(c, 400.0);

  EXPECT_GE(c.policy->triggered(), 1);
  EXPECT_EQ(c.policy->migrated(), 0);
  EXPECT_GE(c.policy->suppressed_dwell(), 1);

  c.policy->view().refresh(c.engine->now());
  const VmUsage* u = c.policy->view().find_vm(0, fio);
  ASSERT_NE(u, nullptr);
  EXPECT_GE(u->cap[core::kIo], 0.0);
  EXPECT_TRUE(u->at_floor[core::kIo]);
  // The deviation signal is bursty (the antagonist duty-cycles), so the
  // instantaneous value at the arbitrary end time proves nothing; samples
  // must exist, and triggered() >= 1 above already proves the deviation
  // exceeded the threshold inside the policy's own windows.
  EXPECT_GE(c.policy->view().host(0).max_dev[core::kIo], 0.0);
}

TEST(ThrottleEscalation, MigratesCpuAntagonistOnCpiSignal) {
  // The processor half of the loop: a STREAM antagonist widens the Spark
  // workers' CPI spread, is identified by its LLC miss rate, pinned at the
  // vCPU-quota floor, and migrated on the CPI signal alone.
  Scenario s;
  s.policy = eager_policy();
  exp::Cluster c = build(s);
  const int stream = exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
  exp::enable_perfcloud(c, control_cfg(s));

  const std::string jsonl = "/tmp/perfcloud_policy_escalation_cpu.jsonl";
  exp::EventSink sink(exp::EventSink::Options{.events_jsonl_path = jsonl, .async = false});
  exp::attach_sink(c, sink);

  for (double at : {0.0, 150.0, 300.0, 450.0}) {
    c.engine->at(sim::SimTime(at), [&c](sim::SimTime) {
      c.framework->submit(wl::make_spark_logreg(16, 8));
    });
  }
  exp::run_for(c, 600.0);

  EXPECT_GE(c.policy->triggered(), 1);
  EXPECT_GE(c.policy->migrated(), 1);
  for (const cloud::VmRecord& r : c.cloud->all_vms()) {
    if (r.id == stream) {
      EXPECT_NE(r.host, "host-0");
    }
    for (const int id : c.worker_vm_ids) {
      if (r.id == id) {
        EXPECT_EQ(r.host, "host-0");
      }
    }
  }
  EXPECT_TRUE(c.node_manager(0).cap_series(core::kIo, stream).empty());

  sink.close();
  const std::string events = slurp(jsonl);
  EXPECT_NE(events.find("trigger cpu vm="), std::string::npos);
  EXPECT_EQ(events.find("trigger io"), std::string::npos);
}

TEST(Hysteresis, HostCooldownHoldsTheSecondAntagonist) {
  Scenario s;
  s.policy = eager_policy();
  s.policy.host_cooldown_s = 1.0e9;
  exp::Cluster c = build(s);
  exp::add_fio(c, "host-0",
               wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::add_dd_writer(c, "host-0",
                     wl::DdSequentialWriter::Params{.total_bytes = 1.0e12, .start_s = 30.0});
  exp::enable_perfcloud(c, control_cfg(s));
  submit_stream_of_jobs(c);
  exp::run_for(c, 600.0);

  // The first escalation lands; the second is then locked out by the source
  // host's cooldown stamp for the rest of the run.
  EXPECT_EQ(c.policy->migrated(), 1);
  EXPECT_GE(c.policy->suppressed_cooldown(), 1);
}

TEST(Hysteresis, InFlightBudgetHoldsTheSecondMigration) {
  Scenario s;
  s.policy = eager_policy();
  s.policy.max_in_flight = 1;
  // Timed migrations: 8 GB over 10 MB/s = 800 s of pre-copy, longer than
  // the whole run, so the first move holds the budget of one for every
  // remaining policy window and the second antagonist cannot go anywhere.
  s.migration = {.bandwidth_bps = 10.0e6, .downtime_s = 0.5};
  exp::Cluster c = build(s);
  // Two duty-cycled antagonists at DIFFERENT periods and phases: both stay
  // individually correlatable with the victim's deviation signal even while
  // the other is still resident, so both reach their cap floors and trigger
  // (a constant-rate writer would stay unidentified until the first fio
  // actually departed — which it never does here).
  exp::add_fio(c, "host-0",
               wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::add_fio(c, "host-0",
               wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 45.0,
                                         .duty_period_s = 17.0});
  exp::enable_perfcloud(c, control_cfg(s));
  submit_stream_of_jobs(c);
  exp::run_for(c, 600.0);

  EXPECT_EQ(c.policy->migrated(), 1);
  EXPECT_EQ(c.cloud->migrations_completed(), 0);  // still copying at the end
  EXPECT_GE(c.policy->suppressed_budget(), 1);
}

TEST(Hysteresis, NoFeasibleWhenAloneOrVictimEverywhere) {
  // Single host: the trigger fires but there is nowhere to go.
  Scenario one;
  one.hosts = 1;
  one.policy = eager_policy();
  exp::Cluster c1 = build(one);
  exp::add_fio(c1, "host-0",
               wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::enable_perfcloud(c1, control_cfg(one));
  submit_stream_of_jobs(c1);
  exp::run_for(c1, 400.0);
  EXPECT_GE(c1.policy->triggered(), 1);
  EXPECT_GE(c1.policy->no_feasible(), 1);
  EXPECT_EQ(c1.policy->migrated(), 0);

  // Two hosts, the victim app spread over both: the complementary
  // constraint refuses to co-place the antagonist with its victim's other
  // half, so again nothing moves.
  Scenario spread;
  spread.hosts = 2;
  spread.workers = 6;
  spread.placement = exp::Placement::kSpread;
  spread.policy = eager_policy();
  exp::Cluster c2 = build(spread);
  const int fio = exp::add_fio(
      c2, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  exp::enable_perfcloud(c2, control_cfg(spread));
  submit_stream_of_jobs(c2);
  exp::run_for(c2, 400.0);
  EXPECT_GE(c2.policy->triggered(), 1);
  EXPECT_GE(c2.policy->no_feasible(), 1);
  EXPECT_EQ(c2.policy->migrated(), 0);
  for (const cloud::VmRecord& r : c2.cloud->all_vms()) {
    if (r.id == fio) {
      EXPECT_EQ(r.host, "host-0");
    }
  }
}

TEST(Hysteresis, PingPongBlacklistConverges) {
  // Two protected apps, one per host: hadoop (the framework) packed on
  // host-0, a second I/O-bound app on host-1. Wherever the fio antagonist
  // sits, the local app suffers and the resident policy trigger pushes it
  // to the other host — a genuine oscillation. The bounce detector must
  // blacklist the (vm, pair) on the SECOND move and suppress the third, so
  // the system converges after at most one round trip.
  //
  // Checked on a panel of seeds. Whether the round trip happens at all
  // depends on the noise (host-1's OLTP app does not always trigger: ~half
  // of seeds 80–139), but a third move never happened on any of them. Jobs
  // keep arriving until 750 s so the victim still suffers after the round
  // trip, which is what makes the blacklist, not a quiet cluster, stop the
  // third move.
  int suppressed_seeds = 0;
  for (std::uint64_t seed = 91; seed <= 98; ++seed) {
    Scenario s;
    s.hosts = 2;
    s.workers = 4;
    s.seed = seed;
    s.policy = eager_policy();
    s.policy.blacklist_s = 1.0e9;
    exp::Cluster c = build(s);
    const int fio = exp::add_fio(
        c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
    virt::VmConfig other;
    other.priority = virt::Priority::kHigh;
    other.app_id = "oltp-app";
    other.vcpus = 4;
    for (int i = 0; i < 2; ++i) {
      virt::Vm& vm = c.cloud->boot_vm("host-1", other);
      vm.attach(std::make_unique<wl::SysbenchOltp>(
          wl::SysbenchOltp::Params{.duration_s = 10000.0}));
    }
    exp::enable_perfcloud(c, control_cfg(s));
    for (double at = 0.0; at <= 750.0; at += 150.0) {
      c.engine->at(sim::SimTime(at), [&c](sim::SimTime) {
        c.framework->submit(wl::make_terasort(16, 16));
      });
    }
    exp::run_for(c, 900.0);

    EXPECT_LE(c.policy->migrated(), 2) << "seed " << seed << ": a third move slipped through";
    if (c.policy->migrated() == 2) {
      std::string fio_host;
      for (const cloud::VmRecord& r : c.cloud->all_vms()) {
        if (r.id == fio) fio_host = r.host;
      }
      EXPECT_EQ(fio_host, "host-0") << "seed " << seed << ": the round trip returns it home";
    }
    if (c.policy->suppressed_blacklist() >= 1) ++suppressed_seeds;
  }
  // The blacklist is what held on the panel, not merely an absent trigger.
  EXPECT_GE(suppressed_seeds, 1);
}

}  // namespace
}  // namespace perfcloud::policy
