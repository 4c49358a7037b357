// The policy-armed zero-steady-state-allocation gate (DESIGN.md §5k).
//
// The migration policy folds cluster-wide state every interval forever, so
// it inherits the §5i steady-state contract: with the policy armed and NOT
// triggering (caps off their floors), a policy interval — ClusterView
// refresh over every host and VM, counter bump, and the full floor-streak
// scan — must perform zero heap allocations. Decisions (triggers, emits,
// migrations) are episodic and may allocate; the every-interval path may
// not. This binary links pc_alloc_hook, so the gauge below counts for real.
#include <gtest/gtest.h>

#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "sim/alloc_gauge.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::policy {
namespace {

TEST(PolicyAllocGate, ArmedNonTriggeringIntervalIsAllocationFree) {
  ASSERT_TRUE(sim::alloc_gauge_linked());

  // A busy but healthy cluster: packed workers under terasort plus a
  // monitored fio antagonist on another host. Monitoring only — no
  // controllers means no cap ever reaches its floor, so the policy scans
  // every interval and never escalates: exactly the steady state the gate
  // covers. The policy itself is armed the production way (pipeline hook
  // and migration listener registered).
  exp::ClusterParams p;
  p.hosts = 2;
  p.workers = 4;
  p.seed = 47;
  p.shards = 1;  // measured region runs single-threaded, counters exact
  p.placement = exp::Placement::kPacked;
  p.policy = PolicyParams{};
  exp::Cluster c = exp::make_cluster(p);
  exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 12.0});
  core::PerfCloudConfig cfg;
  // Bound the monitor rings so steady-state appends recycle slots (§5i).
  cfg.monitor_series_capacity = 32;
  exp::enable_perfcloud(c, cfg, /*control=*/false);
  exp::EventSink sink(exp::EventSink::Options{.async = false});
  exp::attach_sink(c, sink);
  c.framework->submit(wl::make_terasort(16, 16));

  // Warm: series past growth boundaries, per-VM policy states inserted,
  // counter keys interned in the sink.
  exp::run_for(c, 200.0);
  ASSERT_NE(c.policy, nullptr);
  ASSERT_EQ(c.policy->triggered(), 0);
  c.policy->view().refresh(c.engine->now());
  ASSERT_EQ(c.policy->view().host(0).vms.size(), 4u);

  // Drive further policy intervals by hand (the engine is idle, this thread
  // owns all state). Each interval gets a fresh timestamp so the refresh
  // guard cannot short-circuit the fold — a gate over cached refreshes
  // would be vacuous. Two warm-up steps consolidate scratch first.
  sim::SimTime now = c.engine->now();
  for (int i = 0; i < 2; ++i) {
    now += cfg.sample_interval_s;
    c.policy->step(now);
  }

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  constexpr int kIntervals = 8;
  for (int i = 0; i < kIntervals; ++i) {
    now += cfg.sample_interval_s;
    c.policy->step(now);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "policy-armed steady state allocated: " << (after.allocs - before.allocs)
      << " allocations, " << (after.bytes - before.bytes) << " bytes over " << kIntervals
      << " intervals";
  EXPECT_EQ(after.frees - before.frees, 0u);
  EXPECT_EQ(c.policy->triggered(), 0);  // the gate really covered the quiet path
}

}  // namespace
}  // namespace perfcloud::policy
