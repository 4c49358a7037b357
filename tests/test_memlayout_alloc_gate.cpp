// The zero-steady-state-allocation gate (DESIGN.md §5i).
//
// This binary links the counting operator new/delete (pc_alloc_hook), so a
// code region can be bracketed with alloc_gauge_read() and asserted to have
// performed zero heap allocations. The headline gate: one steady-state
// control quantum of a warmed node manager — monitor sample, detection,
// deviation-signal appends, incremental identification against a live
// suspect, identification bookkeeping — allocates nothing. The same holds for
// one warmed host tick — demand collection, CPU/memory/disk arbitration and
// accounting — whose rows the host keeps and whose model scratch is reused
// per-thread vectors (also once re-warmed after residency changes), for the
// engine's periodic re-arm and for its windowed sweep dispatch. check.sh
// runs these tests as a release-build gate.
#include <gtest/gtest.h>

#include <functional>
#include <iterator>
#include <string_view>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "sim/alloc_gauge.hpp"
#include "sim/engine.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::core {
namespace {

TEST(AllocGate, HookIsLinkedAndCounts) {
  // A gate that reads zeros because the hook was never linked would pass
  // vacuously; prove the counters move before trusting any zero below.
  ASSERT_TRUE(sim::alloc_gauge_linked());
  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  // A direct operator-new call: new-EXPRESSIONS may legally be elided by the
  // optimizer, replaceable-function calls may not.
  void* p = ::operator new(64);
  ::operator delete(p);
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_GE(after.allocs - before.allocs, 1u);
  EXPECT_GE(after.frees - before.frees, 1u);
  EXPECT_GE(after.bytes - before.bytes, 64u);
}

TEST(AllocGate, CounterBumpSteadyStateIsAllocationFree) {
  // bump_counter takes string_view and the counter map uses a transparent
  // comparator: bumping an existing counter — the every-quantum case — must
  // not build a temporary std::string. The key is far beyond SSO so a
  // hidden temporary would show up as a heap allocation.
  exp::EventSink sink(exp::EventSink::Options{.async = false});
  const auto src = sink.add_event_source("host-x");
  constexpr std::string_view kKey = "a_counter_key_well_beyond_any_sso_buffer";
  sink.bump_counter(src, kKey);  // first bump inserts (allocates; episodic)

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  for (int i = 0; i < 100; ++i) sink.bump_counter(src, kKey);
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_EQ(after.allocs - before.allocs, 0u);
}

TEST(AllocGate, SteadyStateQuantumPerformsZeroHeapAllocations) {
  ASSERT_TRUE(sim::alloc_gauge_linked());

  // A realistic host: six Hadoop workers under terasort plus a long-lived
  // fio antagonist, monitored (not actuated — controller episodes are
  // allowed to allocate; the steady-state contract covers the monitoring/
  // identification pipeline that runs every single interval forever).
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = 41;
  p.shards = 1;  // measured region runs single-threaded, counters exact
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 12.0});
  PerfCloudConfig cfg;
  // Bound the suspect-side monitor rings (>= correlation window) so a
  // steady-state append recycles ring slots instead of growing a vector.
  cfg.monitor_series_capacity = 32;
  exp::enable_perfcloud(c, cfg, /*control=*/false);
  c.framework->submit(wl::make_terasort(24, 24));

  // Warm the cluster: series past their growth boundaries, EWMAs primed,
  // pair states built, identification episodes (map inserts) done.
  exp::run_for(c, 200.0);
  NodeManager& nm = c.node_manager(0);
  ASSERT_GT(nm.io_signal("hadoop").size(), 20u);
  ASSERT_FALSE(nm.monitor().io_throughput_series(fio).empty());

  // Drive further control intervals by hand (the engine is idle, so this
  // thread owns all node-manager state). Two warm-up steps grow this
  // thread's scratch vectors to size before the bracket closes around the
  // measured quanta.
  sim::SimTime now = c.engine->now();
  for (int i = 0; i < 2; ++i) {
    now += 5.0;
    nm.local_step(now);
  }

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  constexpr int kQuanta = 8;
  for (int i = 0; i < kQuanta; ++i) {
    now += 5.0;
    nm.local_step(now);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "steady-state quantum allocated: " << (after.allocs - before.allocs) << " allocations, "
      << (after.bytes - before.bytes) << " bytes over " << kQuanta << " quanta";
  EXPECT_EQ(after.frees - before.frees, 0u);
}

/// A busy host: six Hadoop workers inside terasort tasks far too long to
/// finish in the window (task churn is episodic and may allocate), fio
/// under a blkio throttle, STREAM, and an incoming migration page stream
/// (VM 9999). Two sockets take the per-socket path of Server::arbitrate.
exp::Cluster make_busy_host(int sockets) {
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = 43;
  p.shards = 1;
  p.server.sockets = sockets;
  exp::Cluster c = exp::make_cluster(p);
  const int fio = exp::add_fio(c, "host-0");
  exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 4});
  wl::JobSpec job = wl::make_terasort(12, 6);
  for (wl::StageSpec& stage : job.stages) {
    for (wl::PhaseSpec& phase : stage.task.phases) {
      phase.instructions *= 1000.0;
      phase.io_ops *= 1000.0;
      phase.io_bytes *= 1000.0;
    }
  }
  c.framework->submit(job);
  exp::run_for(c, 20.0);  // tasks placed and running

  virt::Hypervisor& hv = c.cloud->host("host-0");
  hv.set_blkio_throttle(fio, 20.0e6);
  hv.begin_migration_in(9999, 50.0e6);
  return c;
}

/// Ticks `hv` by hand `ticks` times from `now` (the engine is idle, so this
/// thread owns the host) and returns the heap allocations they made.
sim::AllocGaugeSnapshot tick_allocs(virt::Hypervisor& hv, sim::SimTime& now, int ticks) {
  constexpr double kDt = 0.1;
  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  for (int i = 0; i < ticks; ++i) {
    now += kDt;
    hv.tick(now, kDt);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  return {.allocs = after.allocs - before.allocs,
          .frees = after.frees - before.frees,
          .bytes = after.bytes - before.bytes};
}

TEST(AllocGate, WarmedHostTickPerformsZeroHeapAllocations) {
  ASSERT_TRUE(sim::alloc_gauge_linked());
  for (const int sockets : {1, 2}) {
    SCOPED_TRACE(sockets);
    exp::Cluster c = make_busy_host(sockets);
    virt::Hypervisor& hv = c.cloud->host("host-0");
    ASSERT_FALSE(hv.is_quiescent(c.engine->now()));

    sim::SimTime now = c.engine->now();
    (void)tick_allocs(hv, now, 20);
    const double cpu_before = hv.dom_stats(c.worker_vm_ids.front()).cpu_time_s;

    constexpr int kTicks = 50;
    const sim::AllocGaugeSnapshot d = tick_allocs(hv, now, kTicks);

    // The window really arbitrated work.
    EXPECT_GT(hv.dom_stats(c.worker_vm_ids.front()).cpu_time_s, cpu_before);
    EXPECT_EQ(d.allocs, 0u) << "warmed host tick allocated: " << d.allocs << " allocations, "
                            << d.bytes << " bytes over " << kTicks << " ticks";
    EXPECT_EQ(d.frees, 0u);
  }
}

TEST(AllocGate, HostTickRewarmsInOneTickAfterResidencyChanges) {
  // The host keeps its tick rows across ticks and resizes them when its
  // residents or inflows change. After each such change one tick may
  // allocate (re-warming); the 50 after it must not.
  ASSERT_TRUE(sim::alloc_gauge_linked());
  for (const int sockets : {1, 2}) {
    SCOPED_TRACE(sockets);
    exp::Cluster c = make_busy_host(sockets);
    virt::Hypervisor& hv = c.cloud->host("host-0");
    sim::SimTime now = c.engine->now();
    (void)tick_allocs(hv, now, 20);

    const int worker = c.worker_vm_ids.front();
    const std::function<void()> changes[] = {
        [&] { hv.adopt(hv.evict(worker)); },
        [&] { hv.begin_migration_in(9998, 80.0e6); },
        [&] { hv.end_migration_in(9999); },
        [&] { hv.end_migration_in(9998); },
    };
    for (std::size_t k = 0; k < std::size(changes); ++k) {
      SCOPED_TRACE(k);
      changes[k]();
      (void)tick_allocs(hv, now, 1);
      const double cpu_before = hv.dom_stats(worker).cpu_time_s;
      constexpr int kTicks = 50;
      const sim::AllocGaugeSnapshot d = tick_allocs(hv, now, kTicks);
      EXPECT_GT(hv.dom_stats(worker).cpu_time_s, cpu_before);
      EXPECT_EQ(d.allocs, 0u) << "re-warmed host tick allocated: " << d.allocs
                              << " allocations, " << d.bytes << " bytes over " << kTicks
                              << " ticks";
      EXPECT_EQ(d.frees, 0u);
    }
    EXPECT_EQ(hv.migration_inflow_count(), 0u);
  }
}

TEST(AllocGate, WarmedPeriodicRearmIsAllocationFree) {
  ASSERT_TRUE(sim::alloc_gauge_linked());
  sim::Engine eng(5);
  long fires = 0;
  for (int i = 0; i < 32; ++i) {
    eng.every(0.25 + 0.01 * i, [&fires](sim::SimTime) { ++fires; });
  }
  // Warm: the due-heap vector at capacity, every periodic re-armed many
  // times. Each firing pops its heap node and pushes the advanced one back,
  // which must reuse that capacity.
  eng.run_until(sim::SimTime(60.0));
  const long warm_fires = fires;

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  eng.run_until(sim::SimTime(240.0));
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "periodic re-arm allocated " << (after.bytes - before.bytes)
      << " bytes in steady state";
  EXPECT_GT(fires, warm_fires);
}

TEST(AllocGate, WarmedSweepWindowsAreAllocationFree) {
  ASSERT_TRUE(sim::alloc_gauge_linked());
  for (const unsigned shards : {1u, 4u}) {
    sim::Engine eng(5);
    eng.set_shards(shards);
    std::vector<double> slots(8, 0.0);
    sim::ShardedPeriodic& sweep = eng.every_sharded(0.25, sim::SimTime(0.25));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      sweep.add_task([&slots, i](sim::SimTime t) { slots[i] += t.seconds(); });
    }
    // The 1 s periodic ends windows at four ticks; the 1.3 s one cuts some
    // of them shorter, so window lengths vary.
    long polls = 0;
    eng.every(1.0, [&polls](sim::SimTime) { ++polls; });
    eng.every(1.3, [&polls](sim::SimTime) { ++polls; });
    long windows = 0;
    eng.add_post_barrier_hook([&windows](sim::SimTime) { ++windows; });
    // Warm: the shard pool started, the due heap and the window at capacity.
    eng.run_until(sim::SimTime(60.0));
    const long warm_windows = windows;

    const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
    eng.run_until(sim::SimTime(240.0));
    const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();
    EXPECT_EQ(after.allocs - before.allocs, 0u)
        << "windowed sweep allocated " << (after.bytes - before.bytes) << " bytes at " << shards
        << " shards";
    EXPECT_GT(windows, warm_windows);
  }
}

TEST(AllocGate, UnresolvableCollisionQuantumIsAllocationFree) {
  // Two high-priority applications stuck on a single-host cloud: the
  // escalation has nowhere to move anything. Without the no-op version gate
  // the node manager would re-run the whole §IV-D scan — which builds its
  // grouping map on the heap — every quantum forever; with it, the scan runs
  // once, records the registry version, and the warmed steady state is
  // allocation-free even with escalation enabled.
  ASSERT_TRUE(sim::alloc_gauge_linked());

  exp::ClusterParams p;
  p.hosts = 1;
  p.workers = 2;
  p.seed = 43;
  p.shards = 1;
  exp::Cluster c = exp::make_cluster(p);
  virt::VmConfig other;
  other.priority = virt::Priority::kHigh;
  other.app_id = "other-app";
  c.cloud->boot_vm("host-0", other);
  // Keep the host busy so every measured quantum samples live counters.
  exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0});

  PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  cfg.monitor_series_capacity = 32;
  exp::enable_perfcloud(c, cfg, /*control=*/false);
  exp::run_for(c, 100.0);

  NodeManager& nm = c.node_manager(0);
  sim::SimTime now = c.engine->now();
  for (int i = 0; i < 2; ++i) {
    now += 5.0;
    nm.control_step(now);
  }

  const sim::AllocGaugeSnapshot before = sim::alloc_gauge_read();
  constexpr int kQuanta = 8;
  for (int i = 0; i < kQuanta; ++i) {
    now += 5.0;
    nm.control_step(now);
  }
  const sim::AllocGaugeSnapshot after = sim::alloc_gauge_read();

  EXPECT_EQ(after.allocs - before.allocs, 0u)
      << "escalation-armed steady state allocated: " << (after.allocs - before.allocs)
      << " allocations over " << kQuanta << " quanta";
}

}  // namespace
}  // namespace perfcloud::core
