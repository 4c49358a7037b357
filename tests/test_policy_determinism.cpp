// Golden-trace gate for the migration-policy subsystem: a packed-placement
// scenario where the throttle-escalation trigger actually fires, timed
// policy migrations are in flight while jobs run, AND a chaos plan crashes
// the preferred destination mid-copy (aborting a policy migration) must
// produce EXACTLY the same results for any shard count and for sync or
// async emission — sink files byte for byte. The
// policy folds cross-host state (every monitor, every controller, the
// registry) each interval, which is the most schedule-dependent surface the
// repo has; hence its own golden gate next to the migration and faults ones.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::policy {
namespace {

/// Everything observable about one run, flattened for exact comparison.
struct RunTrace {
  double final_time_s = 0.0;
  std::vector<double> jcts;
  long migrations_started = 0;
  long migrations_completed = 0;
  long migrations_aborted = 0;
  long policy_triggered = 0;
  long policy_migrated = 0;
  long policy_suppressed = 0;  // dwell + cooldown + budget + blacklist
  long policy_no_feasible = 0;
  long policy_aborted = 0;
  std::vector<std::pair<int, std::string>> placement;
  std::vector<std::pair<double, double>> samples;
  std::string trace_csv;
  std::string events_jsonl;

  bool operator==(const RunTrace&) const = default;
};

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void append_series(RunTrace& trace, const sim::TimeSeries& s) {
  for (std::size_t i = 0; i < s.size(); ++i) {
    trace.samples.emplace_back(s.time(i).seconds(), s.value(i));
  }
}

RunTrace run_scenario(unsigned shards, bool with_faults, const std::string& sink_tag = "",
                      bool sink_async = true) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 6;
  p.seed = 911;
  p.shards = shards;
  p.placement = exp::Placement::kPacked;  // all workers on host-0
  // Timed migrations, slow enough that a crash can land mid-copy.
  p.migration = {.bandwidth_bps = 100.0e6, .downtime_s = 0.5};
  PolicyParams pol;
  pol.floor_windows = 2;
  pol.dwell_min_s = 0.0;
  pol.host_cooldown_s = 30.0;
  pol.max_in_flight = 2;
  p.policy = pol;
  exp::Cluster c = exp::make_cluster(p);

  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0});
  core::PerfCloudConfig cfg;
  cfg.min_cap_fraction = 0.9;  // toothless throttle: escalation must fire
  exp::enable_perfcloud(c, cfg);

  std::unique_ptr<exp::EventSink> sink;
  std::string csv_path;
  std::string jsonl_path;
  if (!sink_tag.empty()) {
    csv_path = "/tmp/perfcloud_policy_sink_" + sink_tag + ".csv";
    jsonl_path = "/tmp/perfcloud_policy_sink_" + sink_tag + ".jsonl";
    sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
        .trace_csv_path = csv_path, .events_jsonl_path = jsonl_path, .async = sink_async});
    exp::attach_sink(c, *sink);
  }

  std::unique_ptr<faults::FaultInjector> injector;
  if (with_faults) {
    // host-1 is the empty lowest-index destination the scorer prefers;
    // crashing it across the escalation window aborts an in-flight policy
    // migration, forces a re-decision, and exercises the down-host filter.
    faults::FaultPlan plan(0xbeef);
    plan.host_crash("host-1", 100.0, 250.0).monitor_blackout("host-0", 180.0, 20.0);
    injector = std::make_unique<faults::FaultInjector>(*c.cloud, plan);
    exp::attach_faults(c, *injector, sink.get());
  }

  std::vector<wl::JobId> ids;
  const std::vector<std::pair<std::string, double>> submissions = {
      {"terasort", 0.0}, {"wordcount", 150.0}, {"kmeans", 300.0}};
  for (const auto& [name, at] : submissions) {
    const wl::JobSpec spec = wl::make_benchmark(name, 16);
    c.engine->at(sim::SimTime(at),
                 [&c, &ids, spec](sim::SimTime) { ids.push_back(c.framework->submit(spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < submissions.size() || !c.framework->all_done(); },
      sim::SimTime(5000.0));

  RunTrace trace;
  trace.final_time_s = c.engine->now().seconds();
  trace.migrations_started = c.cloud->migrations_started();
  trace.migrations_completed = c.cloud->migrations_completed();
  trace.migrations_aborted = c.cloud->migrations_aborted();
  trace.policy_triggered = c.policy->triggered();
  trace.policy_migrated = c.policy->migrated();
  trace.policy_suppressed = c.policy->suppressed_dwell() + c.policy->suppressed_cooldown() +
                            c.policy->suppressed_budget() + c.policy->suppressed_blacklist();
  trace.policy_no_feasible = c.policy->no_feasible();
  trace.policy_aborted = c.policy->aborted();
  for (const cloud::VmRecord& r : c.cloud->all_vms()) {
    trace.placement.emplace_back(r.id, r.host);
  }
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    trace.jcts.push_back(job != nullptr && job->completed() ? job->jct() : -1.0);
  }
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    core::NodeManager& nm = c.node_manager(h);
    append_series(trace, nm.deviation_signal(core::kIo, p.app_id));
    append_series(trace, nm.deviation_signal(core::kCpu, p.app_id));
    append_series(trace, nm.monitor().suspect_series(core::kIo, fio));
    append_series(trace, nm.cap_series(core::kIo, fio));
  }
  if (sink != nullptr) {
    sink->close();
    trace.trace_csv = slurp(csv_path);
    trace.events_jsonl = slurp(jsonl_path);
  }
  return trace;
}

TEST(PolicyDeterminism, TraceIsIdenticalForAnyShardCount) {
  const RunTrace sequential = run_scenario(1, /*with_faults=*/false);

  // The scenario must exercise what it gates on: the throttle-escalation
  // path really triggered and moved the antagonist while jobs ran.
  EXPECT_GE(sequential.policy_triggered, 1);
  EXPECT_GE(sequential.policy_migrated, 1);
  EXPECT_GE(sequential.migrations_completed, 1);
  for (const double jct : sequential.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_FALSE(sequential.samples.empty());

  const RunTrace sharded = run_scenario(4, false);
  EXPECT_EQ(sequential, sharded);
  EXPECT_EQ(run_scenario(4, false), sharded);  // run-to-run of the parallel path
}

TEST(PolicyDeterminism, ChaosAbortRunIsIdenticalAcrossShardCounts) {
  const RunTrace sequential = run_scenario(1, /*with_faults=*/true);

  // The crash window really intersected the escalation: a policy-initiated
  // migration was aborted, and the policy still got the antagonist moved
  // (or honestly recorded that it could not).
  EXPECT_GE(sequential.policy_triggered, 1);
  EXPECT_GE(sequential.migrations_aborted, 1);
  EXPECT_GE(sequential.policy_aborted, 1);

  const RunTrace sharded = run_scenario(4, true);
  EXPECT_EQ(sequential, sharded);
}

TEST(PolicyDeterminism, SinkFilesAreIdenticalAcrossModesAndShardCounts) {
  const RunTrace plain = run_scenario(1, true);
  const RunTrace sync1 = run_scenario(1, true, "sync1", /*sink_async=*/false);
  const RunTrace async4 = run_scenario(4, true, "async4", /*sink_async=*/true);

  // The policy's decision trail reached the sink.
  EXPECT_NE(sync1.events_jsonl.find("trigger io vm="), std::string::npos);
  EXPECT_NE(sync1.events_jsonl.find("migrate io vm="), std::string::npos);

  // Observation must not change the observed.
  RunTrace sim_only = sync1;
  sim_only.trace_csv.clear();
  sim_only.events_jsonl.clear();
  EXPECT_EQ(sim_only, plain);

  EXPECT_EQ(async4.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async4.events_jsonl, sync1.events_jsonl);
}

}  // namespace
}  // namespace perfcloud::policy
