// Golden-trace gate for the migration path: a packed-placement scenario
// where escalation actually fires and live migrations (pre-copy, page-stream
// inflow, stop-and-copy pause, handoff, node-manager state retirement) are
// in flight while jobs run must produce EXACTLY the same results for any
// shard count and for sync or async emission.
// Migrations mutate cross-host state (two hypervisors, the registry, every
// listener) — precisely the machinery with the most ways to go
// schedule-dependent, hence its own golden gate next to the general one in
// test_shard_determinism.cpp.
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/summary.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

/// Everything observable about one run, flattened for exact comparison.
struct RunTrace {
  double final_time_s = 0.0;
  std::vector<double> jcts;
  long migrations_started = 0;
  long migrations_completed = 0;
  // Final placement: (vm id, host) in registry order.
  std::vector<std::pair<int, std::string>> placement;
  // (time, value) samples from every inspected series, concatenated in a
  // fixed order. Exact double equality is intentional.
  std::vector<std::pair<double, double>> samples;
  // EventSink output files, byte for byte (empty when no sink was attached).
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

RunTrace run_scenario(unsigned shards, const std::string& sink_tag = "",
                      bool sink_async = true) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 6;
  p.seed = 77;
  p.shards = shards;
  p.placement = exp::Placement::kPacked;  // all six workers land on host-0
  p.migration = {.bandwidth_bps = 2.0e9, .downtime_s = 0.25};
  exp::Cluster c = exp::make_cluster(p);

  // A rival high-priority application squarely on the packed host: the
  // first control interval detects the collision and escalates, so live
  // migrations are in flight while the first job runs.
  virt::VmConfig rival;
  rival.priority = virt::Priority::kHigh;
  rival.app_id = "spark";
  rival.vcpus = 2;
  const int rival0 = c.cloud->boot_vm("host-0", rival).id();
  c.cloud->boot_vm("host-0", rival);
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 300.0, .start_s = 30.0});

  core::PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  exp::enable_perfcloud(c, cfg);

  std::unique_ptr<exp::EventSink> sink;
  std::string csv_path;
  std::string jsonl_path;
  exp::EventSink::SourceId summary_src = 0;
  if (!sink_tag.empty()) {
    csv_path = "/tmp/perfcloud_migr_sink_" + sink_tag + ".csv";
    jsonl_path = "/tmp/perfcloud_migr_sink_" + sink_tag + ".jsonl";
    sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
        .trace_csv_path = csv_path, .events_jsonl_path = jsonl_path, .async = sink_async});
    exp::attach_sink(c, *sink);
    summary_src = sink->add_event_source("run");
  }

  std::vector<wl::JobId> ids;
  const std::vector<std::pair<std::string, double>> submissions = {{"terasort", 0.0},
                                                                   {"wordcount", 60.0}};
  for (const auto& [name, at] : submissions) {
    const wl::JobSpec spec = wl::make_benchmark(name, 8);
    c.engine->at(sim::SimTime(at),
                 [&c, &ids, spec](sim::SimTime) { ids.push_back(c.framework->submit(spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < submissions.size() || !c.framework->all_done(); },
      sim::SimTime(4000.0));

  RunTrace trace;
  trace.final_time_s = c.engine->now().seconds();
  trace.migrations_started = c.cloud->migrations_started();
  trace.migrations_completed = c.cloud->migrations_completed();
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
    append_series(trace, nm.deviation_signal(core::kIo, "spark"));
    append_series(trace, nm.monitor().suspect_series(core::kIo, fio));
    append_series(trace, nm.monitor().suspect_series(core::kIo, rival0));
    append_series(trace, nm.cap_series(core::kIo, fio));
  }
  if (sink != nullptr) {
    exp::record(*sink, summary_src, exp::summarize(*c.framework));
    sink->close();
    trace.trace_csv = slurp(csv_path);
    trace.events_jsonl = slurp(jsonl_path);
  }
  return trace;
}

TEST(MigrationDeterminism, TraceIsIdenticalForAnyShardCount) {
  const RunTrace sequential = run_scenario(1);

  // The scenario must actually exercise what it gates on: packed placement
  // caused a collision, the escalation moved the rival app through real
  // (timed) migrations, and the jobs still completed.
  EXPECT_GE(sequential.migrations_started, 2);
  EXPECT_GE(sequential.migrations_completed, 2);
  for (const double jct : sequential.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_FALSE(sequential.samples.empty());

  const RunTrace sharded = run_scenario(4);
  EXPECT_EQ(sequential, sharded);

  // Run-to-run determinism of the parallel path itself.
  EXPECT_EQ(run_scenario(4), sharded);
}

TEST(MigrationDeterminism, SinkFilesAreIdenticalAcrossModesAndShardCounts) {
  const RunTrace plain = run_scenario(1);
  const RunTrace sync1 = run_scenario(1, "sync1", /*sink_async=*/false);
  const RunTrace async4 = run_scenario(4, "async4", /*sink_async=*/true);

  // The migration lifecycle actually reached the sink.
  EXPECT_NE(sync1.events_jsonl.find("migrate_start vm="), std::string::npos);
  EXPECT_NE(sync1.events_jsonl.find("migrate vm="), std::string::npos);
  EXPECT_NE(sync1.events_jsonl.find("escalation host="), std::string::npos);

  // Observation must not change the observed.
  RunTrace sim_only = sync1;
  sim_only.trace_csv.clear();
  sim_only.events_jsonl.clear();
  EXPECT_EQ(sim_only, plain);

  EXPECT_EQ(async4.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async4.events_jsonl, sync1.events_jsonl);
}

}  // namespace
}  // namespace perfcloud
