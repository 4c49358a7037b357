// Golden-trace gates for the fault subsystem, extending the shard/emission
// determinism contract to chaos runs:
//   1. attaching an EMPTY FaultPlan (injector armed, sink routed) changes
//      nothing — the no-fault run and the empty-plan run are byte-identical;
//   2. a run under a six-fault plan (host crash, blackout, disk degrade,
//      cap-command loss, VM stall, task failures) is byte-identical for any
//      shard count and for sync vs async emission, files included.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

struct RunTrace {
  double final_time_s = 0.0;
  std::vector<double> jcts;
  std::vector<std::pair<double, double>> samples;
  int faults_injected = 0;
  int faults_recovered = 0;
  int faults_failed = 0;
  int crash_lost_attempts = 0;
  long cap_commands_dropped = 0;
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

faults::FaultPlan chaos_plan() {
  faults::FaultPlan plan(0xc4a05);
  plan.disk_degrade("host-2", 80.0, 150.0, 0.5)
      .monitor_blackout("host-0", 100.0, 40.0)
      .cap_command_loss("host-0", 100.0, 300.0, 0.5)
      .host_crash("host-3", 123.0, 250.0)
      .task_failure(5.0e-4, 200.0, 300.0);
  return plan;
}

/// `plan` null = no injector at all; an empty plan = injector armed on
/// nothing. `sink_tag` non-empty = EventSink attached (fault records
/// included) and its files captured.
RunTrace run_scenario(unsigned shards, const faults::FaultPlan* plan,
                      const std::string& sink_tag = "", bool sink_async = true) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 12;
  p.seed = 7311;
  p.shards = shards;
  exp::Cluster c = exp::make_cluster(p);

  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 400.0, .start_s = 60.0});
  const int stream = exp::add_stream(
      c, "host-1",
      wl::StreamBenchmark::Params{.threads = 8, .duration_s = 400.0, .start_s = 90.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  std::unique_ptr<exp::EventSink> sink;
  std::string csv_path;
  std::string jsonl_path;
  if (!sink_tag.empty()) {
    csv_path = "/tmp/perfcloud_faults_sink_" + sink_tag + ".csv";
    jsonl_path = "/tmp/perfcloud_faults_sink_" + sink_tag + ".jsonl";
    sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
        .trace_csv_path = csv_path, .events_jsonl_path = jsonl_path, .async = sink_async});
    exp::attach_sink(c, *sink);
  }

  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    faults::FaultPlan resolved = *plan;
    if (!resolved.empty()) {
      for (const cloud::VmRecord& r : c.cloud->vms_on_host("host-2")) {
        if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
            c.worker_vm_ids.end()) {
          resolved.vm_stall(r.id, 120.0, 40.0);
          break;
        }
      }
    }
    injector = std::make_unique<faults::FaultInjector>(*c.cloud, resolved);
    exp::attach_faults(c, *injector, sink.get());
  }

  std::vector<wl::JobId> ids;
  const std::vector<std::pair<std::string, double>> submissions = {
      {"terasort", 0.0}, {"wordcount", 120.0}, {"kmeans", 240.0}};
  for (const auto& [name, at] : submissions) {
    const wl::JobSpec spec = wl::make_benchmark(name, 24);
    c.engine->at(sim::SimTime(at),
                 [&c, &ids, spec](sim::SimTime) { ids.push_back(c.framework->submit(spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < submissions.size() || !c.framework->all_done(); },
      sim::SimTime(6000.0));

  RunTrace trace;
  trace.final_time_s = c.engine->now().seconds();
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    trace.jcts.push_back(job != nullptr && job->completed() ? job->jct() : -1.0);
  }
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    core::NodeManager& nm = c.node_manager(h);
    append_series(trace, nm.deviation_signal(core::kIo, p.app_id));
    append_series(trace, nm.deviation_signal(core::kCpu, p.app_id));
    append_series(trace, nm.monitor().suspect_series(core::kIo, fio));
    append_series(trace, nm.monitor().suspect_series(core::kCpu, stream));
    append_series(trace, nm.cap_series(core::kIo, fio));
    append_series(trace, nm.cap_series(core::kCpu, stream));
    trace.cap_commands_dropped += nm.cap_commands_dropped();
  }
  trace.crash_lost_attempts = c.framework->crash_lost_attempts();
  if (injector != nullptr) {
    trace.faults_injected = injector->injected();
    trace.faults_recovered = injector->recovered();
    trace.faults_failed = injector->failed();
  }
  if (sink != nullptr) {
    sink->close();
    trace.trace_csv = slurp(csv_path);
    trace.events_jsonl = slurp(jsonl_path);
  }
  return trace;
}

TEST(FaultDeterminism, EmptyPlanAttachedChangesNothing) {
  const faults::FaultPlan empty;
  const RunTrace without = run_scenario(1, nullptr, "noinj", /*sink_async=*/false);
  const RunTrace with = run_scenario(1, &empty, "emptyplan", /*sink_async=*/false);
  EXPECT_FALSE(without.samples.empty());
  EXPECT_EQ(without, with);
}

TEST(FaultDeterminism, ChaosTraceIsIdenticalAcrossShardCounts) {
  const faults::FaultPlan plan = chaos_plan();
  const RunTrace sequential = run_scenario(1, &plan);

  // The scenario exercises what it gates on: jobs complete under the plan,
  // faults fire, the crash costs attempts, the lossy channel eats commands.
  for (const double jct : sequential.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_EQ(sequential.faults_injected, 6);
  EXPECT_EQ(sequential.faults_failed, 0);
  EXPECT_GT(sequential.crash_lost_attempts, 0);
  EXPECT_GT(sequential.cap_commands_dropped, 0L);

  const RunTrace sharded = run_scenario(4, &plan);
  EXPECT_EQ(sequential, sharded);
  // Run-to-run determinism of the parallel chaos path itself.
  EXPECT_EQ(run_scenario(4, &plan), sharded);
}

TEST(FaultDeterminism, ChaosSinkFilesAreIdenticalAcrossModesAndShardCounts) {
  const faults::FaultPlan plan = chaos_plan();
  const RunTrace sync1 = run_scenario(1, &plan, "sync1", /*sink_async=*/false);
  const RunTrace async1 = run_scenario(1, &plan, "async1", /*sink_async=*/true);
  const RunTrace async4 = run_scenario(4, &plan, "async4", /*sink_async=*/true);

  // Fault records are really in the stream.
  EXPECT_NE(sync1.events_jsonl.find("\"inject host_crash host=host-3\""), std::string::npos);
  EXPECT_NE(sync1.events_jsonl.find("\"recover monitor_blackout host=host-0\""),
            std::string::npos);
  EXPECT_NE(sync1.events_jsonl.find("faults_injected"), std::string::npos);

  EXPECT_EQ(async1.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async1.events_jsonl, sync1.events_jsonl);
  EXPECT_EQ(async4.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async4.events_jsonl, sync1.events_jsonl);
}

}  // namespace
}  // namespace perfcloud
