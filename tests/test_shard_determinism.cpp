// Golden-trace gate for the sharded execution mode: a multi-host scenario
// with antagonists, PerfCloud control, and jobs must produce EXACTLY the
// same results — job completion times, deviation-signal series, suspect
// series, cap series, and final simulated time — regardless of how many
// shards execute the per-quantum host sweeps. Sharding may only change
// wall-clock time, never a single output bit.
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
  // (time, value) samples from every inspected series, concatenated in a
  // fixed order. Exact double equality is intentional: the determinism
  // contract is byte-identical, not merely close.
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

/// When `sink_tag` is non-empty, an EventSink (async or sync per
/// `sink_async`) is attached for the whole run and its output files are
/// captured into the returned trace.
RunTrace run_scenario(unsigned shards, const std::string& sink_tag = "",
                      bool sink_async = true) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 12;
  p.seed = 2024;
  p.shards = shards;
  exp::Cluster c = exp::make_cluster(p);

  // Antagonists on three of the four hosts, overlapping the jobs.
  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 300.0, .start_s = 60.0});
  const int stream = exp::add_stream(
      c, "host-1",
      wl::StreamBenchmark::Params{.threads = 8, .duration_s = 300.0, .start_s = 90.0});
  exp::add_oltp(c, "host-2", wl::SysbenchOltp::Params{.duration_s = 200.0, .start_s = 120.0});

  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  std::unique_ptr<exp::EventSink> sink;
  std::string csv_path;
  std::string jsonl_path;
  exp::EventSink::SourceId summary_src = 0;
  if (!sink_tag.empty()) {
    csv_path = "/tmp/perfcloud_shard_sink_" + sink_tag + ".csv";
    jsonl_path = "/tmp/perfcloud_shard_sink_" + sink_tag + ".jsonl";
    sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
        .trace_csv_path = csv_path, .events_jsonl_path = jsonl_path, .async = sink_async});
    exp::attach_sink(c, *sink);
    summary_src = sink->add_event_source("run");
  }

  std::vector<wl::JobId> ids;
  const std::vector<std::pair<std::string, double>> submissions = {
      {"terasort", 0.0}, {"wordcount", 120.0}, {"kmeans", 240.0}};
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
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    trace.jcts.push_back(job != nullptr && job->completed() ? job->jct() : -1.0);
  }
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    core::NodeManager& nm = c.node_manager(h);
    append_series(trace, nm.io_signal(p.app_id));
    append_series(trace, nm.cpi_signal(p.app_id));
    append_series(trace, nm.monitor().io_throughput_series(fio));
    append_series(trace, nm.monitor().llc_miss_series(stream));
    append_series(trace, nm.io_cap_series(fio));
    append_series(trace, nm.cpu_cap_series(stream));
  }
  if (sink != nullptr) {
    exp::record(*sink, summary_src, exp::summarize(*c.framework));
    sink->close();
    trace.trace_csv = slurp(csv_path);
    trace.events_jsonl = slurp(jsonl_path);
  }
  return trace;
}

TEST(ShardDeterminism, TraceIsIdenticalForAnyShardCount) {
  const RunTrace sequential = run_scenario(1);

  // The scenario must actually exercise the machinery it gates on: jobs
  // completed and the monitors produced signal samples.
  for (const double jct : sequential.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_FALSE(sequential.samples.empty());

  const RunTrace sharded = run_scenario(4);
  EXPECT_EQ(sequential, sharded);

  // Run-to-run determinism of the parallel path itself.
  EXPECT_EQ(run_scenario(4), sharded);
}

/// Same gate for the emission subsystem: the EventSink's files must be
/// byte-identical between sync and async modes and for any shard count, and
/// attaching a sink must not perturb the simulation itself.
TEST(ShardDeterminism, SinkFilesAreIdenticalAcrossModesAndShardCounts) {
  const RunTrace plain = run_scenario(1);
  const RunTrace sync1 = run_scenario(1, "sync1", /*sink_async=*/false);
  const RunTrace async1 = run_scenario(1, "async1", /*sink_async=*/true);
  const RunTrace async4 = run_scenario(4, "async4", /*sink_async=*/true);

  // The sink actually produced output.
  EXPECT_FALSE(sync1.trace_csv.empty());
  EXPECT_NE(sync1.events_jsonl.find("\"summary\""), std::string::npos);

  // Observation must not change the observed: simulation results with the
  // sink attached match the sink-free run exactly.
  RunTrace sim_only = sync1;
  sim_only.trace_csv.clear();
  sim_only.events_jsonl.clear();
  EXPECT_EQ(sim_only, plain);

  // Byte-identity across emission modes and shard counts.
  EXPECT_EQ(async1.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async1.events_jsonl, sync1.events_jsonl);
  EXPECT_EQ(async4.trace_csv, sync1.trace_csv);
  EXPECT_EQ(async4.events_jsonl, sync1.events_jsonl);
}

}  // namespace
}  // namespace perfcloud
