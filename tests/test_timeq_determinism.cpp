// Golden-trace gate for the time-core backends: the hierarchical timer
// wheel (PERFCLOUD_TIMEQ=wheel, the default) and the binary-heap reference
// (PERFCLOUD_TIMEQ=heap) must produce EXACTLY the same results — job
// completion times, deviation-signal series, cap series, final simulated
// time, and the EventSink's files byte for byte — across shard counts,
// emission modes, and a six-fault chaos plan. The wheel
// may only change wall-clock time, never a single output bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/summary.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

struct RunTrace {
  double final_time_s = 0.0;
  std::vector<double> jcts;
  // (time, value) samples from every inspected series, concatenated in a
  // fixed order. Exact double equality is intentional: the contract is
  // byte-identical, not merely close.
  std::vector<std::pair<double, double>> samples;
  int faults_injected = 0;
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

/// One full control run under an explicit time-queue backend. A sink is
/// always attached (its files are the strongest equality witness); `plan`
/// non-null arms the chaos plan on top.
RunTrace run_scenario(sim::TimeQueueKind timeq, unsigned shards, bool sink_async,
                      const std::string& sink_tag, const faults::FaultPlan* plan = nullptr) {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 12;
  p.seed = 3131;
  p.shards = shards;
  p.timeq = timeq;
  exp::Cluster c = exp::make_cluster(p);

  const int fio = exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 300.0, .start_s = 60.0});
  const int stream = exp::add_stream(
      c, "host-1",
      wl::StreamBenchmark::Params{.threads = 8, .duration_s = 300.0, .start_s = 90.0});
  exp::add_oltp(c, "host-2", wl::SysbenchOltp::Params{.duration_s = 200.0, .start_s = 120.0});

  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  const std::string csv_path = "/tmp/perfcloud_timeq_sink_" + sink_tag + ".csv";
  const std::string jsonl_path = "/tmp/perfcloud_timeq_sink_" + sink_tag + ".jsonl";
  auto sink = std::make_unique<exp::EventSink>(exp::EventSink::Options{
      .trace_csv_path = csv_path, .events_jsonl_path = jsonl_path, .async = sink_async});
  exp::attach_sink(c, *sink);
  const exp::EventSink::SourceId summary_src = sink->add_event_source("run");

  std::unique_ptr<faults::FaultInjector> injector;
  if (plan != nullptr) {
    faults::FaultPlan resolved = *plan;
    for (const cloud::VmRecord& r : c.cloud->vms_on_host("host-2")) {
      if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
          c.worker_vm_ids.end()) {
        resolved.vm_stall(r.id, 120.0, 40.0);
        break;
      }
    }
    injector = std::make_unique<faults::FaultInjector>(*c.cloud, resolved);
    exp::attach_faults(c, *injector, sink.get());
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
      sim::SimTime(6000.0));

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
    trace.cap_commands_dropped += nm.cap_commands_dropped();
  }
  if (injector != nullptr) trace.faults_injected = injector->injected();
  exp::record(*sink, summary_src, exp::summarize(*c.framework));
  sink->close();
  trace.trace_csv = slurp(csv_path);
  trace.events_jsonl = slurp(jsonl_path);
  return trace;
}

constexpr auto kWheel = sim::TimeQueueKind::kWheel;
constexpr auto kHeap = sim::TimeQueueKind::kHeap;

TEST(TimeQueueDeterminism, WheelMatchesHeapAcrossShardsSchedulersAndSinkModes) {
  const RunTrace heap = run_scenario(kHeap, 1, /*sink_async=*/false, "heap-s1-sync");

  // The scenario exercises what it gates on: jobs completed, monitors
  // produced samples, the sink wrote both files.
  for (const double jct : heap.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_FALSE(heap.samples.empty());
  EXPECT_FALSE(heap.trace_csv.empty());
  EXPECT_NE(heap.events_jsonl.find("\"summary\""), std::string::npos);

  // The wheel against the heap reference, across every execution mode the
  // engine offers. Full-trace equality includes the files byte for byte.
  EXPECT_EQ(run_scenario(kWheel, 1, false, "wheel-s1-sync"), heap);
  EXPECT_EQ(run_scenario(kWheel, 4, true, "wheel-s4-async"), heap);
  // And the heap under the sharded/async mode, closing the square.
  EXPECT_EQ(run_scenario(kHeap, 4, true, "heap-s4-async"), heap);
}

TEST(TimeQueueDeterminism, WheelMatchesHeapUnderChaosPlan) {
  const faults::FaultPlan plan = chaos_plan();
  const RunTrace heap = run_scenario(kHeap, 1, false, "chaos-heap-s1", &plan);

  // Faults really fired, jobs still completed under them, and the fault
  // records are in the stream the files witness. (cap_commands_dropped is
  // compared as part of the trace either way.)
  EXPECT_EQ(heap.faults_injected, 6);
  for (const double jct : heap.jcts) EXPECT_GT(jct, 0.0);
  EXPECT_NE(heap.events_jsonl.find("\"inject host_crash host=host-3\""), std::string::npos);

  EXPECT_EQ(run_scenario(kWheel, 1, false, "chaos-wheel-s1", &plan), heap);
  EXPECT_EQ(run_scenario(kWheel, 4, true, "chaos-wheel-s4-async", &plan), heap);
}

}  // namespace
}  // namespace perfcloud
