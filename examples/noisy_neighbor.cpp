// Noisy-neighbour walkthrough: watch PerfCloud's detection, identification,
// and control pipeline operate step by step.
//
// A 10-worker virtual Hadoop cluster runs a Spark logistic regression while
// two antagonists move in at t=20s: a fio random-read VM and a 16-thread
// STREAM VM. A sysbench-cpu VM is also present as an innocent bystander.
// The example prints, per 5-second control interval, the two deviation
// signals, each suspect's correlation, and the caps PerfCloud applies —
// then shows the bystander untouched and the antagonists' caps recovering
// after the job completes.
//
//   $ ./noisy_neighbor
#include <iomanip>
#include <iostream>

#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "workloads/benchmarks.hpp"

using namespace perfcloud;

int main() {
  exp::ClusterParams params;
  params.workers = 10;
  params.seed = 2026;
  exp::Cluster cluster = exp::make_cluster(params);

  const int fio = exp::add_fio(cluster, "host-0", wl::FioRandomRead::Params{.start_s = 20.0});
  const int stream = exp::add_stream(
      cluster, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 20.0});
  const int bystander = exp::add_sysbench_cpu(cluster, "host-0");

  exp::enable_perfcloud(cluster, core::PerfCloudConfig{});
  core::NodeManager& nm = cluster.node_manager(0);
  // The antagonist each resource's loop should identify and cap.
  const core::PerResource<int> watched{fio, stream};

  const wl::JobId job = cluster.framework->submit(wl::make_spark_logreg(30, 8));

  std::cout << "t(s)   io-dev  cpi-dev  corr(fio)  corr(stream)  cap(fio)  cap(stream)\n";
  std::cout << std::string(74, '-') << "\n";
  while (true) {
    exp::run_for(cluster, 5.0);
    const wl::Job* j = cluster.framework->find_job(job);
    // Per resource: the latest deviation, the watched antagonist's latest
    // correlation, and its latest cap ("-" until a controller starts).
    core::PerResource<double> dev{};
    core::PerResource<double> corr{};
    core::PerResource<std::string> cap{};
    for (const core::Resource r : core::kResources) {
      const sim::TimeSeries& sig = nm.deviation_signal(r, "hadoop");
      if (!sig.empty()) dev[r] = sig.value(sig.size() - 1);
      for (const core::SuspectScore& s : nm.last_scores(r)) {
        if (s.vm_id == watched[r]) corr[r] = s.correlation;
      }
      const sim::TimeSeries& caps = nm.cap_series(r, watched[r]);
      cap[r] = caps.empty() ? std::string("-") : exp::fmt(caps.value(caps.size() - 1), 2);
    }
    std::cout << std::setw(4) << exp::fmt(cluster.engine->now().seconds(), 0) << "  "
              << std::setw(7) << exp::fmt(dev[core::kIo], 1) << "  " << std::setw(7)
              << exp::fmt(dev[core::kCpu], 2) << "  " << std::setw(9)
              << exp::fmt(corr[core::kIo], 2) << "  " << std::setw(12)
              << exp::fmt(corr[core::kCpu], 2) << "  " << std::setw(8) << cap[core::kIo] << "  "
              << std::setw(8) << cap[core::kCpu] << "\n";
    if (j->finished()) break;
  }

  const wl::Job* j = cluster.framework->find_job(job);
  std::cout << "\nSpark logreg finished in " << exp::fmt(j->jct(), 0) << " s.\n";

  // The bystander was never touched.
  const virt::Cgroup& cg = cluster.vm(bystander).cgroup();
  std::cout << "bystander sysbench-cpu: cpu quota "
            << (cg.cpu_quota_cores() == hw::kNoCap ? "uncapped" : "CAPPED") << ", blkio throttle "
            << (cg.blkio_throttle_bps() == hw::kNoCap ? "uncapped" : "CAPPED") << "\n";

  // Let the cubic probe and lift the caps now that contention is gone.
  exp::run_for(cluster, 120.0);
  std::cout << "120 s later: fio throttle "
            << (cluster.vm(fio).cgroup().blkio_throttle_bps() == hw::kNoCap ? "lifted"
                                                                            : "still active")
            << ", STREAM quota "
            << (cluster.vm(stream).cgroup().cpu_quota_cores() == hw::kNoCap ? "lifted"
                                                                            : "still active")
            << "\n";
  return 0;
}
