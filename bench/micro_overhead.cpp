// §IV-D overhead analysis — microbenchmarks of PerfCloud's per-interval
// work, the analogue of the paper's "applying resource caps on a VM takes
// less than 30 ms" and "overhead increases linearly with the number of
// antagonists" observations.
#include <benchmark/benchmark.h>

#include "core/cubic.hpp"
#include "core/identifier.hpp"
#include "core/monitor.hpp"
#include "exp/cluster.hpp"
#include "exp/parallel_runner.hpp"
#include "sim/correlation.hpp"
#include "workloads/benchmarks.hpp"

using namespace perfcloud;

namespace {

/// A warmed-up 12-VM host with an active job and node manager.
struct Rig {
  exp::Cluster cluster;
  Rig() : cluster(make()) {
    exp::add_fio(cluster, "host-0");
    exp::add_oltp(cluster, "host-0");
    exp::enable_perfcloud(cluster, core::PerfCloudConfig{});
    cluster.framework->submit(wl::make_terasort(20, 20));
    exp::run_for(cluster, 40.0);
  }
  static exp::Cluster make() {
    exp::ClusterParams p;
    p.workers = 10;
    p.seed = 77;
    return exp::make_cluster(p);
  }
};

Rig& rig() {
  static Rig r;
  return r;
}

void BM_MonitorSample(benchmark::State& state) {
  Rig& r = rig();
  core::PerformanceMonitor mon(r.cluster.cloud->host("host-0"), core::PerfCloudConfig{});
  double t = 1000.0;
  for (auto _ : state) {
    mon.sample(sim::SimTime(t));
    t += 5.0;
  }
}
BENCHMARK(BM_MonitorSample);

void BM_ControlStep(benchmark::State& state) {
  Rig& r = rig();
  core::NodeManager& nm = r.cluster.node_manager(0);
  double t = 2000.0;
  for (auto _ : state) {
    nm.control_step(sim::SimTime(t));
    t += 5.0;
  }
}
BENCHMARK(BM_ControlStep);

void BM_CubicStep(benchmark::State& state) {
  core::CubicController ctrl(core::PerfCloudConfig{}, 1.0e6);
  bool contended = true;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ctrl.step(contended));
    contended = !contended;
  }
}
BENCHMARK(BM_CubicStep);

void BM_ApplyCaps(benchmark::State& state) {
  // The paper: applying caps is < 30 ms per VM and linear in antagonists.
  Rig& r = rig();
  virt::Hypervisor& hv = r.cluster.cloud->host("host-0");
  const int n_antagonists = static_cast<int>(state.range(0));
  std::vector<int> vms;
  for (const auto& vm : hv.vms()) {
    if (static_cast<int>(vms.size()) < n_antagonists) vms.push_back(vm->id());
  }
  for (auto _ : state) {
    for (const int id : vms) {
      hv.set_blkio_throttle(id, 1.0e6);
      hv.set_vcpu_quota(id, 1.0);
    }
  }
  state.SetItemsProcessed(state.iterations() * n_antagonists);
}
BENCHMARK(BM_ApplyCaps)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

void BM_PearsonIdentification(benchmark::State& state) {
  // Correlating one victim signal against N suspects over a 24-sample window.
  const auto n_suspects = state.range(0);
  sim::Rng rng(5);
  sim::TimeSeries victim;
  std::vector<sim::TimeSeries> suspects(static_cast<std::size_t>(n_suspects));
  for (int i = 0; i < 24; ++i) {
    victim.add(sim::SimTime(i * 5.0), rng.uniform());
    for (auto& s : suspects) s.add(sim::SimTime(i * 5.0), rng.uniform());
  }
  core::AntagonistIdentifier ident{core::PerfCloudConfig{}};
  std::vector<core::SuspectSignal> sig;
  for (std::size_t i = 0; i < suspects.size(); ++i) {
    sig.push_back(core::SuspectSignal{static_cast<int>(i), &suspects[i]});
  }
  std::vector<core::SuspectScore> scores;
  for (auto _ : state) {
    scores.clear();
    ident.score(victim, sig, scores);
    benchmark::DoNotOptimize(scores.data());
  }
}
BENCHMARK(BM_PearsonIdentification)->Arg(1)->Arg(4)->Arg(16)->Arg(64);

void BM_ParallelExperimentRuns(benchmark::State& state) {
  // Independent scheme runs through the ParallelRunner: 4 self-contained
  // mini-clusters per iteration, at 1/2/4 worker threads. Wall time should
  // shrink with the thread count (up to the host's core count).
  const exp::ParallelRunner pool(static_cast<unsigned>(state.range(0)));
  for (auto _ : state) {
    std::vector<std::function<double()>> tasks;
    for (int i = 0; i < 4; ++i) {
      tasks.emplace_back([i] {
        exp::ClusterParams p;
        p.workers = 4;
        p.seed = 100 + static_cast<std::uint64_t>(i);
        exp::Cluster c = exp::make_cluster(p);
        return exp::run_job(c, wl::make_terasort(8, 8));
      });
    }
    benchmark::DoNotOptimize(pool.run(tasks));
  }
}
BENCHMARK(BM_ParallelExperimentRuns)->Arg(1)->Arg(2)->Arg(4)->Unit(benchmark::kMillisecond);

void BM_HostTick(benchmark::State& state) {
  // Cost of one arbitration tick for a full 12-VM host.
  Rig& r = rig();
  virt::Hypervisor& hv = r.cluster.cloud->host("host-0");
  double t = 5000.0;
  for (auto _ : state) {
    hv.tick(sim::SimTime(t), 0.1);
    t += 0.1;
  }
}
BENCHMARK(BM_HostTick);

}  // namespace

BENCHMARK_MAIN();
