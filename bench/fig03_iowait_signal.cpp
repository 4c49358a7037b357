// Figure 3 — The std-dev of the block-iowait ratio across the Hadoop VMs as
// an early indicator of I/O contention.
//
//  (a) time series for a MapReduce terasort job (10 map + 10 reduce tasks),
//      running alone vs colocated with fio random read;
//  (b) peak deviation for all benchmarks, alone vs with fio — alone it must
//      stay below the paper's threshold of 10; with fio it rises far above
//      (the paper reports a ~8.2x peak increase for terasort).
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

/// Run one job on a monitored motivation cluster; returns the io-deviation
/// signal recorded by a monitoring-only node manager.
sim::TimeSeries signal_for(const wl::JobSpec& job, bool with_fio, std::uint64_t seed) {
  exp::Cluster c = bench::motivation_cluster(seed);
  if (with_fio) exp::add_fio(c, "host-0");  // present for the whole run
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  exp::run_job(c, job);
  return c.node_manager(0).deviation_signal(core::kIo, "hadoop");
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 5;

  // --- (a) terasort time series ---
  const wl::JobSpec terasort = wl::make_terasort(10, 10);
  const sim::TimeSeries alone = signal_for(terasort, false, kSeed);
  const sim::TimeSeries contended = signal_for(terasort, true, kSeed);

  exp::print_banner(std::cout, "Fig 3(a)",
                    "std-dev of block iowait ratio across Hadoop VMs (terasort 10+10)");
  exp::Table ts({"t (s)", "alone", "with fio"});
  const std::size_t n = std::max(alone.size(), contended.size());
  for (std::size_t i = 0; i < n; ++i) {
    ts.add_row(exp::fmt(5.0 * static_cast<double>(i + 1), 0),
               {i < alone.size() ? alone.value(i) : 0.0,
                i < contended.size() ? contended.value(i) : 0.0},
               2);
  }
  ts.print(std::cout);
  std::cout << "peak alone = " << exp::fmt(alone.peak(), 2)
            << ", peak with fio = " << exp::fmt(contended.peak(), 2) << " (ratio "
            << exp::fmt(contended.peak() / std::max(alone.peak(), 1e-9), 1)
            << "x; paper reports ~8.2x)\n";

  // --- (b) peaks across all benchmarks ---
  exp::print_banner(std::cout, "Fig 3(b)",
                    "peak iowait-ratio deviation per benchmark, alone vs with fio");
  exp::Table t({"benchmark", "peak alone", "peak with fio", "alone < 10?", "fio > 10?"});
  for (const std::string& name : wl::benchmark_names()) {
    const wl::JobSpec job = wl::make_benchmark(name, 20);  // long enough to sample
    const double pa = signal_for(job, false, kSeed).peak();
    const double pf = signal_for(job, true, kSeed).peak();
    t.add_row({name, exp::fmt(pa, 2), exp::fmt(pf, 2), pa < 10.0 ? "yes" : "NO",
               pf > 10.0 ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nPaper shape: the deviation never crosses the threshold H=10 when the\n"
               "application runs alone, and crosses it within seconds of fio arriving.\n";
  return 0;
}
