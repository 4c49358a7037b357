// Figure 4 — The std-dev of CPI across the application's VMs as the
// detector of shared-processor-resource contention.
//
// Peak CPI deviation for every benchmark, alone vs with a colocated
// 16-thread STREAM VM. Alone it stays below the paper's threshold of 1;
// with STREAM it exceeds 1, and Spark benchmarks (higher memory
// sensitivity) show the larger deviations.
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

sim::TimeSeries cpi_signal_for(const wl::JobSpec& job, bool with_stream, std::uint64_t seed) {
  exp::Cluster c = bench::motivation_cluster(seed);
  if (with_stream) {
    exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
  }
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);
  exp::run_job(c, job);
  return c.node_manager(0).deviation_signal(core::kCpu, "hadoop");
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 9;

  // --- time series for one Spark benchmark ---
  const wl::JobSpec logreg = wl::make_spark_logreg(20, 8);
  const sim::TimeSeries alone = cpi_signal_for(logreg, false, kSeed);
  const sim::TimeSeries contended = cpi_signal_for(logreg, true, kSeed);
  exp::print_banner(std::cout, "Fig 4 (timeline)",
                    "std-dev of CPI across Hadoop VMs (Spark logreg), alone vs with STREAM");
  exp::Table ts({"t (s)", "alone", "with STREAM"});
  const std::size_t n = std::max(alone.size(), contended.size());
  for (std::size_t i = 0; i < n; ++i) {
    ts.add_row(exp::fmt(5.0 * static_cast<double>(i + 1), 0),
               {i < alone.size() ? alone.value(i) : 0.0,
                i < contended.size() ? contended.value(i) : 0.0},
               3);
  }
  ts.print(std::cout);

  // --- peaks across all benchmarks ---
  exp::print_banner(std::cout, "Fig 4",
                    "peak CPI deviation per benchmark, alone vs with STREAM-16");
  exp::Table t({"benchmark", "peak alone", "peak with STREAM", "alone < 1?", "STREAM > 1?"});
  for (const std::string& name : wl::benchmark_names()) {
    // Larger jobs give the 5 s monitor enough samples.
    const wl::JobSpec job = wl::make_benchmark(name, 30);
    const double pa = cpi_signal_for(job, false, kSeed).peak();
    const double ps = cpi_signal_for(job, true, kSeed).peak();
    t.add_row({name, exp::fmt(pa, 3), exp::fmt(ps, 3), pa < 1.0 ? "yes" : "NO",
               ps > 1.0 ? "yes" : "NO"});
  }
  t.print(std::cout);
  std::cout << "\nPaper shape: peak deviation < 1 alone, well above 1 under STREAM;\n"
               "Spark benchmarks show the largest deviations and degradation.\n";
  return 0;
}
