// Figure 10 — Resource caps applied by PerfCloud over time.
//
// Same scenario as Fig 9 under PerfCloud; prints the normalized I/O cap on
// the fio VM and the normalized CPU cap on the STREAM VM. Expected shape:
// throttling during the contended window, cubic recovery through the
// plateau, then rapid probing; possible re-throttle events when the
// deviation signal spikes again.
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

int main() {
  constexpr std::uint64_t kSeed = 19;

  exp::Cluster c = bench::small_scale_cluster(kSeed);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 15.0});
  const int stream =
      exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 15.0});
  exp::add_oltp(c, "host-0");
  exp::add_sysbench_cpu(c, "host-0");
  exp::enable_perfcloud(c, core::PerfCloudConfig{});

  const double jct = exp::run_job(c, wl::make_spark_logreg(40, 8));
  exp::run_for(c, 60.0);  // let the caps recover and lift after the job

  core::NodeManager& nm = c.node_manager(0);
  const sim::TimeSeries& io_caps = nm.cap_series(core::kIo, fio);
  const sim::TimeSeries& cpu_caps = nm.cap_series(core::kCpu, stream);

  exp::print_banner(std::cout, "Fig 10(a)", "normalized I/O cap on the fio VM over time");
  exp::Table a({"t (s)", "I/O cap (x baseline)"});
  for (std::size_t i = 0; i < io_caps.size(); ++i) {
    a.add_row(exp::fmt(io_caps.time(i).seconds(), 0), {io_caps.value(i)}, 3);
  }
  a.print(std::cout);

  exp::print_banner(std::cout, "Fig 10(b)", "normalized CPU cap on the STREAM VM over time");
  exp::Table b({"t (s)", "CPU cap (x baseline)"});
  for (std::size_t i = 0; i < cpu_caps.size(); ++i) {
    b.add_row(exp::fmt(cpu_caps.time(i).seconds(), 0), {cpu_caps.value(i)}, 3);
  }
  b.print(std::cout);

  int io_decreases = 0;
  for (std::size_t i = 1; i < io_caps.size(); ++i) {
    if (io_caps.value(i) < io_caps.value(i - 1) - 1e-9) ++io_decreases;
  }
  std::cout << "\nJCT under PerfCloud: " << exp::fmt(jct, 0) << " s; I/O cap decrease events: "
            << io_decreases << "\n";
  std::cout << "Paper shape: throttling shortly after the antagonists arrive, cubic\n"
               "recovery (growth -> plateau -> probing), re-throttles on signal spikes,\n"
               "and full cap removal once contention is gone for good.\n";
  return 0;
}
