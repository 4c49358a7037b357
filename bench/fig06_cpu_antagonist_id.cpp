// Figure 6 — Identifying processor-resource antagonists by correlating the
// victim's CPI deviation signal with colocated VMs' LLC miss rates.
//
// Setup (§III-B): Spark logistic regression VMs colocated with TWO VMs each
// running STREAM with 8 threads (individually weak, collectively strong —
// the paper's point about antagonist *groups*), plus sysbench oltp and
// sysbench cpu. Expected: both STREAM VMs correlate > 0.8 via their LLC
// miss rates; oltp/cpu stay low; missing LLC samples count as zero.
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"
#include "core/identifier.hpp"
#include "sim/correlation.hpp"

using namespace perfcloud;

int main() {
  constexpr std::uint64_t kSeed = 13;

  exp::Cluster c = bench::motivation_cluster(kSeed);
  const wl::StreamBenchmark::Params stream_p{.threads = 8, .start_s = 15.0};
  const int stream1 = exp::add_stream(c, "host-0", stream_p);
  const int stream2 = exp::add_stream(c, "host-0", stream_p);
  const int oltp = exp::add_oltp(c, "host-0", wl::SysbenchOltp::Params{.duration_s = 600.0});  // long-resident tenant
  const int cpu = exp::add_sysbench_cpu(c, "host-0");
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/false);

  exp::run_job(c, wl::make_spark_logreg(30, 8));

  core::NodeManager& nm = c.node_manager(0);
  const sim::TimeSeries& victim = nm.cpi_signal("hadoop");

  // --- (a)/(b): normalized signals ---
  exp::print_banner(std::cout, "Fig 6(a,b)",
                    "normalized CPI deviation and suspect LLC miss rates");
  exp::Table ts({"t (s)", "CPI dev (norm)", "stream-1", "stream-2", "oltp", "cpu"});
  const auto vn = victim.normalized_by_peak();
  const auto norm_llc = [&](int vm) {
    std::vector<double> aligned = sim::align_to(victim, nm.monitor().llc_miss_series(vm));
    double peak = 0.0;
    for (double v : aligned) peak = std::max(peak, std::abs(v));
    if (peak > 0.0) {
      for (double& v : aligned) v /= peak;
    }
    return aligned;
  };
  const auto s1 = norm_llc(stream1);
  const auto s2 = norm_llc(stream2);
  const auto ol = norm_llc(oltp);
  const auto cp = norm_llc(cpu);
  for (std::size_t i = 0; i < victim.size(); ++i) {
    ts.add_row(exp::fmt(victim.time(i).seconds(), 0), {vn[i], s1[i], s2[i], ol[i], cp[i]}, 2);
  }
  ts.print(std::cout);

  // --- (c): correlation coefficients, evaluated online at the detection
  //     instant (first CPI-deviation sample above H = 1 after the STREAM
  //     VMs arrive) over the node manager's correlation window ---
  std::size_t det_idx = victim.size() - 1;
  for (std::size_t i = 0; i < victim.size(); ++i) {
    if (victim.time(i).seconds() > 15.0 && victim.value(i) > 1.0) {
      det_idx = i;
      break;
    }
  }
  sim::TimeSeries online_victim;
  for (std::size_t i = 0; i <= det_idx; ++i) online_victim.add(victim.time(i), victim.value(i));

  exp::print_banner(std::cout, "Fig 6(c)",
                    "correlation of CPI deviation with suspect LLC miss rates (at detection, t=" +
                        exp::fmt(victim.time(det_idx).seconds(), 0) + " s)");
  // Score through the same identifier the node manager runs: Pearson with
  // missing-as-zero plus the high-miss-rate magnitude gate of SIII-B.
  core::AntagonistIdentifier ident{core::PerfCloudConfig{}};
  std::vector<core::SuspectSignal> sig;
  const std::vector<std::pair<std::string, int>> named = {{"stream-1", stream1},
                                                          {"stream-2", stream2},
                                                          {"sysbench-oltp", oltp},
                                                          {"sysbench-cpu", cpu}};
  for (const auto& [label, vm] : named) {
    sig.push_back(core::SuspectSignal{vm, &nm.monitor().llc_miss_series(vm)});
  }
  std::vector<core::SuspectScore> scores;
  ident.score(online_victim, sig, scores);
  exp::Table t({"suspect", "correlation", "identified antagonist?"});
  for (std::size_t i = 0; i < named.size(); ++i) {
    t.add_row({named[i].first, exp::fmt(scores[i].correlation, 3),
               scores[i].antagonist ? "yes" : "no"});
  }
  t.print(std::cout);
  std::cout << "\nPaper shape: the two STREAM VMs correlate above 0.8 (a group of\n"
               "antagonists none of which is decisive alone); oltp and cpu do not.\n";
  return 0;
}
