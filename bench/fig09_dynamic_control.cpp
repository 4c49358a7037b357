// Figure 9 — Impact of PerfCloud's dynamic resource control.
//
// Scenario (§IV-B): Spark logistic regression (40 tasks/stage) on the
// 12-node virtual cluster, colocated with fio random read, STREAM, sysbench
// oltp, and sysbench cpu VMs. Compared schemes: the default system (no
// resource capping), a static policy (20 % I/O cap on fio, 20 % CPU cap on
// STREAM, set by an oracle operator), and PerfCloud.
//
//  (a) std-dev of block iowait ratio over time, default vs PerfCloud;
//  (b) std-dev of CPI over time, default vs PerfCloud;
//  (c) JCT per scheme plus what each scheme costs the antagonists.
#include <iostream>

#include "baselines/static_cap.hpp"
#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

struct Outcome {
  double jct = 0.0;
  double fio_iops = 0.0;
  double stream_bw = 0.0;
  core::PerResource<sim::TimeSeries> signal;  ///< Deviation signal per resource.
};

enum class Mode { kDefault, kStatic, kPerfCloud };

Outcome run(Mode mode, std::uint64_t seed, double fio_solo_iops) {
  exp::Cluster c = bench::small_scale_cluster(seed);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 15.0});
  const int stream =
      exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 15.0});
  exp::add_oltp(c, "host-0");
  exp::add_sysbench_cpu(c, "host-0");

  // Node managers always run for signal recording; only PerfCloud actuates.
  exp::enable_perfcloud(c, core::PerfCloudConfig{}, /*control=*/mode == Mode::kPerfCloud);
  if (mode == Mode::kStatic) {
    base::apply_static_caps(
        *c.cloud, "host-0",
        {base::StaticCap{.vm_id = fio, .io_bytes_per_sec = 0.2 * fio_solo_iops * 4096.0},
         base::StaticCap{.vm_id = stream, .cpu_cores = 0.2 * 16.0}});
  }

  Outcome o;
  o.jct = exp::run_job(c, wl::make_spark_logreg(40, 8));
  // Antagonist throughput is averaged over the job plus a minute after it:
  // PerfCloud's caps recover once contention subsides, the static policy's
  // never do — that recovery is the scheme's whole advantage for the
  // low-priority tenants.
  exp::run_for(c, 60.0);
  o.fio_iops = dynamic_cast<const wl::FioRandomRead*>(c.vm(fio).guest())->achieved_iops();
  o.stream_bw = dynamic_cast<const wl::StreamBenchmark*>(c.vm(stream).guest())->achieved_bw();
  for (const core::Resource r : core::kResources) {
    o.signal[r] = c.node_manager(0).deviation_signal(r, "hadoop");
  }
  return o;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 19;
  const double fio_solo = bench::fio_standalone_iops(kSeed);

  const Outcome def = run(Mode::kDefault, kSeed, fio_solo);
  const Outcome stat = run(Mode::kStatic, kSeed, fio_solo);
  const Outcome perf = run(Mode::kPerfCloud, kSeed, fio_solo);

  const auto signal_table = [&](core::Resource r, const char* figure, const char* title,
                                int digits) {
    exp::print_banner(std::cout, figure, title);
    exp::Table t({"t (s)", "default", "PerfCloud"});
    const sim::TimeSeries& d = def.signal[r];
    const sim::TimeSeries& p = perf.signal[r];
    for (std::size_t i = 0; i < std::max(d.size(), p.size()); ++i) {
      t.add_row(exp::fmt(5.0 * static_cast<double>(i + 1), 0),
                {i < d.size() ? d.value(i) : 0.0, i < p.size() ? p.value(i) : 0.0}, digits);
    }
    t.print(std::cout);
  };
  signal_table(core::kIo, "Fig 9(a)", "std-dev of block iowait ratio, default vs PerfCloud", 2);
  signal_table(core::kCpu, "Fig 9(b)", "std-dev of CPI, default vs PerfCloud", 3);

  exp::print_banner(std::cout, "Fig 9(c)", "job completion time and antagonist cost per scheme");
  exp::Table t({"scheme", "Spark logreg JCT (s)", "improvement vs default %", "fio IOPS",
                "STREAM GB/s"});
  const auto row = [&](const char* name, const Outcome& o) {
    t.add_row({name, exp::fmt(o.jct, 0), exp::fmt((1.0 - o.jct / def.jct) * 100.0, 1),
               exp::fmt(o.fio_iops, 0), exp::fmt(o.stream_bw / 1e9, 2)});
  };
  row("default", def);
  row("static 20% caps", stat);
  row("PerfCloud", perf);
  t.print(std::cout);
  std::cout << "\nPaper shape: PerfCloud and the static policy beat the default by\n"
               "~31% and ~33% respectively; PerfCloud additionally lets the\n"
               "antagonists recover whenever the signals subside, so fio/STREAM\n"
               "throughput is higher than under the permanent static caps.\n";
  return 0;
}
