// §IV-D extension — shared-memory communication among colocated Hadoop VMs.
//
// The paper plans to "study the impact of other optimizations such as
// shared-memory communication among Hadoop VMs ... on the effectiveness of
// PerfCloud". When worker VMs share a host, shuffle traffic can move over
// shared memory instead of the disk; this bench measures (a) how much that
// helps shuffle-heavy jobs, and (b) how it interacts with PerfCloud under
// I/O interference — less disk traffic means both less exposure to an I/O
// antagonist and a weaker iowait signal for the detector.
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

struct Outcome {
  double jct = 0.0;
  bool fio_throttled = false;
};

Outcome run(const std::string& job_name, bool shm, bool with_fio, bool perfcloud,
            std::uint64_t seed) {
  exp::Cluster c = bench::small_scale_cluster(seed);
  c.framework->set_shared_memory_shuffle(shm);
  int fio = -1;
  if (with_fio) fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 10.0});
  if (perfcloud) exp::enable_perfcloud(c, core::PerfCloudConfig{});
  Outcome o;
  o.jct = exp::run_job(c, wl::make_benchmark(job_name, 20));
  if (perfcloud && fio >= 0) {
    o.fio_throttled = !c.node_manager(0).cap_series(core::kIo, fio).empty();
  }
  return o;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 37;
  exp::print_banner(std::cout, "Extension (§IV-D)",
                    "shared-memory shuffle between colocated worker VMs (12-node, one host)");

  exp::Table t({"benchmark", "shm", "JCT idle (s)", "JCT + fio (s)",
                "JCT + fio + PerfCloud (s)", "fio throttled?"});
  for (const std::string name : {"terasort", "self-join", "pagerank"}) {
    for (const bool shm : {false, true}) {
      const Outcome idle = run(name, shm, false, false, kSeed);
      const Outcome noisy = run(name, shm, true, false, kSeed);
      const Outcome guarded = run(name, shm, true, true, kSeed);
      t.add_row({name, shm ? "on" : "off", exp::fmt(idle.jct, 0), exp::fmt(noisy.jct, 0),
                 exp::fmt(guarded.jct, 0), guarded.fio_throttled ? "yes" : "no"});
    }
  }
  t.print(std::cout);
  std::cout << "\nReading: shared memory removes the shuffle's disk traffic, which both\n"
               "speeds the job up and shrinks its exposure to the I/O antagonist; the\n"
               "detector still fires on the remaining HDFS reads when fio bites.\n";
  return 0;
}
