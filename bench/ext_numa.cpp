// §IV-D extension — NUMA-architecture-aware VM mapping.
//
// The paper lists "NUMA architecture-aware VM mapping" among the
// optimizations whose impact on PerfCloud it plans to study. This bench
// does that study on the dual-socket server model: a Spark logistic
// regression cluster shares a host with a STREAM VM under four placements x
// control settings, measuring JCT and what is left for the antagonist.
//
// Expected shape: NUMA separation alone removes most of the memory
// interference without throttling anyone (the antagonist keeps full
// bandwidth); PerfCloud alone recovers similar JCT but at the antagonist's
// expense; NUMA + PerfCloud leaves PerfCloud almost nothing to do.
#include <iostream>

#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

struct Outcome {
  double jct = 0.0;
  double stream_bw = 0.0;
  bool throttled = false;
};

Outcome run(bool numa_separate, bool perfcloud, std::uint64_t seed) {
  exp::ClusterParams p;
  p.workers = 10;
  p.seed = seed;
  p.server.sockets = 2;  // each socket carries a full LLC + memory channels
  exp::Cluster c = exp::make_cluster(p);

  // Worst-case default placement: the scheduler packed the workers onto the
  // antagonist's socket. NUMA-aware mapping moves them to the other one.
  const int stream =
      exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 10.0});
  c.vm(stream).set_numa_node(0);
  for (const int id : c.worker_vm_ids) {
    c.vm(id).set_numa_node(numa_separate ? 1 : 0);
  }
  if (perfcloud) exp::enable_perfcloud(c, core::PerfCloudConfig{});

  Outcome o;
  o.jct = exp::run_job(c, wl::make_spark_logreg(30, 8));
  o.stream_bw = dynamic_cast<const wl::StreamBenchmark*>(c.vm(stream).guest())->achieved_bw();
  if (perfcloud) o.throttled = !c.node_manager(0).cap_series(core::kCpu, stream).empty();
  return o;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 23;
  exp::print_banner(std::cout, "Extension (§IV-D)",
                    "NUMA-aware VM mapping on a dual-socket host vs PerfCloud throttling");

  exp::Table t({"placement", "control", "Spark JCT (s)", "STREAM GB/s", "STREAM throttled?"});
  const auto row = [&](const char* placement, const char* control, const Outcome& o) {
    t.add_row({placement, control, exp::fmt(o.jct, 0), exp::fmt(o.stream_bw / 1e9, 2),
               o.throttled ? "yes" : "no"});
  };
  row("shared sockets", "none", run(false, false, kSeed));
  row("shared sockets", "PerfCloud", run(false, true, kSeed));
  row("NUMA-separated", "none", run(true, false, kSeed));
  row("NUMA-separated", "PerfCloud", run(true, true, kSeed));
  t.print(std::cout);
  std::cout << "\nReading: NUMA separation fixes the interference without costing the\n"
               "antagonist anything; PerfCloud fixes it by throttling. Together, the\n"
               "controller stays idle — placement solved the problem upstream.\n";
  return 0;
}
