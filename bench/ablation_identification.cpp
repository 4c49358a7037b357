// Ablation — the antagonist-identification design choices.
//
// DESIGN.md §5b documents three departures/choices in the identification
// path: absolute-value correlation, identification memory, and the
// correlation window. This bench reruns a standard episodic-antagonist
// scenario (5 hosts, 50 workers, job stream, fio/STREAM episodes) for each
// configuration and reports:
//   - episode coverage: fraction of antagonist episodes that acquired a cap
//     controller;
//   - bystander safety: whether any sysbench-cpu VM was ever throttled;
//   - mean job completion time of the stream.
#include <algorithm>
#include <iostream>
#include <vector>

#include "common.hpp"
#include "exp/report.hpp"
#include "workloads/mix.hpp"

using namespace perfcloud;

namespace {

struct Outcome {
  double coverage = 0.0;
  int innocents_throttled = 0;
  double mean_jct = 0.0;
};

Outcome run(const core::PerfCloudConfig& cfg, std::uint64_t seed) {
  exp::ClusterParams p;
  p.hosts = 5;
  p.workers = 50;
  p.seed = seed;
  p.tick_dt = 0.25;
  exp::Cluster c = exp::make_cluster(p);

  struct Episode {
    int vm;
    std::size_t host;
  };
  std::vector<Episode> episodes;
  std::vector<int> innocents;
  sim::Rng rng(seed * 31 + 7);
  for (int i = 0; i < 16; ++i) {
    const auto host = static_cast<std::size_t>(rng.uniform_int(0, 4));
    const double start = rng.uniform(0.0, 1400.0);
    const double dur = rng.uniform(150.0, 400.0);
    int vm = 0;
    if (i % 2 == 0) {
      vm = exp::add_fio(c, c.hosts[host],
                        wl::FioRandomRead::Params{.duration_s = dur, .start_s = start});
    } else {
      vm = exp::add_stream(c, c.hosts[host],
                           wl::StreamBenchmark::Params{.threads = 16, .duration_s = dur,
                                                       .start_s = start});
    }
    episodes.push_back(Episode{vm, host});
  }
  // Innocent bystanders on every host.
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    innocents.push_back(exp::add_sysbench_cpu(
        c, c.hosts[h], wl::SysbenchCpu::Params{.total_instructions = 1e14}));
  }

  exp::enable_perfcloud(c, cfg);

  sim::Rng mix_rng(seed);
  wl::MixParams mp;
  mp.num_jobs = 40;
  mp.mean_interarrival_s = 45.0;
  const auto mix = wl::make_mapreduce_mix(mp, mix_rng);
  std::vector<wl::JobId> ids;
  for (const wl::MixEntry& e : mix) {
    c.engine->at(sim::SimTime(e.submit_time_s),
                 [&c, &e, &ids](sim::SimTime) { ids.push_back(c.framework->submit(e.spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < mix.size() || !c.framework->all_done(); },
      sim::SimTime(20000.0));

  Outcome o;
  // A VM counts as throttled once any resource's controller capped it.
  const auto throttled = [&c](std::size_t host, int vm) {
    return std::ranges::any_of(core::kResources, [&](core::Resource r) {
      return !c.node_manager(host).cap_series(r, vm).empty();
    });
  };
  int covered = 0;
  for (const Episode& e : episodes) {
    if (throttled(e.host, e.vm)) ++covered;
  }
  o.coverage = static_cast<double>(covered) / static_cast<double>(episodes.size());
  for (std::size_t h = 0; h < c.hosts.size(); ++h) {
    for (const int vm : innocents) {
      if (throttled(h, vm)) ++o.innocents_throttled;
    }
  }
  double total = 0.0;
  int done = 0;
  for (const wl::JobId id : ids) {
    const wl::Job* j = c.framework->find_job(id);
    if (j != nullptr && j->completed()) {
      total += j->jct();
      ++done;
    }
  }
  o.mean_jct = done > 0 ? total / done : 0.0;
  return o;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 404;
  exp::print_banner(std::cout, "Ablation", "antagonist-identification design choices");
  exp::Table t({"configuration", "episode coverage", "innocents throttled", "mean JCT (s)"});

  const auto row = [&](const std::string& name, const core::PerfCloudConfig& cfg) {
    const Outcome o = run(cfg, kSeed);
    t.add_row({name, exp::fmt(o.coverage, 2), std::to_string(o.innocents_throttled),
               exp::fmt(o.mean_jct, 1)});
  };

  core::PerfCloudConfig base;
  row("default (|r|, memory 600s, window 12)", base);

  core::PerfCloudConfig paper = base;
  paper.use_absolute_correlation = false;
  row("paper rule: positive r only", paper);

  core::PerfCloudConfig no_memory = base;
  no_memory.identification_memory_s = 0.0;
  row("no identification memory", no_memory);

  core::PerfCloudConfig wide = base;
  wide.correlation_window = 24;
  row("correlation window 24", wide);

  core::PerfCloudConfig narrow = base;
  narrow.correlation_window = 6;
  row("correlation window 6", narrow);

  core::PerfCloudConfig no_gate = base;
  no_gate.min_usage_fraction = 0.0;
  row("no usage-magnitude gate", no_gate);

  t.print(std::cout);
  std::cout << "\nReading: coverage should fall without |r| or without memory; the\n"
               "magnitude gate exists to keep 'innocents throttled' at zero.\n";
  return 0;
}
