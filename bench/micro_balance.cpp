// Load-balance microbenchmark for the shard pool and the idle-host fast
// path, on a deliberately skewed cluster: all workers (and all antagonists)
// packed onto the first 3 of 12 hosts, the other 9 idle.
//
// Runs, same scenario:
//  - shards=4. The pool claims the head of the batch one task at a time, so
//    the three hot hosts spread across shards. Needs >= 2 cores to show as
//    wall time.
//  - idle fast path on vs off at shards=1. Quiescent hosts take the O(1)
//    hypervisor/node-manager early-out, so per-quantum engine work shrinks
//    even on a single core.
//
// Every run must produce an identical result fingerprint — a shard count or
// fast path that changed an output would be a correctness bug, so the bench
// hard-fails on any mismatch. Results go to stdout and BENCH_balance.json.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "exp/report.hpp"
#include "hw_context.hpp"
#include "virt/hypervisor.hpp"
#include "workloads/mix.hpp"

using namespace perfcloud;

namespace {

constexpr std::uint64_t kSeed = 71;
constexpr int kJobs = 10;
constexpr int kHosts = 12;
constexpr int kHotHosts = 3;
constexpr double kTickDt = 0.1;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// RAII save/restore of the global idle-fast-path switch.
class ScopedFastpath {
 public:
  explicit ScopedFastpath(bool enabled) : saved_(virt::idle_fastpath_enabled()) {
    virt::set_idle_fastpath_enabled(enabled);
  }
  ~ScopedFastpath() { virt::set_idle_fastpath_enabled(saved_); }

 private:
  bool saved_;
};

struct RunResult {
  std::string label;
  double wall_s = 0.0;
  double us_per_quantum = 0.0;
  // Result fingerprint — must be identical for every configuration.
  double jct_sum = 0.0;
  int completed = 0;
  double efficiency = 0.0;
  double final_time_s = 0.0;
};

RunResult run_once(const std::string& label, unsigned shards, bool fastpath) {
  ScopedFastpath guard(fastpath);
  exp::ClusterParams p;
  p.hosts = kHosts;
  p.workers = 10 * kHotHosts;
  p.worker_host_limit = kHotHosts;  // hosts 3..11 stay empty
  p.seed = kSeed;
  p.tick_dt = kTickDt;
  p.shards = shards;

  const double t0 = now_seconds();
  exp::Cluster c = exp::make_cluster(p);
  // Antagonists pile onto the hot hosts too. Every idle host gets a short
  // finite fio: once it drains (t >= 45 s) the host is quiescent but still
  // carries a resident VM, so the fast path has real per-quantum monitor
  // work to bypass — an empty host is already nearly free to tick.
  for (int h = 0; h < kHotHosts; ++h) {
    const std::string host = "host-" + std::to_string(h);
    exp::add_fio(c, host, wl::FioRandomRead::Params{.duration_s = 500.0, .start_s = 30.0});
    exp::add_stream(c, host,
                    wl::StreamBenchmark::Params{.threads = 8, .duration_s = 400.0,
                                                .start_s = 60.0});
  }
  for (int h = kHotHosts; h < kHosts; ++h) {
    exp::add_fio(c, "host-" + std::to_string(h),
                 wl::FioRandomRead::Params{.duration_s = 40.0, .start_s = 5.0});
  }

  core::PerfCloudConfig cfg;
  cfg.monitor_series_capacity = cfg.correlation_window;
  exp::enable_perfcloud(c, cfg);

  sim::Rng mix_rng(kSeed);
  wl::MixParams mp;
  mp.num_jobs = kJobs;
  mp.mean_interarrival_s = 60.0;
  const std::vector<wl::MixEntry> mix = wl::make_mapreduce_mix(mp, mix_rng);
  std::vector<wl::JobId> ids;
  ids.reserve(mix.size());
  for (const wl::MixEntry& e : mix) {
    c.engine->at(sim::SimTime(e.submit_time_s),
                 [&c, &ids, &e](sim::SimTime) { ids.push_back(c.framework->submit(e.spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < mix.size() || !c.framework->all_done(); },
      sim::SimTime(20000.0));

  RunResult r;
  r.label = label;
  r.wall_s = now_seconds() - t0;
  r.efficiency = c.framework->utilization_efficiency();
  r.final_time_s = c.engine->now().seconds();
  r.us_per_quantum = r.wall_s * 1e6 / (r.final_time_s / kTickDt);
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    if (job != nullptr && job->completed()) {
      r.jct_sum += job->jct();
      ++r.completed;
    }
  }
  return r;
}

}  // namespace

int main() {
  std::cout << "micro_balance: skewed cluster (" << kHotHosts << " hot hosts of " << kHosts
            << ", rest idle), " << kJobs << " jobs, antagonist pile-up, PerfCloud on\n"
            << "hardware threads available: " << std::thread::hardware_concurrency() << "\n\n";

  std::vector<RunResult> results;
  const auto run = [&](const std::string& label, unsigned shards, bool fastpath) {
    std::cout << "  " << label << " ..." << std::flush;
    results.push_back(run_once(label, shards, fastpath));
    std::cout << " " << results.back().wall_s << " s wall\n";
  };
  run("shards=4", 4, true);
  run("shards=1 fastpath off", 1, false);
  run("shards=1 fastpath on", 1, true);
  std::cout << "\n";

  // Determinism gate: shard count and the idle fast path may change
  // wall-clock time only. A tolerance would hide real bugs.
  const RunResult& base = results.front();
  for (std::size_t i = 1; i < results.size(); ++i) {
    const RunResult& r = results[i];
    if (r.jct_sum != base.jct_sum || r.completed != base.completed ||
        r.efficiency != base.efficiency || r.final_time_s != base.final_time_s) {
      std::cerr << "FAIL: '" << r.label
                << "' produced a different result fingerprint than '" << base.label << "'\n";
      return 1;
    }
  }

  exp::Table t({"configuration", "wall s", "us/quantum"});
  for (const RunResult& r : results) {
    t.add_row(r.label, {r.wall_s, r.us_per_quantum}, 2);
  }
  t.print(std::cout);

  const double fastpath_speedup = results[1].wall_s / results[2].wall_s;
  std::cout << "\nidle fast path at shards=1: " << fastpath_speedup << "x\n";
  std::cout << "\nfingerprint: " << base.completed << "/" << kJobs << " jobs completed, JCT sum "
            << base.jct_sum << " s, efficiency " << base.efficiency << ", final sim time "
            << base.final_time_s << " s (identical across all configurations)\n";

  std::ofstream json("BENCH_balance.json");
  json << "{\n"
       << "  \"topology\": {\"hosts\": " << kHosts << ", \"hot_hosts\": " << kHotHosts
       << ", \"workers\": " << 10 * kHotHosts << ", \"jobs\": " << kJobs << "},\n"
       << "  \"hw_context\": " << bench::hw_context_json() << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"configuration\": \"" << r.label << "\", \"wall_s\": " << r.wall_s
         << ", \"us_per_quantum\": " << r.us_per_quantum << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"idle_fastpath_speedup\": " << fastpath_speedup << ",\n"
       << "  \"fingerprint_identical\": true,\n"
       << "  \"jct_sum_s\": " << base.jct_sum << ",\n"
       << "  \"utilization_efficiency\": " << base.efficiency << "\n"
       << "}\n";
  std::cout << "\nwrote BENCH_balance.json\n";
  return 0;
}
