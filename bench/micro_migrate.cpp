// Placement-discipline and migration-cost microbenchmark: the same job
// sequence under spread vs packed placement, each with instantaneous and
// with live (timed pre-copy + stop-and-copy) migration, escalation enabled.
// Packed placement manufactures the §IV-D high-priority collision, so the
// escalation actually migrates VMs; the live model then charges the real
// price — page-stream disk traffic on the destination and a paused VM —
// which shows up in the job completion times.
//
// Everything printed to STDOUT is simulation output and therefore
// deterministic: scripts/check.sh runs this binary under PERFCLOUD_THREADS=1
// and =4 (the reported runs leave ClusterParams::shards = 0, so the
// override sets their shard count) and diffs the two stdouts byte for byte.
// Wall-clock timings go only to BENCH_migrate.json. An internal gate
// additionally re-runs the packed+live configuration at explicit shards 1
// and 4 and hard-fails on any fingerprint mismatch, so the bench polices its
// own determinism even when run by hand.
#include <chrono>
#include <fstream>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "hw_context.hpp"
#include "workloads/benchmarks.hpp"

using namespace perfcloud;

namespace {

constexpr std::uint64_t kSeed = 17;
constexpr int kHosts = 4;
constexpr int kWorkers = 8;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct RunResult {
  std::string label;
  double wall_s = 0.0;
  unsigned shards = 0;  ///< The engine's shard count after the run.
  // Simulation fingerprint: identical across shard counts per configuration.
  double final_time_s = 0.0;
  double jct_sum = 0.0;
  int completed = 0;
  long migrations_started = 0;
  long migrations_completed = 0;

  [[nodiscard]] bool same_results(const RunResult& o) const {
    return final_time_s == o.final_time_s && jct_sum == o.jct_sum && completed == o.completed &&
           migrations_started == o.migrations_started &&
           migrations_completed == o.migrations_completed;
  }
};

RunResult run_once(const std::string& label, exp::Placement placement, bool live,
                   unsigned shards) {
  exp::ClusterParams p;
  p.hosts = kHosts;
  p.workers = kWorkers;
  p.seed = kSeed;
  p.shards = shards;  // 0 = the engine's own count (the reported runs)
  p.placement = placement;
  if (live) p.migration = {.bandwidth_bps = 1.0e9, .downtime_s = 0.25};

  const double t0 = now_seconds();
  exp::Cluster c = exp::make_cluster(p);
  // The rival high-priority application lands on host-0 — under packed
  // placement that is where ALL the hadoop workers sit, so the first
  // control interval escalates and the cloud manager migrates the rival
  // out; under spread only a quarter of them do, with spare hosts close by.
  // The rivals run a disk-heavy guest and carry 32 GiB each, so the live
  // model's ~34 s pre-copy keeps them contending on host-0 long after the
  // instantaneous handoff would have removed them.
  virt::VmConfig rival;
  rival.priority = virt::Priority::kHigh;
  rival.app_id = "rival";
  rival.vcpus = 2;
  rival.memory = 32.0 * 1024 * 1024 * 1024;
  for (int i = 0; i < 2; ++i) {
    virt::Vm& vm = c.cloud->boot_vm("host-0", rival);
    vm.attach(std::make_unique<wl::FioRandomRead>(
        wl::FioRandomRead::Params{.duration_s = 400.0}));
  }
  exp::add_fio(c, "host-0",
               wl::FioRandomRead::Params{.duration_s = 300.0, .start_s = 30.0});

  core::PerfCloudConfig cfg;
  cfg.escalate_app_collisions = true;
  exp::enable_perfcloud(c, cfg);

  const std::vector<std::pair<std::string, double>> submissions = {
      {"terasort", 0.0}, {"wordcount", 90.0}, {"kmeans", 180.0}};
  std::vector<wl::JobId> ids;
  for (const auto& [name, at] : submissions) {
    const wl::JobSpec spec = wl::make_benchmark(name, 8);
    c.engine->at(sim::SimTime(at),
                 [&c, &ids, spec](sim::SimTime) { ids.push_back(c.framework->submit(spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < submissions.size() || !c.framework->all_done(); },
      sim::SimTime(8000.0));

  RunResult r;
  r.label = label;
  r.wall_s = now_seconds() - t0;
  r.shards = c.engine->shards();
  r.final_time_s = c.engine->now().seconds();
  r.migrations_started = c.cloud->migrations_started();
  r.migrations_completed = c.cloud->migrations_completed();
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
  std::cout << "micro_migrate: " << kWorkers << " workers on " << kHosts
            << " hosts, rival high-priority app + fio on host-0, escalation on\n\n";

  std::vector<RunResult> results;
  results.push_back(run_once("spread instantaneous", exp::Placement::kSpread, false, 0));
  results.push_back(run_once("spread live-migration", exp::Placement::kSpread, true, 0));
  results.push_back(run_once("packed instantaneous", exp::Placement::kPacked, false, 0));
  results.push_back(run_once("packed live-migration", exp::Placement::kPacked, true, 0));

  // Internal determinism gate: the hardest configuration (packed placement,
  // live migrations in flight) must be byte-identical at shards 1 and 4.
  const RunResult s1 = run_once("gate shards=1", exp::Placement::kPacked, true, 1);
  const RunResult s4 = run_once("gate shards=4", exp::Placement::kPacked, true, 4);
  if (!s1.same_results(s4)) {
    std::cerr << "FAIL: packed live-migration run differs between shards=1 and shards=4\n";
    return 1;
  }
  if (!s1.same_results(results[3])) {
    std::cerr << "FAIL: env-sharded packed live-migration run differs from explicit shards\n";
    return 1;
  }

  exp::Table t({"configuration", "jobs done", "JCT sum s", "migr started", "migr done",
                "final sim s"});
  for (const RunResult& r : results) {
    t.add_row(r.label,
              {static_cast<double>(r.completed), r.jct_sum,
               static_cast<double>(r.migrations_started),
               static_cast<double>(r.migrations_completed), r.final_time_s},
              2);
  }
  t.print(std::cout);

  const double packed_cost = results[3].jct_sum - results[2].jct_sum;
  std::cout << "\nescalation under packed placement moved "
            << results[2].migrations_completed << " VMs; the live model charges "
            << packed_cost << " s of extra JCT over instantaneous handoffs\n"
            << "shard determinism gate: pass (shards 1 == 4, env == explicit)\n";

  std::ofstream json("BENCH_migrate.json");
  json << "{\n"
       << "  \"topology\": {\"hosts\": " << kHosts << ", \"workers\": " << kWorkers
       << ", \"rival_vms\": 2},\n"
       << "  \"hw_context\": " << bench::hw_context_json(results.back().shards) << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"configuration\": \"" << r.label << "\", \"wall_s\": " << r.wall_s
         << ", \"jct_sum_s\": " << r.jct_sum << ", \"jobs_completed\": " << r.completed
         << ", \"migrations_completed\": " << r.migrations_completed << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"packed_live_minus_instant_jct_s\": " << packed_cost << ",\n"
       << "  \"shard_determinism_identical\": true\n"
       << "}\n";
  std::cout << "\nwrote BENCH_migrate.json\n";
  return 0;
}
