// Migration-policy microbenchmark: the same interference scenario with the
// policy off (throttling only), with first-fit destination choice, and with
// the default complementary (VUPIC-style) scoring. Packed placement plus a
// deliberately toothless throttle floor (min_cap_fraction = 0.9) means
// local control cannot defend the victim, so the runs isolate what the
// policy layer itself buys: the off run keeps both antagonists on the
// victim's host forever, the policy runs escalate and move them — and the
// two scorers differ in WHERE, which the victim app's job completion times
// then price.
//
// Everything printed to STDOUT is simulation output and therefore
// deterministic: scripts/check.sh runs this binary under PERFCLOUD_THREADS=1
// and =4 (the reported runs leave ClusterParams::shards = 0, so the
// override sets their shard count) and diffs the two stdouts byte for byte.
// Wall-clock timings go only to BENCH_policy.json. An internal gate
// additionally re-runs the scored configuration at explicit shards 1 and 4
// and hard-fails on any fingerprint mismatch. One caveat for absolute wall numbers: CI runs this
// on a 1-core box, where sharding only adds coordination cost.
#include <chrono>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/report.hpp"
#include "hw_context.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/benchmarks.hpp"

using namespace perfcloud;

namespace {

constexpr std::uint64_t kSeed = 23;
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
  long migrations_completed = 0;
  long policy_triggered = 0;
  long policy_migrated = 0;
  long policy_suppressed = 0;
  std::string antagonist_hosts;  // final placement of the two fio VMs

  [[nodiscard]] bool same_results(const RunResult& o) const {
    return final_time_s == o.final_time_s && jct_sum == o.jct_sum && completed == o.completed &&
           migrations_completed == o.migrations_completed &&
           policy_triggered == o.policy_triggered && policy_migrated == o.policy_migrated &&
           policy_suppressed == o.policy_suppressed && antagonist_hosts == o.antagonist_hosts;
  }
};

enum class Mode { kOff, kFirstFit, kScored };

RunResult run_once(const std::string& label, Mode mode, unsigned shards) {
  exp::ClusterParams p;
  p.hosts = kHosts;
  p.workers = kWorkers;
  p.seed = kSeed;
  p.shards = shards;  // 0 = the engine's own count (the reported runs)
  p.placement = exp::Placement::kPacked;  // all workers (the victim) on host-0
  p.migration = {.bandwidth_bps = 1.0e9, .downtime_s = 0.25};
  if (mode != Mode::kOff) {
    policy::PolicyParams pol;
    pol.floor_windows = 2;
    pol.dwell_min_s = 0.0;
    pol.host_cooldown_s = 0.0;
    pol.max_in_flight = 4;
    pol.scoring = mode == Mode::kFirstFit ? policy::Scoring::kFirstFit
                                          : policy::Scoring::kComplementary;
    p.policy = pol;
  }

  const double t0 = now_seconds();
  exp::Cluster c = exp::make_cluster(p);
  // Two duty-cycled disk antagonists on the victim's host (different
  // periods/phases so both stay individually correlatable), plus background
  // load elsewhere that the scorers must price: host-1 is disk-busy, host-2
  // CPU-busy, host-3 idle. First-fit dumps both antagonists on the already
  // disk-saturated host-1; complementary scoring steers them toward the
  // CPU-busy and idle hosts.
  std::vector<int> antagonists;
  antagonists.push_back(exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 30.0}));
  antagonists.push_back(exp::add_fio(
      c, "host-0", wl::FioRandomRead::Params{.duration_s = 10000.0, .start_s = 45.0,
                                             .duty_period_s = 17.0}));
  exp::add_dd_writer(c, "host-1",
                     wl::DdSequentialWriter::Params{.total_bytes = 1.0e12,
                                                    .target_rate = 500.0e6});
  exp::add_sysbench_cpu(c, "host-2",
                        wl::SysbenchCpu::Params{.threads = 8, .total_instructions = 1.0e15});

  core::PerfCloudConfig cfg;
  cfg.min_cap_fraction = 0.9;  // toothless throttle: only migration can help
  exp::enable_perfcloud(c, cfg);

  const std::vector<std::pair<std::string, double>> submissions = {
      {"terasort", 0.0}, {"wordcount", 150.0}, {"kmeans", 300.0}};
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
  r.migrations_completed = c.cloud->migrations_completed();
  if (c.policy != nullptr) {
    r.policy_triggered = c.policy->triggered();
    r.policy_migrated = c.policy->migrated();
    r.policy_suppressed = c.policy->suppressed_dwell() + c.policy->suppressed_cooldown() +
                          c.policy->suppressed_budget() + c.policy->suppressed_blacklist();
  }
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    if (job != nullptr && job->completed()) {
      r.jct_sum += job->jct();
      ++r.completed;
    }
  }
  for (const int vm : antagonists) {
    for (const cloud::VmRecord& rec : c.cloud->all_vms()) {
      if (rec.id != vm) continue;
      if (!r.antagonist_hosts.empty()) r.antagonist_hosts += " ";
      r.antagonist_hosts += rec.host;
    }
  }
  return r;
}

}  // namespace

int main() {
  std::cout << "micro_policy: " << kWorkers << " workers packed on host-0 of " << kHosts
            << " hosts, 2 fio antagonists, toothless throttle (floor 0.9)\n\n";

  std::vector<RunResult> results;
  results.push_back(run_once("policy off (throttle only)", Mode::kOff, 0));
  results.push_back(run_once("policy first-fit", Mode::kFirstFit, 0));
  results.push_back(run_once("policy complementary", Mode::kScored, 0));

  // Internal determinism gate: the scored configuration (cluster-wide folds
  // plus live migrations in flight) must be byte-identical at shards 1 and 4.
  const RunResult s1 = run_once("gate shards=1", Mode::kScored, 1);
  const RunResult s4 = run_once("gate shards=4", Mode::kScored, 4);
  if (!s1.same_results(s4)) {
    std::cerr << "FAIL: scored policy run differs between shards=1 and shards=4\n";
    return 1;
  }
  if (!s1.same_results(results[2])) {
    std::cerr << "FAIL: env-sharded scored policy run differs from explicit shards\n";
    return 1;
  }

  exp::Table t({"configuration", "jobs done", "JCT sum s", "migr done", "pol trig",
                "pol moved", "pol suppr", "final sim s"});
  for (const RunResult& r : results) {
    t.add_row(r.label,
              {static_cast<double>(r.completed), r.jct_sum,
               static_cast<double>(r.migrations_completed),
               static_cast<double>(r.policy_triggered),
               static_cast<double>(r.policy_migrated),
               static_cast<double>(r.policy_suppressed), r.final_time_s},
              2);
  }
  t.print(std::cout);

  // The victim's JCT only prices getting the antagonists OFF host-0; where
  // they land is the scorers' difference, so print the final placements.
  std::cout << "\n";
  for (const RunResult& r : results) {
    std::cout << "antagonists end on: [" << r.antagonist_hosts << "]  (" << r.label << ")\n";
  }
  const double policy_gain = results[0].jct_sum - results[2].jct_sum;
  std::cout << "\nescalating past the exhausted throttle saves " << policy_gain
            << " s of summed JCT vs throttling alone; first-fit dumps the antagonists on "
               "the disk-saturated host-1, complementary scoring steers them to the "
               "CPU-busy/idle hosts\n"
            << "shard determinism gate: pass (shards 1 == 4, env == explicit)\n";

  std::ofstream json("BENCH_policy.json");
  json << "{\n"
       << "  \"topology\": {\"hosts\": " << kHosts << ", \"workers\": " << kWorkers
       << ", \"antagonists\": 4},\n"
       << "  \"hw_context\": " << bench::hw_context_json(results.back().shards) << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"configuration\": \"" << r.label << "\", \"wall_s\": " << r.wall_s
         << ", \"jct_sum_s\": " << r.jct_sum << ", \"jobs_completed\": " << r.completed
         << ", \"migrations_completed\": " << r.migrations_completed
         << ", \"policy_triggered\": " << r.policy_triggered
         << ", \"policy_migrated\": " << r.policy_migrated
         << ", \"antagonist_hosts\": \"" << r.antagonist_hosts << "\"}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"policy_vs_throttle_only_jct_s\": " << policy_gain << ",\n"
       << "  \"shard_determinism_identical\": true\n"
       << "}\n";
  std::cout << "\nwrote BENCH_policy.json\n";
  return 0;
}
