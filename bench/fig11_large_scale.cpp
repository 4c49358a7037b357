// Figure 11 — Large-scale evaluation on the 152-node / 15-host cluster.
//
// Two mixes of 100 MapReduce and 100 Spark jobs (80 % small, §IV-C) run
// under LATE, Dolly-2/4/6, and PerfCloud while fio and STREAM antagonist
// VMs come and go on random hosts. Reported per scheme:
//  (a) breakdown of MapReduce job degradation (vs a clean run of the same
//      mix) into < 10 %, 10-30 %, > 30 % buckets;
//  (b) the same for Spark jobs;
//  (c) resource-utilization efficiency (successful task time / all task
//      time including killed clones and speculative copies).
#include <functional>
#include <iostream>
#include <map>

#include "baselines/dolly.hpp"
#include "baselines/late.hpp"
#include "baselines/scheme.hpp"
#include "common.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/report.hpp"
#include "sim/stats.hpp"
#include "workloads/mix.hpp"

using namespace perfcloud;

namespace {

constexpr std::uint64_t kSeed = 101;
constexpr int kJobsPerMix = 100;

std::vector<wl::MixEntry> make_mix(bool spark) {
  sim::Rng rng(kSeed + (spark ? 1 : 0));
  wl::MixParams p;
  p.num_jobs = kJobsPerMix;
  p.mean_interarrival_s = 60.0;
  return spark ? wl::make_spark_mix(p, rng) : wl::make_mapreduce_mix(p, rng);
}

/// Boot antagonist VMs with random placement and random activity episodes.
/// The paper re-randomizes antagonist placement "on each job execution"
/// (§IV-C); the effective picture is a population of antagonist tenants that
/// are long-lived relative to any single job, arriving and leaving on their
/// own schedule.
void add_antagonists(exp::Cluster& c, std::uint64_t seed) {
  // Placement draws come from their own stream: host selection shares no
  // state with the episode-schedule draws below, so changing the host count
  // (or any sharding of the hosts) can never perturb when antagonists run,
  // and vice versa.
  sim::Rng rng(seed);
  sim::Rng placement_rng = rng.split(0x9fac);
  for (int i = 0; i < 40; ++i) {
    const auto host_idx = static_cast<std::size_t>(
        placement_rng.uniform_int(0, static_cast<std::int64_t>(c.hosts.size()) - 1));
    const std::string& host = c.hosts[host_idx];
    const double start = rng.uniform(0.0, 5600.0);
    const double duration = rng.uniform(240.0, 600.0);
    if (i % 2 == 0) {
      exp::add_fio(c, host,
                   wl::FioRandomRead::Params{.duration_s = duration, .start_s = start});
    } else {
      exp::add_stream(c, host,
                      wl::StreamBenchmark::Params{.threads = 16, .duration_s = duration,
                                                  .start_s = start});
    }
  }
}

struct SchemeResult {
  std::vector<double> jct;  // per logical job, submission order
  double efficiency = 1.0;
};

SchemeResult run_mix(base::Scheme scheme, bool spark, bool clean) {
  exp::Cluster c = bench::large_scale_cluster(kSeed + (spark ? 7 : 0));
  if (!clean) add_antagonists(c, kSeed + 33);

  const int clones = base::dolly_clones(scheme);
  if (scheme == base::Scheme::kLate) {
    const int total_slots = 150 * 2;
    c.framework->set_speculator(std::make_unique<base::LateSpeculator>(
        base::LateSpeculator::Params{.min_runtime_s = 10.0}, total_slots));
  }
  if (scheme == base::Scheme::kPerfCloud && !clean) {
    core::PerfCloudConfig cfg;
    // Identification never looks past its correlation window, so bounding
    // the monitor's suspect series there keeps long-run memory flat without
    // changing any decision.
    cfg.monitor_series_capacity = cfg.correlation_window;
    exp::enable_perfcloud(c, cfg);
  }

  // Schedule job submissions at the mix arrival times. Dolly clones only
  // small jobs (its design point: full cloning is affordable for the ~80 %
  // of jobs with few tasks); large jobs run a single copy.
  const std::vector<wl::MixEntry> mix = make_mix(spark);
  std::vector<std::vector<wl::JobId>> submitted(mix.size());
  for (std::size_t i = 0; i < mix.size(); ++i) {
    const wl::MixEntry& e = mix[i];
    const bool small = e.spec.stages[0].num_tasks < 10;
    const int n = (clones > 1 && small) ? clones : 1;
    c.engine->at(sim::SimTime(e.submit_time_s), [&c, &submitted, &e, i, n](sim::SimTime) {
      if (n > 1) {
        submitted[i] = c.framework->submit_cloned(e.spec, n);
      } else {
        submitted[i] = {c.framework->submit(e.spec)};
      }
    });
  }

  c.engine->run_while(
      [&] {
        return submitted.back().empty() || !c.framework->all_done();
      },
      sim::SimTime(40000.0));

  SchemeResult r;
  r.efficiency = c.framework->utilization_efficiency();
  for (std::size_t i = 0; i < mix.size(); ++i) {
    // A cloned job's JCT is its *fastest* completed clone — first finisher
    // wins by Dolly's design; the losers are killed or ignored.
    double jct = -1.0;
    for (const wl::JobId id : submitted[i]) {
      const wl::Job* job = c.framework->find_job(id);
      if (job != nullptr && job->completed() && (jct < 0.0 || job->jct() < jct)) {
        jct = job->jct();
      }
    }
    r.jct.push_back(jct);
  }
  return r;
}

void print_breakdown(const std::string& title, const std::vector<base::Scheme>& schemes,
                     const std::map<base::Scheme, SchemeResult>& results,
                     const SchemeResult& clean) {
  exp::print_banner(std::cout, title, "fraction of jobs per degradation bucket");
  exp::Table t({"scheme", "<10%", "10-30%", ">30%", "median degr %"});
  for (const base::Scheme s : schemes) {
    const SchemeResult& r = results.at(s);
    sim::Histogram bars({0.10, 0.30});
    std::vector<double> degr;
    for (std::size_t i = 0; i < r.jct.size(); ++i) {
      if (r.jct[i] < 0.0 || clean.jct[i] <= 0.0) continue;
      const double d = r.jct[i] / clean.jct[i] - 1.0;
      degr.push_back(d * 100.0);
      bars.add(d);
    }
    t.add_row(base::to_string(s),
              {bars.fraction(0), bars.fraction(1), bars.fraction(2), sim::percentile_of(degr, 0.5)},
              2);
  }
  t.print(std::cout);
}

}  // namespace

int main() {
  const std::vector<base::Scheme> schemes = {base::Scheme::kLate, base::Scheme::kDolly2,
                                             base::Scheme::kDolly4, base::Scheme::kDolly6,
                                             base::Scheme::kPerfCloud};

  const exp::ParallelRunner pool;
  std::cout << "Running the large-scale mixes (150 workers / 15 hosts, 100+100 jobs,\n"
               "5 schemes + 2 clean baselines); this takes a little while...\n";
  // Thread count to stderr so stdout stays byte-identical across
  // PERFCLOUD_THREADS settings.
  std::cerr << "[fig11] running on " << pool.threads() << " thread(s)\n";

  // Every run is a self-contained Cluster, so the 12 scheme x mix
  // combinations execute concurrently; results come back in submission
  // order, making the tables byte-identical across thread counts.
  std::vector<std::function<SchemeResult()>> tasks;
  tasks.emplace_back([] { return run_mix(base::Scheme::kDefault, /*spark=*/false, /*clean=*/true); });
  tasks.emplace_back([] { return run_mix(base::Scheme::kDefault, /*spark=*/true, /*clean=*/true); });
  for (const base::Scheme s : schemes) {
    tasks.emplace_back([s] { return run_mix(s, /*spark=*/false, /*clean=*/false); });
    tasks.emplace_back([s] { return run_mix(s, /*spark=*/true, /*clean=*/false); });
  }
  std::vector<SchemeResult> results = pool.run(tasks);

  const SchemeResult clean_mr = std::move(results[0]);
  const SchemeResult clean_sp = std::move(results[1]);
  std::map<base::Scheme, SchemeResult> mr;
  std::map<base::Scheme, SchemeResult> sp;
  for (std::size_t i = 0; i < schemes.size(); ++i) {
    mr.emplace(schemes[i], std::move(results[2 + 2 * i]));
    sp.emplace(schemes[i], std::move(results[2 + 2 * i + 1]));
  }

  print_breakdown("Fig 11(a) MapReduce mix", schemes, mr, clean_mr);
  print_breakdown("Fig 11(b) Spark mix", schemes, sp, clean_sp);

  exp::print_banner(std::cout, "Fig 11(c)", "resource utilization efficiency per scheme");
  exp::Table t({"scheme", "MapReduce mix", "Spark mix"});
  for (const base::Scheme s : schemes) {
    t.add_row(base::to_string(s), {mr.at(s).efficiency, sp.at(s).efficiency}, 3);
  }
  t.print(std::cout);
  std::cout << "\nPaper shape: Dolly beats LATE, and more clones help the breakdown but\n"
               "drain utilization efficiency; PerfCloud gives the best degradation\n"
               "profile without sacrificing efficiency (it kills nothing).\n";
  return 0;
}
