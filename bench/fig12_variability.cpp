// Figure 12 — Performance variability across repeated executions.
//
// A MapReduce terasort (50 tasks) and a Spark logistic regression (50 tasks
// per stage) run 30 times each on the 15-host cluster; on every repetition
// the fio/STREAM antagonist VMs land on different random hosts. Reported:
// box statistics of the normalized JCT under LATE, Dolly-4, and PerfCloud.
// Expected shape: PerfCloud's median and spread are the smallest, because
// its mitigation does not depend on where the antagonists happen to land —
// unlike LATE/Dolly, whose duplicate work can itself hit contended hosts.
#include <array>
#include <functional>
#include <iostream>

#include "baselines/dolly.hpp"
#include "baselines/late.hpp"
#include "baselines/scheme.hpp"
#include "common.hpp"
#include "exp/parallel_runner.hpp"
#include "exp/report.hpp"
#include "sim/stats.hpp"

using namespace perfcloud;

namespace {

constexpr int kRepetitions = 30;

double run_once(base::Scheme scheme, const wl::JobSpec& job, std::uint64_t seed) {
  exp::Cluster c = bench::large_scale_cluster(seed);

  // Random antagonist placement, fresh per repetition.
  sim::Rng rng(seed * 977 + 13);
  for (int i = 0; i < 12; ++i) {
    const auto host_idx =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<std::int64_t>(c.hosts.size()) - 1));
    if (i % 2 == 0) {
      exp::add_fio(c, c.hosts[host_idx], wl::FioRandomRead::Params{.start_s = rng.uniform(0.0, 20.0)});
    } else {
      exp::add_stream(c, c.hosts[host_idx],
                      wl::StreamBenchmark::Params{.threads = 16, .start_s = rng.uniform(0.0, 20.0)});
    }
  }

  if (scheme == base::Scheme::kLate) {
    c.framework->set_speculator(std::make_unique<base::LateSpeculator>(
        base::LateSpeculator::Params{.min_runtime_s = 10.0}, 150 * 2));
  }
  if (scheme == base::Scheme::kPerfCloud) {
    core::PerfCloudConfig cfg;
    cfg.monitor_series_capacity = cfg.correlation_window;  // flat monitor memory
    exp::enable_perfcloud(c, cfg);
  }

  if (base::dolly_clones(scheme) > 1) {
    const auto ids = c.framework->submit_cloned(job, base::dolly_clones(scheme));
    exp::run_until_done(c, 36000.0);
    return c.framework->group_jct(c.framework->find_job(ids[0])->clone_group);
  }
  return exp::run_job(c, job);
}

constexpr std::array<base::Scheme, 3> kSchemes = {base::Scheme::kLate, base::Scheme::kDolly2,
                                                  base::Scheme::kPerfCloud};

/// JCTs for one workload, flattened as [scheme][repetition], preceded by the
/// clean baseline — the unit the parallel runner hands back in order.
void report(const std::string& figure, const wl::JobSpec& job, double clean_jct,
            const std::vector<double>& jcts) {
  exp::print_banner(std::cout, figure,
                    job.name + " x" + std::to_string(kRepetitions) +
                        " with random antagonist placement: normalized JCT box stats");
  exp::Table t({"scheme", "min", "q1", "median", "q3", "max", "spread (q3-q1)"});
  for (std::size_t si = 0; si < kSchemes.size(); ++si) {
    std::vector<double> norm;
    for (int rep = 0; rep < kRepetitions; ++rep) {
      norm.push_back(jcts[si * kRepetitions + static_cast<std::size_t>(rep)] / clean_jct);
    }
    const sim::BoxStats b = sim::box_stats_of(norm);
    t.add_row(base::to_string(kSchemes[si]), {b.min, b.q1, b.median, b.q3, b.max, b.q3 - b.q1}, 2);
  }
  t.print(std::cout);
}

double clean_jct_of(const wl::JobSpec& job) {
  exp::Cluster c = bench::large_scale_cluster(555);
  return exp::run_job(c, job);
}

}  // namespace

int main() {
  const exp::ParallelRunner pool;
  std::cout << "Running 2 workloads x 3 schemes x " << kRepetitions
            << " repetitions on the 15-host cluster; this takes a little while...\n";
  std::cerr << "[fig12] running on " << pool.threads() << " thread(s)\n";

  const wl::JobSpec terasort = wl::make_terasort(50, 50);
  const wl::JobSpec logreg = wl::make_spark_logreg(50, 8);

  // Every (workload, scheme, repetition) run — and the two clean baselines —
  // is an independent cluster, so all 182 go through the pool at once.
  std::vector<std::function<double()>> tasks;
  tasks.emplace_back([&] { return clean_jct_of(terasort); });
  tasks.emplace_back([&] { return clean_jct_of(logreg); });
  for (const wl::JobSpec* job : {&terasort, &logreg}) {
    for (const base::Scheme s : kSchemes) {
      for (int rep = 0; rep < kRepetitions; ++rep) {
        tasks.emplace_back(
            [s, job, rep] { return run_once(s, *job, 1000 + static_cast<std::uint64_t>(rep)); });
      }
    }
  }
  const std::vector<double> results = pool.run(tasks);

  const std::size_t per_workload = kSchemes.size() * kRepetitions;
  report("Fig 12(a)", terasort, results[0],
         {results.begin() + 2, results.begin() + 2 + static_cast<std::ptrdiff_t>(per_workload)});
  report("Fig 12(b)", logreg, results[1],
         {results.begin() + 2 + static_cast<std::ptrdiff_t>(per_workload), results.end()});

  std::cout << "\nPaper shape: PerfCloud shows the lowest median and the tightest\n"
               "spread; LATE and Dolly vary with the luck of antagonist placement.\n";
  return 0;
}
