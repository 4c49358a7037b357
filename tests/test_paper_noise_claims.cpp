// The paper's jitter-driven claims (Figs 2, 3, 4 and 5c) as assertions over a
// fixed seed panel, so that a change to the noise process is judged against
// the claim's distribution, not against one noise realization.
//
// The panel is seeds 1–8, fixed up front rather than chosen by outcome. The
// rule for each claim:
//  - assert it on EVERY panel seed only if it held on all of seeds 1–20 of
//    the model this suite was written against, with margin (the observed
//    20-seed extreme is quoted beside each such assertion);
//  - otherwise assert it on the panel median, or pin it as a known
//    deviation from the paper, quoting the 20-seed rate it was written
//    against.
// Never tune the panel to make an assertion pass. If a bit-changing model
// change breaks a per-seed assertion, the claim's distribution moved: measure
// it over seeds 1–20 before touching anything here.
//
// Scenarios mirror the benches: the §II motivation cluster (6 worker VMs on
// one host), 20-task jobs for the signal figures (fig03/fig04), the default
// 10-task jobs for Fig 2 (fig02) and terasort 30+30 for Fig 5 (fig05).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "exp/cluster.hpp"
#include "sim/correlation.hpp"
#include "sim/stats.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

constexpr std::uint64_t kFirstSeed = 1;
constexpr std::uint64_t kLastSeed = 8;

const core::PerfCloudConfig kCfg{};
const double kHio = kCfg.io_deviation_threshold;    // 10
const double kHcpi = kCfg.cpi_deviation_threshold;  // 1

const std::vector<std::string> kMapReduce = {"terasort", "wordcount", "inverted-index"};
const std::vector<std::string> kSpark = {"pagerank", "logreg", "svm"};

exp::Cluster motivation_cluster(std::uint64_t seed) {
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = seed;
  return exp::make_cluster(p);
}

/// Antagonist present for the whole run, or none.
enum class Neighbor { kNone, kFio, kStream16 };

/// Peak of the victim app's io (or CPI) deviation signal, as a
/// monitoring-only node manager records it (fig03 / fig04).
double peak_signal(const std::string& benchmark, Neighbor neighbor, bool cpi,
                   std::uint64_t seed) {
  exp::Cluster c = motivation_cluster(seed);
  if (neighbor == Neighbor::kFio) exp::add_fio(c, "host-0");
  if (neighbor == Neighbor::kStream16) {
    exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
  }
  exp::enable_perfcloud(c, kCfg, /*control=*/false);
  exp::run_job(c, wl::make_benchmark(benchmark, 20));
  const core::NodeManager& nm = c.node_manager(0);
  return nm.deviation_signal(cpi ? core::kCpu : core::kIo, "hadoop").peak();
}

double io_peak(const std::string& b, Neighbor n, std::uint64_t seed) {
  return peak_signal(b, n, /*cpi=*/false, seed);
}
double cpi_peak(const std::string& b, Neighbor n, std::uint64_t seed) {
  return peak_signal(b, n, /*cpi=*/true, seed);
}

/// `f(seed)` over the panel.
std::vector<double> over_panel(const std::function<double(std::uint64_t)>& f) {
  std::vector<double> out;
  for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) out.push_back(f(seed));
  return out;
}

double median(const std::vector<double>& xs) { return sim::percentile_of(xs, 0.5); }

// --- Fig 3: the iowait-ratio deviation as the I/O signal ---------------------

TEST(PaperIoSignal, FioPushesEveryBenchmarkAboveThresholdOnEverySeed) {
  // 20-seed minimum with fio over all six benchmarks: 32.8 (3.3x H).
  for (const std::string& b : wl::benchmark_names()) {
    for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      EXPECT_GT(io_peak(b, Neighbor::kFio, seed), kHio) << b << " seed " << seed;
    }
  }
}

TEST(PaperIoSignal, FioRaisesThePeakSeveralFoldOnEverySeed) {
  // The paper reports ~8.2x for terasort. 20-seed minimum of the per-seed
  // ratio over all six benchmarks: 4.2.
  for (const std::string& b : wl::benchmark_names()) {
    for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      const double alone = io_peak(b, Neighbor::kNone, seed);
      EXPECT_GT(io_peak(b, Neighbor::kFio, seed), 3.0 * alone) << b << " seed " << seed;
    }
  }
}

TEST(PaperIoSignal, AloneMedianStaysBelowThreshold) {
  // Not per seed: alone, the peak stayed below H on 20/20 seeds for five
  // benchmarks but with as little as 1% margin (pagerank 9.86), and on 17/20
  // for terasort (max 12.1). The panel median is the claim's robust form
  // (20-seed medians 4.8–7.3).
  for (const std::string& b : wl::benchmark_names()) {
    const std::vector<double> alone =
        over_panel([&](std::uint64_t s) { return io_peak(b, Neighbor::kNone, s); });
    EXPECT_LT(median(alone), kHio) << b;
  }
}

// --- Fig 4: the CPI deviation as the processor signal ------------------------

TEST(PaperCpiSignal, MapReduceAloneStaysBelowThresholdOnEverySeed) {
  // 20-seed maximum over the three MapReduce benchmarks: 0.36.
  for (const std::string& b : kMapReduce) {
    for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      EXPECT_LT(cpi_peak(b, Neighbor::kNone, seed), kHcpi) << b << " seed " << seed;
    }
  }
}

TEST(PaperCpiSignal, SparkAloneMedianStaysBelowThreshold) {
  // Not per seed: logreg and svm crossed H alone on 2/20 seeds each (max
  // 1.52); 20-seed medians 0.43–0.49.
  for (const std::string& b : kSpark) {
    const std::vector<double> alone =
        over_panel([&](std::uint64_t s) { return cpi_peak(b, Neighbor::kNone, s); });
    EXPECT_LT(median(alone), kHcpi) << b;
  }
}

TEST(PaperCpiSignal, StreamPushesSparkAboveThresholdOnEverySeed) {
  // 20-seed minima with STREAM-16: pagerank 1.21, logreg 1.19, svm 1.23.
  for (const std::string& b : kSpark) {
    for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      EXPECT_GT(cpi_peak(b, Neighbor::kStream16, seed), kHcpi) << b << " seed " << seed;
    }
  }
}

TEST(PaperCpiSignal, StreamRaisesThePeakOnEverySeed) {
  // 20-seed minimum of the per-seed STREAM/alone ratio over all six: 2.5.
  for (const std::string& b : wl::benchmark_names()) {
    for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
      const double alone = cpi_peak(b, Neighbor::kNone, seed);
      EXPECT_GT(cpi_peak(b, Neighbor::kStream16, seed), 1.5 * alone) << b << " seed " << seed;
    }
  }
}

TEST(PaperCpiSignal, TerasortStreamMedianIsAboveThreshold) {
  // Not per seed: terasort crossed H with STREAM on 15/20 seeds (20-seed
  // median 1.47).
  const std::vector<double> with_stream =
      over_panel([](std::uint64_t s) { return cpi_peak("terasort", Neighbor::kStream16, s); });
  EXPECT_GT(median(with_stream), kHcpi);
}

TEST(PaperCpiSignal, KnownDeviationWordcountAndInvertedIndexStayBelowThresholdUnderStream) {
  // Deviation from the paper, which has every benchmark far above H with
  // STREAM-16. The model's wordcount crossed on 6/20 seeds (20-seed median
  // 0.81) and inverted-index on 9/20 (median 0.90): STREAM lifts their CPI
  // spread well past the alone level (~0.12) but mostly not past H. Pinned
  // both ways: a model change that fixes the deviation fails the first
  // assertion, one that flattens the signal fails the second.
  for (const char* b : {"wordcount", "inverted-index"}) {
    const std::vector<double> with_stream =
        over_panel([&](std::uint64_t s) { return cpi_peak(b, Neighbor::kStream16, s); });
    EXPECT_LT(median(with_stream), kHcpi) << b;
    EXPECT_GT(median(with_stream), 0.5) << b;
  }
}

// --- Fig 2: degradation from a colocated STREAM VM ---------------------------

double stream_normalized_jct(const std::string& benchmark, std::uint64_t seed) {
  const wl::JobSpec job = wl::make_benchmark(benchmark, 10);
  exp::Cluster alone = motivation_cluster(seed);
  const double base = exp::run_job(alone, job);
  exp::Cluster c = motivation_cluster(seed);
  exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
  return exp::run_job(c, job) / base;
}

TEST(PaperFig2, SparkDegradesMoreThanMapReduceInTheMedian) {
  // Not per seed: terasort's normalized JCT dipped below 1 on one seed of
  // 20. 20-seed medians: MapReduce 1.06–1.18, Spark 1.40–1.59.
  double worst_spark = 1.0e9;
  double best_mr = 0.0;
  for (const std::string& b : wl::benchmark_names()) {
    const std::vector<double> norm =
        over_panel([&](std::uint64_t s) { return stream_normalized_jct(b, s); });
    const double m = median(norm);
    EXPECT_GE(m, 1.0) << b << " must not speed up next to STREAM";
    const bool spark = std::find(kSpark.begin(), kSpark.end(), b) != kSpark.end();
    if (spark) {
      worst_spark = std::min(worst_spark, m);
    } else {
      best_mr = std::max(best_mr, m);
    }
  }
  EXPECT_GT(worst_spark, best_mr);
}

// --- Fig 5(c): the I/O antagonist correlates at dataset size 3 ---------------

struct Fig5Correlations {
  double fio = 0.0;
  double oltp = 0.0;
  double cpu = 0.0;
};

/// fig05's setup: Pearson correlation of each suspect's I/O throughput with
/// the victim signal over the last 3 samples, at the detection instant (the
/// first sample after fio arrives where the deviation crosses H).
Fig5Correlations fig5_at_three_samples(std::uint64_t seed) {
  exp::Cluster c = motivation_cluster(seed);
  const int oltp = exp::add_oltp(c, "host-0", wl::SysbenchOltp::Params{.start_s = 10.0});
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 30.0});
  const int cpu = exp::add_sysbench_cpu(c, "host-0");
  exp::enable_perfcloud(c, kCfg, /*control=*/false);
  exp::run_job(c, wl::make_terasort(30, 30));

  core::NodeManager& nm = c.node_manager(0);
  const sim::TimeSeries& victim = nm.deviation_signal(core::kIo, "hadoop");
  sim::TimeSeries online;
  for (std::size_t i = 0; i < victim.size(); ++i) {
    online.add(victim.time(i), victim.value(i));
    if (victim.time(i).seconds() > 30.0 && victim.value(i) > kHio) break;
  }
  const auto corr = [&](int vm) {
    return sim::pearson_missing_as_zero(online, nm.monitor().suspect_series(core::kIo, vm), 3);
  };
  return {corr(fio), corr(oltp), corr(cpu)};
}

TEST(PaperFig5, FioCorrelatesAtThreeSamplesAndBystandersDoNotOnEverySeed) {
  // 20-seed extremes at n = 3: fio min 0.988; oltp max -0.75 (its
  // throughput falls as the deviation rises); cpu 0.
  const double h = kCfg.correlation_threshold;
  for (std::uint64_t seed = kFirstSeed; seed <= kLastSeed; ++seed) {
    const Fig5Correlations r = fig5_at_three_samples(seed);
    EXPECT_GT(r.fio, h) << "seed " << seed;
    EXPECT_LT(r.oltp, h) << "seed " << seed;
    EXPECT_LT(r.cpu, h) << "seed " << seed;
  }
}

}  // namespace
}  // namespace perfcloud
