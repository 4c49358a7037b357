// Cross-cutting integration tests: determinism, the paper's qualitative
// claims at small scale, and multi-host behaviour.
#include <gtest/gtest.h>

#include "baselines/late.hpp"
#include "exp/cluster.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

exp::Cluster cluster_with(std::uint64_t seed, int workers, int hosts = 1) {
  exp::ClusterParams p;
  p.workers = workers;
  p.hosts = hosts;
  p.seed = seed;
  return exp::make_cluster(p);
}

TEST(Integration, SameSeedSameResult) {
  auto run = [](std::uint64_t seed) {
    exp::Cluster c = cluster_with(seed, 6);
    exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 10.0});
    exp::enable_perfcloud(c, core::PerfCloudConfig{});
    return exp::run_job(c, wl::make_terasort(10, 10));
  };
  EXPECT_DOUBLE_EQ(run(99), run(99));
  // Different seeds will generally differ (jitter paths diverge).
  EXPECT_TRUE(true);
}

TEST(Integration, InterferenceDegradesAndPerfCloudRecovers) {
  // Long enough that the control loop (5 s sampling, >= 3 samples to
  // identify) has room to act within the job.
  const wl::JobSpec job = wl::make_terasort(20, 20);

  exp::Cluster alone = cluster_with(7, 6);
  const double jct_alone = exp::run_job(alone, job);

  exp::Cluster noisy = cluster_with(7, 6);
  exp::add_fio(noisy, "host-0", wl::FioRandomRead::Params{.start_s = 10.0});
  const double jct_noisy = exp::run_job(noisy, job);

  exp::Cluster guarded = cluster_with(7, 6);
  exp::add_fio(guarded, "host-0", wl::FioRandomRead::Params{.start_s = 10.0});
  exp::enable_perfcloud(guarded, core::PerfCloudConfig{});
  const double jct_guarded = exp::run_job(guarded, job);

  EXPECT_GT(jct_noisy, jct_alone);
  EXPECT_LT(jct_guarded, jct_noisy);
  EXPECT_GE(jct_guarded, 0.9 * jct_alone);  // not faster than uncontended
}

TEST(Integration, SparkSuffersMoreFromMemoryContention) {
  // Paper §III-A.2: Spark is hit harder than MapReduce by LLC/bandwidth
  // contention because it iterates over in-memory data.
  auto degradation = [](const wl::JobSpec& job, std::uint64_t seed) {
    exp::Cluster alone = cluster_with(seed, 6);
    const double base = exp::run_job(alone, job);
    exp::Cluster noisy = cluster_with(seed, 6);
    exp::add_stream(noisy, "host-0", wl::StreamBenchmark::Params{.threads = 16});
    return exp::run_job(noisy, job) / base;
  };
  const double spark = degradation(wl::make_spark_logreg(12, 6), 11);
  const double mapreduce = degradation(wl::make_wordcount(12, 6), 11);
  EXPECT_GT(spark, 1.1);
  EXPECT_GT(spark, mapreduce);
}

TEST(Integration, FioHurtsMapReduceMoreThanSysbenchCpuDoes) {
  const wl::JobSpec job = wl::make_terasort(10, 10);
  exp::Cluster alone = cluster_with(21, 6);
  const double base = exp::run_job(alone, job);

  exp::Cluster with_fio = cluster_with(21, 6);
  exp::add_fio(with_fio, "host-0");
  const double fio_jct = exp::run_job(with_fio, job);

  exp::Cluster with_cpu = cluster_with(21, 6);
  exp::add_sysbench_cpu(with_cpu, "host-0");
  const double cpu_jct = exp::run_job(with_cpu, job);

  EXPECT_GT(fio_jct / base, 1.2);
  EXPECT_LT(cpu_jct / base, 1.15);  // plenty of spare cores: no real harm
}

TEST(Integration, MultiHostClusterOnlyThrottlesAffectedHost) {
  exp::Cluster c = cluster_with(31, 8, /*hosts=*/2);
  const int fio = exp::add_fio(c, "host-1", wl::FioRandomRead::Params{.start_s = 10.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  exp::run_job(c, wl::make_terasort(16, 16));
  // Node manager 1 (host-1) saw the antagonist; node manager 0 did not.
  EXPECT_TRUE(c.node_manager(0).cap_series(core::kIo, fio).empty());
  EXPECT_FALSE(c.node_manager(1).cap_series(core::kIo, fio).empty());
}

TEST(Integration, ThrottledFioStillMakesProgress) {
  exp::Cluster c = cluster_with(41, 6);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 10.0});
  exp::enable_perfcloud(c, core::PerfCloudConfig{});
  exp::run_job(c, wl::make_terasort(12, 12));
  const auto* guest = dynamic_cast<const wl::FioRandomRead*>(c.vm(fio).guest());
  ASSERT_NE(guest, nullptr);
  EXPECT_GT(guest->achieved_iops(), 10.0);  // throttled, not strangled
}

TEST(Integration, LateHelpsAgainstAsymmetricSlowdown) {
  // With a straggler-inducing neighbour, LATE should beat doing nothing.
  auto run = [](bool late) {
    exp::Cluster c = cluster_with(51, 6);
    exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16});
    if (late) {
      c.framework->set_speculator(std::make_unique<base::LateSpeculator>(
          base::LateSpeculator::Params{.min_runtime_s = 5.0}, 12));
    }
    return exp::run_job(c, wl::make_spark_logreg(10, 6));
  };
  const double without = run(false);
  const double with_late = run(true);
  // LATE is not guaranteed to win every time, but it should not be a
  // catastrophe, and on this straggler-heavy scenario it usually helps.
  EXPECT_LT(with_late, 1.15 * without);
}

TEST(Integration, EngineTimeAdvancesThroughFullScenario) {
  exp::Cluster c = cluster_with(61, 4);
  c.framework->submit(wl::make_wordcount(4, 2));
  const sim::SimTime end = exp::run_until_done(c, 600.0);
  EXPECT_GT(end.seconds(), 1.0);
  EXPECT_LT(end.seconds(), 600.0);
}

}  // namespace
}  // namespace perfcloud
