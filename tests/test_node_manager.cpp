// End-to-end tests of Algorithm 1 on a small simulated host.
#include <gtest/gtest.h>

#include <functional>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "exp/cluster.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::core {
namespace {

exp::Cluster hadoop_cluster(std::uint64_t seed) {
  exp::ClusterParams p;
  p.workers = 6;
  p.seed = seed;
  return exp::make_cluster(p);
}

TEST(NodeManager, RejectsInvalidConfig) {
  exp::Cluster c = hadoop_cluster(11);
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const std::vector<std::pair<std::string, std::function<void(PerfCloudConfig&)>>> bad = {
      {"correlation_window 0", [](PerfCloudConfig& k) { k.correlation_window = 0; }},
      {"window below min samples", [](PerfCloudConfig& k) { k.correlation_window = 2; }},
      {"series capacity below window",
       [](PerfCloudConfig& k) { k.monitor_series_capacity = k.correlation_window - 1; }},
      {"series capacity 1", [](PerfCloudConfig& k) { k.monitor_series_capacity = 1; }},
      {"ewma_alpha 0", [](PerfCloudConfig& k) { k.ewma_alpha = 0.0; }},
      {"ewma_alpha above 1", [](PerfCloudConfig& k) { k.ewma_alpha = 1.5; }},
      {"ewma_alpha NaN", [](PerfCloudConfig& k) { k.ewma_alpha = kNaN; }},
      {"io threshold NaN", [](PerfCloudConfig& k) { k.io_deviation_threshold = kNaN; }},
      {"cpi threshold NaN", [](PerfCloudConfig& k) { k.cpi_deviation_threshold = kNaN; }},
      {"correlation threshold NaN", [](PerfCloudConfig& k) { k.correlation_threshold = kNaN; }},
      {"gamma 0", [](PerfCloudConfig& k) { k.gamma = 0.0; }},
      {"gamma negative", [](PerfCloudConfig& k) { k.gamma = -0.005; }},
      {"gamma infinite", [](PerfCloudConfig& k) { k.gamma = kInf; }},
      {"gamma NaN", [](PerfCloudConfig& k) { k.gamma = kNaN; }},
      {"beta 0", [](PerfCloudConfig& k) { k.beta = 0.0; }},
      {"beta above 1", [](PerfCloudConfig& k) { k.beta = 1.5; }},
      {"beta NaN", [](PerfCloudConfig& k) { k.beta = kNaN; }},
      {"min_cap_fraction negative", [](PerfCloudConfig& k) { k.min_cap_fraction = -0.1; }},
      {"min_cap_fraction above 1", [](PerfCloudConfig& k) { k.min_cap_fraction = 1.5; }},
      {"min_cap_fraction NaN", [](PerfCloudConfig& k) { k.min_cap_fraction = kNaN; }},
      {"cap_lift_fraction 1", [](PerfCloudConfig& k) { k.cap_lift_fraction = 1.0; }},
      {"cap_lift_fraction infinite", [](PerfCloudConfig& k) { k.cap_lift_fraction = kInf; }},
      {"cap_lift_fraction NaN", [](PerfCloudConfig& k) { k.cap_lift_fraction = kNaN; }},
      {"identification_memory_s negative",
       [](PerfCloudConfig& k) { k.identification_memory_s = -1.0; }},
      {"identification_memory_s NaN",
       [](PerfCloudConfig& k) { k.identification_memory_s = kNaN; }},
      {"min_usage_fraction negative", [](PerfCloudConfig& k) { k.min_usage_fraction = -0.1; }},
      {"min_usage_fraction above 1", [](PerfCloudConfig& k) { k.min_usage_fraction = 1.5; }},
      {"min_usage_fraction NaN", [](PerfCloudConfig& k) { k.min_usage_fraction = kNaN; }},
      {"min_ops_per_interval NaN", [](PerfCloudConfig& k) { k.min_ops_per_interval = kNaN; }},
      {"sample_interval_s 0", [](PerfCloudConfig& k) { k.sample_interval_s = 0.0; }},
      {"sample_interval_s infinite", [](PerfCloudConfig& k) { k.sample_interval_s = kInf; }},
      {"sample_interval_s NaN", [](PerfCloudConfig& k) { k.sample_interval_s = kNaN; }},
  };
  for (const auto& [name, mutate] : bad) {
    SCOPED_TRACE(name);
    PerfCloudConfig cfg;
    mutate(cfg);
    EXPECT_THROW(NodeManager(*c.cloud, "host-0", cfg), std::invalid_argument);
  }

  // The edges of each range are legal.
  PerfCloudConfig edges;
  edges.correlation_window = edges.min_correlation_samples;
  edges.monitor_series_capacity = edges.correlation_window;
  edges.ewma_alpha = 1.0;
  edges.beta = 1.0;
  // The ablation benches switch identification memory and the usage gate off.
  edges.identification_memory_s = 0.0;
  edges.min_usage_fraction = 0.0;
  for (const double floor : {0.0, 1.0}) {
    SCOPED_TRACE(floor);
    edges.min_cap_fraction = floor;
    EXPECT_NO_THROW(NodeManager(*c.cloud, "host-0", edges));
  }
  EXPECT_NO_THROW(NodeManager(*c.cloud, "host-0", PerfCloudConfig{}));
}

TEST(NodeManager, QuietClusterNeverTriggers) {
  exp::Cluster c = hadoop_cluster(11);
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_terasort(10, 10));
  exp::run_until_done(c, 600.0);

  NodeManager& nm = c.node_manager(0);
  const sim::TimeSeries& io_sig = nm.io_signal("hadoop");
  const sim::TimeSeries& cpi_sig = nm.cpi_signal("hadoop");
  ASSERT_GT(io_sig.size(), 3u);
  // Paper §III-A: deviations stay below the thresholds when running alone.
  EXPECT_LT(io_sig.peak(), 10.0);
  EXPECT_LT(cpi_sig.peak(), 1.0);
  // And nothing was throttled.
  for (const auto& vm : c.cloud->host("host-0").vms()) {
    EXPECT_EQ(vm->cgroup().blkio_throttle_bps(), hw::kNoCap);
    EXPECT_EQ(vm->cgroup().cpu_quota_cores(), hw::kNoCap);
  }
}

TEST(NodeManager, DetectsAndThrottlesIoAntagonist) {
  exp::Cluster c = hadoop_cluster(13);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_until_done(c, 600.0);

  NodeManager& nm = c.node_manager(0);
  EXPECT_GT(nm.io_signal("hadoop").peak(), 10.0);
  // fio was identified and its cap history shows a decrease below 1.
  const sim::TimeSeries& caps = nm.io_cap_series(fio);
  ASSERT_FALSE(caps.empty());
  double min_cap = 1e9;
  for (std::size_t i = 0; i < caps.size(); ++i) min_cap = std::min(min_cap, caps.value(i));
  EXPECT_LT(min_cap, 0.5);
}

TEST(NodeManager, ThrottlingImprovesJct) {
  // Long enough that identification (>= 3 samples after the fio VM starts)
  // leaves a meaningful throttled window within the job.
  const wl::JobSpec job = wl::make_terasort(24, 24);
  exp::Cluster base = hadoop_cluster(17);
  const double jct_alone = exp::run_job(base, job);

  exp::Cluster noisy = hadoop_cluster(17);
  exp::add_fio(noisy, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  const double jct_noisy = exp::run_job(noisy, job);

  exp::Cluster guarded = hadoop_cluster(17);
  exp::add_fio(guarded, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  exp::enable_perfcloud(guarded, PerfCloudConfig{});
  const double jct_guarded = exp::run_job(guarded, job);

  EXPECT_GT(jct_noisy, 1.3 * jct_alone);
  EXPECT_LT(jct_guarded, 0.80 * jct_noisy);
}

TEST(NodeManager, MonitoringOnlyModeNeverActuates) {
  exp::Cluster c = hadoop_cluster(19);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  exp::enable_perfcloud(c, PerfCloudConfig{}, /*control=*/false);
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_until_done(c, 600.0);

  NodeManager& nm = c.node_manager(0);
  EXPECT_GT(nm.io_signal("hadoop").peak(), 10.0);  // detection still works
  EXPECT_TRUE(nm.io_cap_series(fio).empty());      // but no control
  EXPECT_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), hw::kNoCap);
}

TEST(NodeManager, CpuAntagonistGetsCpuCapNotIoCap) {
  exp::Cluster c = hadoop_cluster(23);
  const int stream = exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 12.0});
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_spark_logreg(24, 10));
  exp::run_until_done(c, 600.0);

  NodeManager& nm = c.node_manager(0);
  EXPECT_GT(nm.cpi_signal("hadoop").peak(), 1.0);
  EXPECT_FALSE(nm.cpu_cap_series(stream).empty());
  EXPECT_TRUE(nm.io_cap_series(stream).empty());
}

TEST(NodeManager, InnocentBystanderNotThrottled) {
  exp::Cluster c = hadoop_cluster(29);
  exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  const int cpu_vm = exp::add_sysbench_cpu(c, "host-0");
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_until_done(c, 600.0);

  NodeManager& nm = c.node_manager(0);
  EXPECT_TRUE(nm.io_cap_series(cpu_vm).empty());
  EXPECT_TRUE(nm.cpu_cap_series(cpu_vm).empty());
}

TEST(NodeManager, CapLiftsAfterJobEnds) {
  exp::Cluster c = hadoop_cluster(31);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_until_done(c, 600.0);
  // After the job ends contention vanishes; give the cubic time to probe.
  exp::run_for(c, 120.0);
  EXPECT_EQ(c.vm(fio).cgroup().blkio_throttle_bps(), hw::kNoCap);
}

TEST(NodeManager, SuspectScoresExposeCorrelations) {
  exp::Cluster c = hadoop_cluster(37);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 12.0});
  exp::enable_perfcloud(c, PerfCloudConfig{});
  c.framework->submit(wl::make_terasort(12, 12));
  exp::run_for(c, 60.0);
  // fio appears in the score list every interval...
  bool found = false;
  for (const SuspectScore& s : c.node_manager(0).last_io_scores()) {
    found |= s.vm_id == fio;
  }
  EXPECT_TRUE(found);
  // ...and its correlation crossed the 0.8 threshold at some point (a
  // controller exists), even though throttling then flattens its signal.
  EXPECT_FALSE(c.node_manager(0).io_cap_series(fio).empty());
}

}  // namespace
}  // namespace perfcloud::core
