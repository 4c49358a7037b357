// System-level property tests of the full PerfCloud pipeline across random
// scenario draws: safety (never touch high-priority VMs), effectiveness
// (never make things much worse), and cleanup (no caps left behind).
#include <gtest/gtest.h>

#include "exp/cluster.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud::core {
namespace {

struct Scenario {
  exp::Cluster cluster;
  std::vector<int> antagonists;
};

Scenario random_scenario(std::uint64_t seed) {
  sim::Rng rng(seed * 2654435761ULL + 7);
  exp::ClusterParams p;
  p.workers = 4 + static_cast<int>(rng.uniform_int(0, 6));
  p.seed = seed;
  Scenario s{exp::make_cluster(p), {}};
  const int n_antagonists = static_cast<int>(rng.uniform_int(1, 3));
  for (int i = 0; i < n_antagonists; ++i) {
    const double start = rng.uniform(5.0, 25.0);
    switch (rng.uniform_int(0, 2)) {
      case 0:
        s.antagonists.push_back(
            exp::add_fio(s.cluster, "host-0", wl::FioRandomRead::Params{.start_s = start}));
        break;
      case 1:
        s.antagonists.push_back(exp::add_stream(
            s.cluster, "host-0",
            wl::StreamBenchmark::Params{.threads = 16, .start_s = start}));
        break;
      default:
        s.antagonists.push_back(
            exp::add_oltp(s.cluster, "host-0", wl::SysbenchOltp::Params{.start_s = start}));
        break;
    }
  }
  return s;
}

wl::JobSpec random_job(std::uint64_t seed) {
  sim::Rng rng(seed * 40503 + 1);
  const auto& names = wl::benchmark_names();
  const auto idx = static_cast<std::size_t>(
      rng.uniform_int(0, static_cast<std::int64_t>(names.size()) - 1));
  return wl::make_benchmark(names[idx], 6 + static_cast<int>(rng.uniform_int(0, 10)));
}

class PipelineProperties : public ::testing::TestWithParam<int> {};

TEST_P(PipelineProperties, HighPriorityVmsAreNeverCapped) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Scenario s = random_scenario(seed);
  exp::enable_perfcloud(s.cluster, PerfCloudConfig{});
  exp::run_job(s.cluster, random_job(seed));
  for (const int id : s.cluster.worker_vm_ids) {
    const virt::Cgroup& cg = s.cluster.vm(id).cgroup();
    EXPECT_EQ(cg.blkio_throttle_bps(), hw::kNoCap) << "worker VM " << id;
    EXPECT_EQ(cg.cpu_quota_cores(), hw::kNoCap) << "worker VM " << id;
    EXPECT_TRUE(s.cluster.node_manager(0).cap_series(kIo, id).empty());
    EXPECT_TRUE(s.cluster.node_manager(0).cap_series(kCpu, id).empty());
  }
}

TEST_P(PipelineProperties, PerfCloudNeverMuchWorseThanDefault) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  const wl::JobSpec job = random_job(seed);

  Scenario plain = random_scenario(seed);
  const double jct_default = exp::run_job(plain.cluster, job);

  Scenario guarded = random_scenario(seed);
  exp::enable_perfcloud(guarded.cluster, PerfCloudConfig{});
  const double jct_guarded = exp::run_job(guarded.cluster, job);

  // Control cannot be guaranteed to help every draw, but it must never be
  // a catastrophe: identical seeds, so any gap is the controller's doing.
  EXPECT_LE(jct_guarded, 1.15 * jct_default + 2.0)
      << "job " << job.name << " seed " << seed;
}

TEST_P(PipelineProperties, AllCapsEventuallyLifted) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Scenario s = random_scenario(seed);
  // Finite antagonists: everything is quiet at the end.
  exp::enable_perfcloud(s.cluster, PerfCloudConfig{});
  exp::run_job(s.cluster, random_job(seed));
  // Silence the antagonists and give the cubic time to probe and lift.
  for (const int id : s.antagonists) s.cluster.vm(id).detach();
  exp::run_for(s.cluster, 180.0);
  for (const int id : s.antagonists) {
    const virt::Cgroup& cg = s.cluster.vm(id).cgroup();
    EXPECT_EQ(cg.blkio_throttle_bps(), hw::kNoCap) << "antagonist VM " << id;
    EXPECT_EQ(cg.cpu_quota_cores(), hw::kNoCap) << "antagonist VM " << id;
  }
}

TEST_P(PipelineProperties, MonitorCountersAreMonotone) {
  const auto seed = static_cast<std::uint64_t>(GetParam());
  Scenario s = random_scenario(seed);
  s.cluster.framework->submit(random_job(seed));
  virt::CgroupStats prev{};
  const int vm = s.cluster.worker_vm_ids.front();
  for (int step = 0; step < 20; ++step) {
    exp::run_for(s.cluster, 2.0);
    const virt::CgroupStats& cur = s.cluster.vm(vm).cgroup().stats();
    EXPECT_GE(cur.io_wait_time_ms, prev.io_wait_time_ms);
    EXPECT_GE(cur.io_serviced_ops, prev.io_serviced_ops);
    EXPECT_GE(cur.io_service_bytes, prev.io_service_bytes);
    EXPECT_GE(cur.cycles, prev.cycles);
    EXPECT_GE(cur.instructions, prev.instructions);
    EXPECT_GE(cur.llc_misses, prev.llc_misses);
    EXPECT_GE(cur.cpu_time_s, prev.cpu_time_s);
    prev = cur;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomScenarios, PipelineProperties, ::testing::Range(1, 13));

}  // namespace
}  // namespace perfcloud::core
