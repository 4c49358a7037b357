// The parallelism budget and its one override: PERFCLOUD_THREADS caps every
// top-level pool (an engine's shards, exp::ParallelRunner's threads), a
// garbage value fails loudly at Engine or runner construction instead of
// falling back silently (a typo degrading a CI run to sequential execution
// is exactly the failure mode that hides for months), and the retired
// PERFCLOUD_SHARDS is rejected rather than ignored. Without the override the
// engine works its shard count out at its first multi-task sweep, and a
// runner scenario's engine never opens a pool of its own.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <functional>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "exp/cluster.hpp"
#include "exp/parallel_runner.hpp"
#include "sim/engine.hpp"

namespace perfcloud::sim {
namespace {

/// Sets (or unsets) one environment variable for the test's scope and
/// restores the previous value on destruction — scripts/check.sh runs these
/// binaries with PERFCLOUD_THREADS already exported.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    if (const char* old = std::getenv(name)) saved_ = old;
    if (value != nullptr) {
      ::setenv(name, value, 1);
    } else {
      ::unsetenv(name);
    }
  }
  ~ScopedEnv() {
    if (saved_.has_value()) {
      ::setenv(name_.c_str(), saved_->c_str(), 1);
    } else {
      ::unsetenv(name_.c_str());
    }
  }

 private:
  std::string name_;
  std::optional<std::string> saved_;
};

/// Thread ids seen by sweep tasks, shared between shards.
struct ThreadLog {
  std::mutex mu;
  std::vector<std::thread::id> ids;

  void record() {
    std::lock_guard<std::mutex> lk(mu);
    ids.push_back(std::this_thread::get_id());
  }
  [[nodiscard]] bool all_on(std::thread::id id) {
    std::lock_guard<std::mutex> lk(mu);
    return !ids.empty() && std::all_of(ids.begin(), ids.end(), [&](auto t) { return t == id; });
  }
};

/// A sweep of `tasks` tasks that only log their thread, fired for 1 s.
void run_logged_sweep(Engine& e, std::size_t tasks, ThreadLog& log) {
  ShardedPeriodic& sweep = e.every_sharded(0.1);
  for (std::size_t i = 0; i < tasks; ++i) sweep.add_task([&log](SimTime) { log.record(); });
  e.run_until(SimTime(1.0));
}

exp::ClusterParams small_cluster() {
  exp::ClusterParams p;
  p.hosts = 4;
  p.workers = 8;
  return p;
}

TEST(SchedulerEnv, SetShardsRejectsOutOfRange) {
  Engine e;
  EXPECT_THROW(e.set_shards(0), std::invalid_argument);
  EXPECT_THROW(e.set_shards(5000), std::invalid_argument);
  e.set_shards(4096);  // the documented ceiling itself is accepted
  EXPECT_EQ(e.shards(), 4096u);
}

TEST(SchedulerEnv, ValidShardsParses) {
  // The shard count now comes from the one override.
  ScopedEnv retired("PERFCLOUD_SHARDS", nullptr);
  ScopedEnv env("PERFCLOUD_THREADS", "8");
  EXPECT_EQ(Engine().shards(), 8u);
}

TEST(SchedulerEnv, GarbageShardsErrorNamesTheVariable) {
  // The retired variable is rejected whatever it holds, naming it and its value.
  ScopedEnv env("PERFCLOUD_SHARDS", "abc");
  try {
    Engine e;
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("PERFCLOUD_SHARDS"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("abc"), std::string::npos);
  }
}

TEST(ParallelRunnerEnv, ValidThreadsParses) {
  ScopedEnv env("PERFCLOUD_THREADS", "3");
  EXPECT_EQ(exp::ParallelRunner().threads(), 3u);
  EXPECT_EQ(Engine().shards(), 3u);
}

TEST(ParallelRunnerEnv, UnsetThreadsLeavesTheCountToTheCode) {
  ScopedEnv env("PERFCLOUD_THREADS", nullptr);
  EXPECT_EQ(exp::ParallelRunner().threads(), std::max(1u, std::thread::hardware_concurrency()));
  // The engine works its count out at the first sweep with several tasks.
  Engine e;
  EXPECT_EQ(e.shards(), 0u);
  ThreadLog log;
  run_logged_sweep(e, 16, log);
  EXPECT_EQ(e.shards(), 1u) << "16 hosts: sharding was not measured to pay";
}

TEST(ParallelRunnerEnv, WorkedOutCountShardsOnlyLargeSweeps) {
  ScopedEnv env("PERFCLOUD_THREADS", nullptr);
  Engine e;
  ThreadLog log;
  run_logged_sweep(e, 150, log);
  EXPECT_EQ(e.shards(), std::clamp(std::thread::hardware_concurrency(), 1u, 4u));
}

TEST(ParallelRunnerEnv, RetiredShardsVariableThrowsNamingItsReplacement) {
  ScopedEnv retired("PERFCLOUD_SHARDS", "4");
  ScopedEnv threads("PERFCLOUD_THREADS", nullptr);
  try {
    Engine e;
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("PERFCLOUD_THREADS"), std::string::npos) << err.what();
  }
}

TEST(ParallelRunnerEnv, OverrideSetsEveryTopLevelEngine) {
  ScopedEnv env("PERFCLOUD_THREADS", "3");
  for (const int hosts : {2, 4, 16}) {
    exp::ClusterParams p = small_cluster();
    p.hosts = hosts;
    exp::Cluster c = exp::make_cluster(p);
    EXPECT_EQ(c.engine->shards(), 3u) << hosts << " hosts";
    exp::run_for(c, 2.0);
    EXPECT_EQ(c.engine->shards(), 3u) << hosts << " hosts";
    // The pool exists, so the count is fixed.
    EXPECT_THROW(c.engine->set_shards(2), std::logic_error) << hosts << " hosts";
  }
  // An explicit count still wins over the override.
  exp::ClusterParams p = small_cluster();
  p.shards = 2;
  EXPECT_EQ(exp::make_cluster(p).engine->shards(), 2u);
}

TEST(ParallelRunnerEnv, OneTaskSweepRunsInline) {
  ScopedEnv env("PERFCLOUD_THREADS", "4");
  Engine e;
  ThreadLog log;
  run_logged_sweep(e, 1, log);
  EXPECT_TRUE(log.all_on(std::this_thread::get_id()));
  e.set_shards(2);  // no pool was opened, so the count can still change
}

TEST(ParallelRunnerEnv, RunnerTaskClusterOpensNoNestedPool) {
  // Under the override every top-level engine would run 4 shards; inside a
  // runner task the same engine runs its sweeps on the task's own thread.
  ScopedEnv env("PERFCLOUD_THREADS", "4");
  std::vector<std::function<bool()>> tasks;
  for (int i = 0; i < 4; ++i) {
    tasks.emplace_back([] {
      exp::Cluster c = exp::make_cluster(small_cluster());
      ThreadLog log;
      ShardedPeriodic& probe = c.engine->every_sharded(c.params.tick_dt);
      for (std::size_t h = 0; h < c.hosts.size(); ++h) {
        probe.add_task([&log](SimTime) { log.record(); });
      }
      exp::run_for(c, 5.0);
      c.engine->set_shards(2);  // throws std::logic_error had a pool been opened
      return c.engine->shards() == 2 && log.all_on(std::this_thread::get_id());
    });
  }
  const exp::ParallelRunner runner;
  ASSERT_EQ(runner.threads(), 4u);
  for (const bool inline_only : runner.run(tasks)) EXPECT_TRUE(inline_only);
}

class GarbageThreads : public ::testing::TestWithParam<const char*> {};

TEST_P(GarbageThreads, ThrowsNamingTheVariable) {
  ScopedEnv env("PERFCLOUD_THREADS", GetParam());
  const std::string needle = "PERFCLOUD_THREADS='" + std::string(GetParam()) + "'";
  const auto expect_rejected = [&](const char* who, const std::function<void()>& construct) {
    try {
      construct();
      ADD_FAILURE() << who << ": expected std::invalid_argument";
    } catch (const std::invalid_argument& err) {
      EXPECT_NE(std::string(err.what()).find(needle), std::string::npos) << who << ": "
                                                                         << err.what();
    }
  };
  expect_rejected("Engine", [] { Engine e; });
  expect_rejected("ParallelRunner", [] { exp::ParallelRunner r; });
}

std::string garbage_name(const ::testing::TestParamInfo<const char*>& info) {
  static const char* const kNames[] = {"TrailingJunk", "NotANumber", "Zero",     "Negative",
                                       "Empty",        "LeadingSpace", "Exponent", "TooLarge"};
  return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(ParallelRunnerEnv, GarbageThreads,
                         ::testing::Values("4x", "abc", "0", "-2", "", " 4", "1e3", "4096000"),
                         garbage_name);

}  // namespace
}  // namespace perfcloud::sim
