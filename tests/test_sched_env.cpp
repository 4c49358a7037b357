// Strict environment parsing for the shard scheduler and the bench runner:
// garbage values of PERFCLOUD_SHARDS (at Engine construction) and
// PERFCLOUD_THREADS (in ParallelRunner::threads_from_env) must fail loudly,
// never fall back silently (a typo degrading a CI run to sequential
// execution is exactly the failure mode that hides for months).
#include <gtest/gtest.h>

#include <cstdlib>
#include <optional>
#include <stdexcept>
#include <string>

#include "exp/parallel_runner.hpp"
#include "sim/engine.hpp"

namespace perfcloud::sim {
namespace {

/// Sets (or unsets) one environment variable for the test's scope and
/// restores the previous value on destruction — the TSan suite runs these
/// binaries with PERFCLOUD_SHARDS already exported.
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

TEST(SchedulerEnv, UnsetShardsDefaultsToOne) {
  ScopedEnv env("PERFCLOUD_SHARDS", nullptr);
  EXPECT_EQ(Engine().shards(), 1u);
}

TEST(SchedulerEnv, ValidShardsParses) {
  ScopedEnv env("PERFCLOUD_SHARDS", "8");
  EXPECT_EQ(Engine().shards(), 8u);
}

TEST(SchedulerEnv, GarbageShardsThrows) {
  for (const char* bad : {"abc", "0", "-2", "4x", "", " 4", "1e3", "4096000"}) {
    ScopedEnv env("PERFCLOUD_SHARDS", bad);
    EXPECT_THROW(Engine{}, std::invalid_argument) << "PERFCLOUD_SHARDS='" << bad << "'";
  }
}

TEST(SchedulerEnv, GarbageShardsErrorNamesTheVariable) {
  ScopedEnv env("PERFCLOUD_SHARDS", "abc");
  try {
    Engine e;
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    EXPECT_NE(std::string(err.what()).find("PERFCLOUD_SHARDS"), std::string::npos);
    EXPECT_NE(std::string(err.what()).find("abc"), std::string::npos);
  }
}

TEST(SchedulerEnv, SetShardsRejectsOutOfRange) {
  ScopedEnv env("PERFCLOUD_SHARDS", nullptr);
  Engine e;
  EXPECT_THROW(e.set_shards(0), std::invalid_argument);
  EXPECT_THROW(e.set_shards(5000), std::invalid_argument);
  e.set_shards(4096);  // the documented ceiling itself is accepted
  EXPECT_EQ(e.shards(), 4096u);
}

TEST(ParallelRunnerEnv, ValidThreadsParses) {
  ScopedEnv env("PERFCLOUD_THREADS", "3");
  EXPECT_EQ(exp::ParallelRunner::threads_from_env(), 3u);
}

class GarbageThreads : public ::testing::TestWithParam<const char*> {};

TEST_P(GarbageThreads, ThrowsNamingTheVariable) {
  ScopedEnv env("PERFCLOUD_THREADS", GetParam());
  try {
    (void)exp::ParallelRunner::threads_from_env();
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& err) {
    const std::string what = err.what();
    EXPECT_NE(what.find("PERFCLOUD_THREADS='" + std::string(GetParam()) + "'"),
              std::string::npos)
        << what;
  }
}

std::string garbage_name(const ::testing::TestParamInfo<const char*>& info) {
  static const char* const kNames[] = {"TrailingJunk", "NotANumber", "Zero", "Negative", "Empty"};
  return kNames[info.index];
}

INSTANTIATE_TEST_SUITE_P(ParallelRunnerEnv, GarbageThreads,
                         ::testing::Values("4x", "abc", "0", "-2", ""), garbage_name);

}  // namespace
}  // namespace perfcloud::sim
