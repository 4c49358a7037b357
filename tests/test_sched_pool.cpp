// ShardPool edge cases: batches smaller than the pool, empty batches,
// exceptions thrown inside tasks (the lowest-indexed one is rethrown), and a
// heavy task at the head of the batch.
// A deadlocked barrier hangs these tests, so completing at all is part of
// what they assert.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "sim/shard_pool.hpp"

namespace perfcloud::sim {
namespace {

TEST(ShardPool, MoreShardsThanTasksRunsEachTaskExactlyOnce) {
  ShardPool pool(8);
  std::vector<std::atomic<int>> hits(3);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ShardPool, ZeroTasksReturnsImmediately) {
  ShardPool pool(4);
  bool ran = false;
  pool.run(0, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
  // The pool is still usable after an empty batch.
  std::atomic<int> count{0};
  pool.run(5, [&](std::size_t) { count.fetch_add(1); });
  EXPECT_EQ(count.load(), 5);
}

TEST(ShardPool, LargeBatchCoversEveryIndexOnce) {
  ShardPool pool(4);
  // One slot per index: exactly-once execution shows up as all-ones.
  std::vector<std::atomic<int>> hits(1000);
  pool.run(hits.size(), [&](std::size_t i) { hits[i].fetch_add(1); });
  int total = 0;
  for (const auto& h : hits) {
    EXPECT_EQ(h.load(), 1);
    total += h.load();
  }
  EXPECT_EQ(total, 1000);
}

TEST(ShardPool, TaskExceptionPropagatesWithoutDeadlockingTheBarrier) {
  ShardPool pool(4);
  std::atomic<int> survivors{0};
  EXPECT_THROW(pool.run(16,
                        [&](std::size_t i) {
                          if (i == 3) throw std::runtime_error("task 3 failed");
                          survivors.fetch_add(1);
                        }),
               std::runtime_error);
  // The failing batch still completed: every other task ran, and the pool
  // accepts the next batch (a deadlocked barrier would hang right here).
  EXPECT_EQ(survivors.load(), 15);
  std::atomic<int> next{0};
  pool.run(8, [&](std::size_t) { next.fetch_add(1); });
  EXPECT_EQ(next.load(), 8);

  // Two failures: task 5's is raised first, but the lowest-indexed failing
  // task's error is the one rethrown, whatever the shard count.
  try {
    pool.run(8, [](std::size_t i) {
      if (i == 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("task 0");
      }
      if (i == 5) throw std::runtime_error("task 5");
    });
    FAIL() << "expected an exception";
  } catch (const std::runtime_error& e) {
    EXPECT_EQ(std::string(e.what()), "task 0");
  }
}

TEST(ShardPool, SingleShardPoolRunsInline) {
  ShardPool pool(1);
  EXPECT_EQ(pool.shards(), 1u);
  std::vector<std::size_t> seen;
  pool.run(4, [&](std::size_t i) { seen.push_back(i); });
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1, 2, 3}));
}

// The head of a batch is claimed one task at a time, so a heavy task there
// occupies one shard while its neighbours run elsewhere. Task 0 blocks until
// task 1 has run: a claim that handed tasks 0 and 1 to the same participant
// (a static partition into ceil(8/4) = 2-task blocks would) leaves task 1
// queued behind the wait, which then times out.
TEST(ShardPool, HeavyHeadTaskDoesNotHoldItsNeighbours) {
  ShardPool pool(4);
  std::mutex mu;
  std::condition_variable cv;
  bool task1_ran = false;
  bool task1_seen_by_task0 = false;
  pool.run(8, [&](std::size_t i) {
    std::unique_lock<std::mutex> lk(mu);
    if (i == 0) {
      task1_seen_by_task0 =
          cv.wait_for(lk, std::chrono::seconds(10), [&] { return task1_ran; });
    } else if (i == 1) {
      task1_ran = true;
      cv.notify_all();
    }
  });
  EXPECT_TRUE(task1_seen_by_task0);
}

}  // namespace
}  // namespace perfcloud::sim
