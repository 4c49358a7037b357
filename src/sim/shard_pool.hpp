// Worker pool for the engine's sharded periodics (window-barrier model) and
// for exp::ParallelRunner's independent experiment runs.
//
// The engine creates one pool lazily when the first sharded periodic fires
// with more than one shard worked out (or set). Pools do not nest: a thread
// running a task of a pool with workers (a runner scenario) runs its
// engine's sweeps inline, so the threads in use never exceed the budget. `run` executes a batch of independent
// tasks across the pool and returns only when every task has completed —
// the barrier at the end of one lookahead window, in which each task runs
// its host's firings up to the next serial step (DESIGN.md §5e). Tasks must
// be thread-confined: each may touch only its own host's state (hypervisor,
// monitor, node-manager members, per-host RNG streams) plus read-only shared
// data, never the engine, the event queue, or another host.
//
// Barrier phases: `run` publishes the batch under the mutex and opens one
// seat per worker. Every participant (the caller included) claims task
// indices one at a time from a single cursor, so a heavy task near the head
// (a straggler-victim + antagonist host) occupies one shard while the others
// drain the rest. `run` returns only after every worker has taken its seat
// and checked out again, so no worker can still hold a batch that is over.
//
// Determinism: which worker runs which task is scheduling-dependent, but
// tasks are confined to disjoint state and all cross-host logic (barrier
// phase, sink drain) runs sequentially after the barrier in (time,
// source-index) order, so simulation results are byte-identical for any
// shard count (pinned by the ShardDeterminism tests and scripts/check.sh).
// A failing batch still runs every task and rethrows the failure of the
// lowest-indexed task, the same one for any shard count.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace perfcloud::sim {

class ShardPool {
 public:
  /// Spawns `shards - 1` workers; the caller of `run` is the remaining shard.
  /// `shards` must be >= 1 (a 1-shard pool has no workers and runs inline).
  explicit ShardPool(unsigned shards);
  ~ShardPool();

  ShardPool(const ShardPool&) = delete;
  ShardPool& operator=(const ShardPool&) = delete;

  [[nodiscard]] unsigned shards() const {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Run body(0..n-1) across the pool and wait for all of them (the
  /// barrier). If any task throws, the remaining tasks still run, the
  /// barrier completes, and the exception of the lowest-indexed failing
  /// task is rethrown here.
  void run(std::size_t n, const std::function<void(std::size_t)>& body);

  /// True on a thread that is running a task of a pool with workers; an
  /// engine asked to dispatch a sweep there runs it inline instead of
  /// opening a nested pool.
  [[nodiscard]] static bool in_task();

 private:
  void worker_loop();
  /// Claim and run tasks of the published batch until none remain.
  void drain(const std::function<void(std::size_t)>& body, std::size_t n);

  std::mutex mu_;
  std::condition_variable cv_start_;
  std::condition_variable cv_done_;
  // Guarded by mu_. The batch stays published until every worker that took
  // a seat has checked out.
  bool shutdown_ = false;
  const std::function<void(std::size_t)>* body_ = nullptr;
  std::size_t n_ = 0;
  unsigned seats_ = 0;   // seats of the current batch no worker has taken
  unsigned active_ = 0;  // seats of the current batch not yet checked out
  std::size_t error_index_ = 0;
  std::exception_ptr error_;  // failure of the lowest-indexed task so far

  // Next task index to claim. Reset under mu_ before the batch is published;
  // the mutex orders it, so the claims themselves can be relaxed.
  std::atomic<std::size_t> next_{0};

  // Declared last: built after, and destroyed before, the state workers use.
  std::vector<std::thread> workers_;
};

}  // namespace perfcloud::sim
