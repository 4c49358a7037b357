// Runner for independent experiment tasks.
//
// The simulator itself is single-threaded by design (determinism), but whole
// experiment *runs* — one scheme x mix combination, one repetition — are
// independent: each builds its own Cluster, whose Engine, CloudManager,
// framework, and RNG are all self-contained. Nothing in the simulation layer
// touches global mutable state, so runs parallelize embarrassingly.
//
// Threading model: `run` executes the tasks on a sim::ShardPool of
// min(threads, tasks) shards — the same pool the engine shards host ticks
// on — and each task writes its result into its own slot of a pre-sized
// vector. With more than one thread, each task's engine runs its host
// sweeps inline (pools do not nest), so the threads in use stay within the
// budget. Everything a task closure captures must be task-local (build the
// Cluster inside the task). Results are returned in submission order
// regardless of completion order, so output built from them is
// byte-identical across thread counts.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <utility>
#include <vector>

#include "sim/env.hpp"
#include "sim/shard_pool.hpp"

namespace perfcloud::exp {

class ParallelRunner {
 public:
  /// `threads` = 0 takes the parallelism budget: PERFCLOUD_THREADS if set
  /// (a malformed value throws std::invalid_argument), otherwise the
  /// hardware concurrency (see sim::thread_budget).
  explicit ParallelRunner(unsigned threads = 0)
      : threads_(threads != 0 ? threads : sim::thread_budget()) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run all tasks to completion and return their results in submission
  /// order. If any task throws, every other task still runs and the
  /// exception of the lowest-indexed failing task is rethrown
  /// (deterministic, see sim::ShardPool::run).
  template <typename T>
  std::vector<T> run(const std::vector<std::function<T()>>& tasks) const {
    std::vector<std::optional<T>> results(tasks.size());
    if (!tasks.empty()) {
      sim::ShardPool pool(static_cast<unsigned>(std::min<std::size_t>(threads_, tasks.size())));
      pool.run(tasks.size(), [&](std::size_t i) { results[i].emplace(tasks[i]()); });
    }
    std::vector<T> out;
    out.reserve(tasks.size());
    for (std::optional<T>& r : results) out.push_back(std::move(*r));
    return out;
  }

 private:
  unsigned threads_;
};

}  // namespace perfcloud::exp
