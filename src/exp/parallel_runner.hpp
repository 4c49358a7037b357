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
// vector. Everything a task closure captures must be task-local (build the
// Cluster inside the task). Results are returned in submission order
// regardless of completion order, so output built from them is
// byte-identical across thread counts.
#pragma once

#include <algorithm>
#include <functional>
#include <optional>
#include <thread>
#include <utility>
#include <vector>

#include "sim/env.hpp"
#include "sim/shard_pool.hpp"

namespace perfcloud::exp {

class ParallelRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ParallelRunner(unsigned threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

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

  /// Thread count for bench binaries: PERFCLOUD_THREADS if set (so a
  /// sequential reference run of the same binary is one env var away),
  /// otherwise the hardware concurrency. A malformed value throws
  /// std::invalid_argument (see sim::count_from_env).
  static unsigned threads_from_env() {
    return sim::count_from_env("PERFCLOUD_THREADS", kMaxThreads).value_or(default_threads());
  }

 private:
  /// Thread counts above this are certainly a typo, not a machine.
  static constexpr unsigned kMaxThreads = 4096;

  static unsigned default_threads() {
    const unsigned hw = std::thread::hardware_concurrency();
    return hw != 0 ? hw : 1;
  }

  unsigned threads_;
};

}  // namespace perfcloud::exp
