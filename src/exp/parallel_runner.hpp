// Thread-pool runner for independent experiment tasks.
//
// The simulator itself is single-threaded by design (determinism), but whole
// experiment *runs* — one scheme x mix combination, one repetition — are
// independent: each builds its own Cluster, whose Engine, CloudManager,
// framework, and RNG are all self-contained. Nothing in the simulation layer
// touches global mutable state, so runs parallelize embarrassingly.
//
// Threading model: `run` spawns up to `threads` std::threads; workers claim
// task indices from a shared atomic counter and write results into their own
// slot of a pre-sized vector. Shared between workers: the counter, the task
// vector (read-only), and disjoint result/exception slots. Everything a task
// closure captures must be task-local (build the Cluster inside the task).
// Results are returned in submission order regardless of completion order,
// so output built from them is byte-identical across thread counts.
#pragma once

#include <algorithm>
#include <atomic>
#include <exception>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "sim/env.hpp"

namespace perfcloud::exp {

class ParallelRunner {
 public:
  /// `threads` = 0 picks std::thread::hardware_concurrency() (min 1).
  explicit ParallelRunner(unsigned threads = 0)
      : threads_(threads != 0 ? threads : default_threads()) {}

  [[nodiscard]] unsigned threads() const { return threads_; }

  /// Run all tasks to completion and return their results in submission
  /// order. If any task throws, the first exception (by submission index —
  /// deterministic) is rethrown after every worker has joined.
  template <typename T>
  std::vector<T> run(const std::vector<std::function<T()>>& tasks) const {
    std::vector<std::optional<T>> results(tasks.size());
    std::vector<std::exception_ptr> errors(tasks.size());
    std::atomic<std::size_t> next{0};

    const auto worker = [&] {
      for (;;) {
        const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
        if (i >= tasks.size()) return;
        try {
          results[i].emplace(tasks[i]());
        } catch (...) {
          errors[i] = std::current_exception();
        }
      }
    };

    const std::size_t n_workers =
        std::min<std::size_t>(threads_, std::max<std::size_t>(tasks.size(), 1));
    std::vector<std::thread> pool;
    pool.reserve(n_workers);
    for (std::size_t w = 0; w < n_workers; ++w) pool.emplace_back(worker);
    for (std::thread& t : pool) t.join();

    for (const std::exception_ptr& e : errors) {
      if (e) std::rethrow_exception(e);
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
