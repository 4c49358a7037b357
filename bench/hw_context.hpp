// Hardware context for the BENCH_*.json writers: core count plus the
// parallelism the numbers were produced under. A 1-core CI run of any
// sharding bench measures pure overhead, not scaling — recording the
// context in the artifact makes that caveat machine-readable instead of a
// footnote a reader has to remember.
#pragma once

#include <optional>
#include <string>
#include <thread>

#include "sim/alloc_gauge.hpp"
#include "sim/env.hpp"

namespace perfcloud::bench {

/// One JSON object: `{"hardware_threads": N, "threads_override": 4,
/// "runner_threads": N, "shards": N, "alloc_hook_linked": true, "allocs": N,
/// "alloc_bytes": N}`. `threads_override` is PERFCLOUD_THREADS (null when
/// unset), `runner_threads` the budget an exp::ParallelRunner takes, and
/// `shards` the count the reported runs' engine used (sim::Engine::shards
/// after the run). The allocation counters are process-cumulative at
/// emission time — in binaries without the counting hook they read zero and
/// alloc_hook_linked says so.
inline std::string hw_context_json(unsigned shards) {
  const std::optional<unsigned> override_threads = sim::thread_override();
  const sim::AllocGaugeSnapshot mem = sim::alloc_gauge_read();
  return "{\"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"threads_override\": " +
         (override_threads ? std::to_string(*override_threads) : std::string("null")) +
         ", \"runner_threads\": " + std::to_string(sim::thread_budget()) +
         ", \"shards\": " + std::to_string(shards) +
         ", \"alloc_hook_linked\": " + (sim::alloc_gauge_linked() ? "true" : "false") +
         ", \"allocs\": " + std::to_string(mem.allocs) +
         ", \"alloc_bytes\": " + std::to_string(mem.bytes) + "}";
}

}  // namespace perfcloud::bench
