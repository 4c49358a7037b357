// Hardware context for the BENCH_*.json writers: core count plus the
// shard-count environment the numbers were produced under. A 1-core CI run of
// any sharding bench measures pure overhead, not scaling — recording the
// context in the artifact makes that caveat machine-readable instead of a
// footnote a reader has to remember.
#pragma once

#include <cstdlib>
#include <string>
#include <thread>

#include "sim/alloc_gauge.hpp"

namespace perfcloud::bench {

/// One JSON object: `{"hardware_threads": N, "env_PERFCLOUD_SHARDS": "4",
/// "alloc_hook_linked": true, "allocs": N, "alloc_bytes": N}`. The env field
/// is the raw variable (null when unset); a garbage value never reaches this
/// point because Engine construction rejects it first. The allocation
/// counters are process-cumulative at emission time — in binaries without
/// the counting hook they read zero and alloc_hook_linked says so.
inline std::string hw_context_json() {
  const auto env_or_null = [](const char* name) -> std::string {
    const char* v = std::getenv(name);
    return v != nullptr ? "\"" + std::string(v) + "\"" : std::string("null");
  };
  const sim::AllocGaugeSnapshot mem = sim::alloc_gauge_read();
  return "{\"hardware_threads\": " + std::to_string(std::thread::hardware_concurrency()) +
         ", \"env_PERFCLOUD_SHARDS\": " + env_or_null("PERFCLOUD_SHARDS") +
         ", \"alloc_hook_linked\": " + (sim::alloc_gauge_linked() ? "true" : "false") +
         ", \"allocs\": " + std::to_string(mem.allocs) +
         ", \"alloc_bytes\": " + std::to_string(mem.bytes) + "}";
}

}  // namespace perfcloud::bench
