// The parallelism budget and its one strict override, PERFCLOUD_THREADS.
#pragma once

#include <optional>

namespace perfcloud::sim {

/// PERFCLOUD_THREADS as a count in [1, 4096], or nullopt when it is unset.
/// When set it caps every top-level pool: exp::ParallelRunner's scenarios
/// and each engine's shards. Anything else — "abc", "4x", "-2", "0", "",
/// " 4" — throws std::invalid_argument naming the variable: a typo silently
/// falling back to a default is exactly the failure mode that hides in CI
/// for months.
std::optional<unsigned> thread_override();

/// The parallelism budget: thread_override() when set, otherwise
/// std::thread::hardware_concurrency() (at least 1).
unsigned thread_budget();

}  // namespace perfcloud::sim
