// Strict parsing of the PERFCLOUD_* count variables (shards, threads).
#pragma once

#include <optional>

namespace perfcloud::sim {

/// The environment variable `name` as a count in [1, max], or nullopt when
/// it is unset. Anything else — "abc", "4x", "-2", "0", "", " 4" — throws
/// std::invalid_argument naming the variable: a typo silently falling back
/// to a default is exactly the failure mode that hides in CI for months.
std::optional<unsigned> count_from_env(const char* name, unsigned max);

}  // namespace perfcloud::sim
