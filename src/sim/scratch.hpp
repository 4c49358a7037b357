// Per-thread scratch for the per-host hot paths: Server::arbitrate and the
// CPU, memory and disk models under it, Hypervisor::tick and
// NodeManager::local_step. Each keeps its scratch in function-local
// thread_local std::vectors that keep their capacity from call to call, so
// a warmed thread never allocates, and each thread (a shard pool worker or
// the engine thread) has its own copies, so concurrent host tasks never
// share scratch. The one condition this relies on: none of these functions
// is re-entered on its own thread while its scratch is live.
#pragma once

#include <cstddef>
#include <vector>

namespace perfcloud::sim {

/// Refill `v` with `n` value-initialised elements, reusing its capacity.
/// Out of line on purpose: `std::vector::assign` inlined at every scratch
/// column grew the tick's code enough to cost ~5% more user CPU on the
/// 150-host fig11 run at 4 shards.
template <typename T>
[[gnu::noinline]] void refill(std::vector<T>& v, std::size_t n) {
  v.assign(n, T{});
}

}  // namespace perfcloud::sim
