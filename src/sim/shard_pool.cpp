#include "sim/shard_pool.hpp"

#include <algorithm>
#include <stdexcept>

#include "sim/arena.hpp"

namespace perfcloud::sim {

namespace {

/// Chunk size for a claim starting at task index `pos`. The first ~2*shards
/// claims take one task each so a heavy task near the head never drags
/// neighbours onto its shard; the tail is claimed in linearly growing chunks
/// to keep CAS traffic low.
std::size_t ws_chunk(std::size_t pos, unsigned shards) {
  return std::clamp<std::size_t>(pos / (2 * static_cast<std::size_t>(shards)),
                                 std::size_t{1}, std::size_t{64});
}

}  // namespace

ShardPool::ShardPool(unsigned shards) {
  if (shards < 1) throw std::invalid_argument("ShardPool: shards must be >= 1");
  workers_.reserve(shards - 1);
  for (unsigned i = 1; i < shards; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ShardPool::~ShardPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    shutdown_ = true;
  }
  cv_start_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ShardPool::run(std::size_t n, const std::function<void(std::size_t)>& body) {
  if (n == 0) return;
  if (n > 0xffffffffull) throw std::invalid_argument("ShardPool: batch too large");
  std::uint32_t gen;
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_ = n;
    error_ = nullptr;
    gen = ++generation_;
    remaining_.store(n, std::memory_order_relaxed);
    claim_.store(pack(gen, 0), std::memory_order_release);
  }
  cv_start_.notify_all();
  drain(gen);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return remaining_.load(std::memory_order_acquire) == 0; });
    body_ = nullptr;
    error = error_;
    error_ = nullptr;
  }
  if (error) std::rethrow_exception(error);
}

void ShardPool::drain(std::uint32_t gen) {
  drain_batch(gen);
  // Per-shard quantum scratch dies at the barrier: whatever this
  // participant's tasks carved from the thread-local arena is rewound (and
  // a grown chain consolidated) before the next batch.
  scratch_arena().reset();
}

void ShardPool::drain_batch(std::uint32_t gen) {
  // Copy the batch parameters for `gen`. If the batch is already finished
  // (or superseded), the claim loop below backs off before any of these are
  // dereferenced, so a stale copy is safe.
  const std::function<void(std::size_t)>* body;
  std::size_t n;
  unsigned shards;
  {
    std::lock_guard<std::mutex> lk(mu_);
    body = body_;
    n = n_;
    shards = this->shards();
  }

  for (;;) {
    std::uint64_t cur = claim_.load(std::memory_order_acquire);
    std::size_t pos = 0;
    std::size_t count = 0;
    for (;;) {
      if (static_cast<std::uint32_t>(cur >> 32) != gen) return;  // superseded batch
      pos = static_cast<std::size_t>(cur & 0xffffffffull);
      if (pos >= n) return;  // batch fully claimed
      count = std::min(ws_chunk(pos, shards), n - pos);
      if (claim_.compare_exchange_weak(cur, pack(gen, static_cast<std::uint32_t>(pos + count)),
                                       std::memory_order_acq_rel, std::memory_order_acquire)) {
        break;
      }
    }

    std::exception_ptr error;
    for (std::size_t k = pos; k < pos + count; ++k) {
      try {
        (*body)(k);
      } catch (...) {
        // Keep executing: the barrier must complete so the engine thread can
        // rethrow without leaving workers mid-batch.
        if (!error) error = std::current_exception();
      }
    }
    if (error) {
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_) error_ = error;
    }
    if (remaining_.fetch_sub(count, std::memory_order_acq_rel) == count) {
      // Last chunk of the batch: wake the caller waiting at the barrier. The
      // empty critical section pairs with the caller's predicate check under
      // mu_ so the notification cannot be missed.
      { std::lock_guard<std::mutex> lk(mu_); }
      cv_done_.notify_all();
    }
  }
}

void ShardPool::worker_loop() {
  std::uint32_t seen = 0;
  for (;;) {
    std::uint32_t gen;
    {
      std::unique_lock<std::mutex> lk(mu_);
      cv_start_.wait(lk, [&] { return shutdown_ || generation_ != seen; });
      if (shutdown_) return;
      seen = gen = generation_;
    }
    drain(gen);
  }
}

}  // namespace perfcloud::sim
