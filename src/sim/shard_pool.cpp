#include "sim/shard_pool.hpp"

#include <stdexcept>
#include <utility>

namespace perfcloud::sim {

namespace {

thread_local bool t_in_task = false;

}  // namespace

bool ShardPool::in_task() { return t_in_task; }

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
  {
    std::lock_guard<std::mutex> lk(mu_);
    body_ = &body;
    n_ = n;
    seats_ = active_ = static_cast<unsigned>(workers_.size());
    next_.store(0, std::memory_order_relaxed);
  }
  cv_start_.notify_all();
  drain(body, n);
  std::exception_ptr error;
  {
    std::unique_lock<std::mutex> lk(mu_);
    cv_done_.wait(lk, [&] { return active_ == 0; });
    error = std::exchange(error_, nullptr);
  }
  if (error) std::rethrow_exception(error);
}

void ShardPool::drain(const std::function<void(std::size_t)>& body, std::size_t n) {
  // A 1-shard pool runs inline and uses no thread of the budget, so its
  // tasks may still open a pool of their own.
  const bool outer = std::exchange(t_in_task, t_in_task || !workers_.empty());
  for (std::size_t i; (i = next_.fetch_add(1, std::memory_order_relaxed)) < n;) {
    try {
      body(i);
    } catch (...) {
      // Keep claiming: the barrier must complete so `run` can rethrow
      // without leaving workers mid-batch.
      std::lock_guard<std::mutex> lk(mu_);
      if (!error_ || i < error_index_) {
        error_ = std::current_exception();
        error_index_ = i;
      }
    }
  }
  t_in_task = outer;
}

void ShardPool::worker_loop() {
  std::unique_lock<std::mutex> lk(mu_);
  for (;;) {
    cv_start_.wait(lk, [&] { return shutdown_ || seats_ > 0; });
    if (shutdown_) return;
    // A worker back before another has woken may take a second seat of the
    // same batch; it claims whatever is left and checks out again.
    --seats_;
    const std::function<void(std::size_t)>& body = *body_;
    const std::size_t n = n_;
    lk.unlock();
    drain(body, n);
    lk.lock();
    if (--active_ == 0) cv_done_.notify_one();
  }
}

}  // namespace perfcloud::sim
