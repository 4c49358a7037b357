#include "sim/engine.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/env.hpp"

namespace perfcloud::sim {

namespace {

/// Shard counts above this are certainly a typo, not a machine.
constexpr unsigned kMaxShards = 4096;

}  // namespace

Engine::Engine(std::uint64_t seed)
    : shards_(count_from_env("PERFCLOUD_SHARDS", kMaxShards).value_or(1)), rng_(seed) {}

void Engine::set_shards(unsigned shards) {
  if (shards < 1 || shards > kMaxShards) {
    throw std::invalid_argument("Engine::set_shards: " + std::to_string(shards) +
                                " is not a valid shard count (expected an integer in [1, " +
                                std::to_string(kMaxShards) + "])");
  }
  if (pool_ != nullptr) {
    throw std::logic_error("Engine::set_shards: shard pool already running");
  }
  shards_ = shards;
}

EventHandle Engine::at(SimTime t, EventQueue::Callback cb) {
  // Negated so NaN is rejected too: a NaN key breaks the time core's
  // strict weak ordering.
  if (!(t >= now_)) {
    throw std::invalid_argument("Engine::at: time " + std::to_string(t.seconds()) +
                                " is before now " + std::to_string(now_.seconds()));
  }
  return queue_.schedule(t, std::move(cb));
}

EventHandle Engine::after(double dt, EventQueue::Callback cb) {
  if (!(dt >= 0.0)) {
    throw std::invalid_argument("Engine::after: negative or NaN delay " + std::to_string(dt));
  }
  return queue_.schedule(now_ + dt, std::move(cb));
}

void Engine::every(double period, PeriodicFn fn, SimTime start) {
  if (!(period > 0.0)) {
    throw std::invalid_argument("Engine::every: non-positive period " + std::to_string(period));
  }
  const SimTime first = start >= now_ ? start : now_;
  if (!(first + period > first)) {
    throw std::invalid_argument("Engine::every: period is below the time resolution at first fire "
                                "time " + std::to_string(first.seconds()));
  }
  periodics_.push_back(Periodic{period, std::move(fn), first});
  due_.push(DueEntry{first, periodics_.size() - 1});
}

ShardedPeriodic& Engine::every_sharded(double period, SimTime start) {
  sharded_.push_back(std::make_unique<ShardedPeriodic>());
  ShardedPeriodic* sp = sharded_.back().get();
  every(period,
        [this, sp](SimTime now) {
          run_shard_tasks(*sp, now);
          if (sp->barrier_) sp->barrier_(now);
          for (const PeriodicFn& hook : post_barrier_hooks_) hook(now);
        },
        start);
  return *sp;
}

void Engine::run_shard_tasks(ShardedPeriodic& sp, SimTime now) {
  const std::vector<ShardedPeriodic::Fn>& tasks = sp.tasks_;
  if (shards_ <= 1 || tasks.size() <= 1) {
    for (const ShardedPeriodic::Fn& task : tasks) task(now);
    return;
  }
  if (pool_ == nullptr) pool_ = std::make_unique<ShardPool>(shards_);
  pool_->run(tasks.size(), [&](std::size_t i) { tasks[i](now); });
}

void Engine::fire_due_periodics(SimTime t) {
  // Fire periodics in (time, registration-index) order until none is due at
  // or before t. A periodic callback may register further periodics; `every`
  // pushes their due node, and they start no earlier than `now_`, so they
  // join this batch in the correct order if due.
  while (!due_.empty() && due_.top().next <= t) {
    const DueEntry e = due_.top();
    due_.pop();
    now_ = e.next;
    Periodic& p = periodics_[e.index];
    p.next = p.next + p.period;
    due_.push(DueEntry{p.next, e.index});
    p.fn(now_);
    if (stopped_) return;
  }
}

SimTime Engine::run_until(SimTime t_end) {
  return run_while([] { return true; }, t_end);
}

SimTime Engine::run_while(const std::function<bool()>& keep_going, SimTime t_end) {
  stopped_ = false;
  while (!stopped_ && keep_going()) {
    const SimTime next_periodic = due_.empty() ? SimTime::infinity() : due_.top().next;
    const SimTime next_event = queue_.next_time();
    const SimTime next = std::min(next_periodic, next_event);
    if (next > t_end || next == SimTime::infinity()) {
      if (t_end != SimTime::infinity()) now_ = t_end;
      break;
    }
    if (next_periodic <= next_event) {
      // Periodic activities (arbitration, monitors) run before one-shot
      // events carrying the same timestamp.
      fire_due_periodics(next_periodic);
    } else {
      now_ = next_event;
      queue_.run_next();
    }
  }
  for (const PeriodicFn& hook : run_end_hooks_) hook(now_);
  return now_;
}

}  // namespace perfcloud::sim
