// Simulation engine: clock, event dispatch, and periodic activities.
#pragma once

#include <functional>
#include <memory>
#include <queue>
#include <vector>

#include "sim/event_queue.hpp"
#include "sim/rng.hpp"
#include "sim/shard_pool.hpp"
#include "sim/types.hpp"

namespace perfcloud::sim {

/// A periodic activity whose work is a batch of independent host-local tasks
/// plus an optional sequential cross-host phase — the engine's sharded
/// execution unit (one per host group, not one periodic per host).
///
/// Dispatch is by lookahead window. A sweep without a barrier function runs
/// every firing that falls before the engine's next serial step (another
/// periodic, a one-shot event, the run's end) in one dispatch: each task runs
/// its own firings in time order, then the post-barrier hooks run once. A
/// sweep with a barrier function is a window of one firing: tasks, barrier
/// function, hooks. Tasks run in index order when the engine has one shard;
/// with more shards they run concurrently, so each task must be
/// thread-confined: it may touch only its own host's state and read-only
/// shared data — never the engine (at/after/every/rng/stop), the registry it
/// shares with sibling tasks, or another host. Cross-host mutation belongs
/// in the barrier function, which runs alone.
///
/// Tasks may be appended between firings (hosts registering during setup);
/// appending from inside a task or barrier is not allowed.
class ShardedPeriodic {
 public:
  using Fn = std::function<void(SimTime)>;

  void add_task(Fn fn) { tasks_.push_back(std::move(fn)); }
  void set_barrier(Fn fn) { barrier_ = std::move(fn); }
  [[nodiscard]] std::size_t task_count() const { return tasks_.size(); }

 private:
  friend class Engine;
  std::vector<Fn> tasks_;
  Fn barrier_;
};

/// Owns the simulated clock and the event queue, and drives periodic
/// activities (resource-arbitration ticks, monitor sampling, framework
/// scheduling polls).
///
/// Periodic activities registered with the same period fire in registration
/// order at each multiple of the period — deterministic, which matters
/// because arbitration must run before monitors sample its results.
///
/// The next-due periodic is tracked by a min-heap keyed by
/// (next_fire, registration_index): O(1) peek, O(log P) re-insert per
/// firing. P stays small — hosts share sharded periodics — so the heap is
/// the whole time core, next to the event queue's own (t, seq) heap.
///
/// Serial steps — plain periodics, one-shot events, barrier functions — run
/// one at a time on the engine thread. Between two of them only barrier-less
/// sweeps fire, and those run as lookahead windows (see ShardedPeriodic).
/// That rests on a contract for everything that runs between serial steps:
///  - shard tasks touch only their own host and never the engine, and the
///    tasks of a barrier-less sweep stage no emission (the sink drains once
///    per window, not once per firing);
///  - run_while predicates read only state written by serial steps: they
///    are evaluated between serial steps, not between the firings of one
///    window;
///  - post-barrier hooks run once per window, so they see its end state,
///    never its intermediate firings.
class Engine {
 public:
  using PeriodicFn = std::function<void(SimTime)>;

  explicit Engine(std::uint64_t seed = 42);

  [[nodiscard]] SimTime now() const { return now_; }
  [[nodiscard]] Rng& rng() { return rng_; }

  /// Schedule a one-shot event at absolute time `t`.
  /// Throws std::invalid_argument if `t` is in the past (t < now()) or NaN.
  EventHandle at(SimTime t, EventQueue::Callback cb);
  /// Schedule a one-shot event `dt` seconds from now.
  /// Throws std::invalid_argument if `dt` is negative or NaN.
  EventHandle after(double dt, EventQueue::Callback cb);
  bool cancel(EventHandle h) { return queue_.cancel(h); }

  /// Register a periodic activity firing every `period` seconds, first at
  /// time `start` (clamped up to now() if it lies in the past). Runs until
  /// the engine stops; there is no deregistration because entities live as
  /// long as the experiment.
  /// Throws std::invalid_argument if `period` is not positive or too small
  /// to advance the first fire time (`first + period == first` in double
  /// precision would refire at the same instant forever).
  void every(double period, PeriodicFn fn, SimTime start = SimTime(0.0));

  /// Register a sharded periodic: one heap entry for a whole host group.
  /// Each dispatch runs the group's tasks for one lookahead window across
  /// `shards()` threads, waits for them, then runs its sequential phase if
  /// it has one (which limits the window to one firing). The returned
  /// reference stays valid for the engine's lifetime; add per-host tasks to
  /// it during setup.
  ShardedPeriodic& every_sharded(double period, SimTime start = SimTime(0.0));

  /// Run `fn` on the engine thread after every dispatch of a sharded
  /// periodic, once its tasks have finished the window and its sequential
  /// phase has run, with now() at the window's last firing. This is the
  /// drain point for emission sinks: everything staged since the previous
  /// dispatch is quiescent here. Hooks run in registration order; `fn` must
  /// outlive the engine's runs.
  void add_post_barrier_hook(PeriodicFn fn) { post_barrier_hooks_.push_back(std::move(fn)); }

  /// Run `fn` on the engine thread whenever a run_until/run_while call
  /// returns (end-of-run flush point for emission sinks). Hooks run in
  /// registration order, every time a run returns.
  void add_run_end_hook(PeriodicFn fn) { run_end_hooks_.push_back(std::move(fn)); }

  /// Worker threads for sharded periodics. An explicit set_shards wins;
  /// otherwise PERFCLOUD_THREADS sets it (see sim::thread_override), and
  /// failing both the engine works it out at its first sweep with more
  /// than one task, from that task count (the host count) and
  /// std::thread::hardware_concurrency(). Reads 0 until then. Results are
  /// byte-identical for any value. Construction throws
  /// std::invalid_argument on a malformed PERFCLOUD_THREADS and when the
  /// retired shard variable it replaced is set.
  [[nodiscard]] unsigned shards() const { return shards_; }
  /// Override the shard count. Throws std::invalid_argument outside
  /// [1, 4096] and std::logic_error once the pool exists (a sharded
  /// periodic has fired).
  void set_shards(unsigned shards);

  /// Run until the queue drains or `t_end` is reached, whichever is first.
  /// Returns the final simulated time.
  SimTime run_until(SimTime t_end);

  /// Run while `keep_going()` holds (checked between serial steps, so it
  /// must read only serially-written state) and `t_end` is not passed. Used
  /// by experiments to stop when a job set completes.
  SimTime run_while(const std::function<bool()>& keep_going, SimTime t_end);

  /// Request the current run_* call to return after the in-flight event.
  void stop() { stopped_ = true; }

 private:
  struct Periodic {
    double period;
    PeriodicFn fn;            ///< Empty for a sharded sweep.
    ShardedPeriodic* sweep;   ///< Null for a plain periodic.
    SimTime next;
  };

  /// One heap node per registered periodic, keyed by its pending fire time.
  /// Each periodic has exactly one outstanding node at any moment: firing
  /// pops it and pushes the advanced time back.
  struct DueEntry {
    SimTime next;
    std::size_t index;  ///< Registration index into periodics_.
    bool operator>(const DueEntry& other) const {
      if (next != other.next) return next > other.next;
      return index > other.index;
    }
  };

  /// Fire the periodics due at the earliest pending fire time, in
  /// registration order. `horizon` is the run's next serial bound,
  /// min(next queue event, t_end); a barrier-less sweep's window extends
  /// up to it.
  void fire_due_periodics(SimTime horizon);
  /// Dispatch the sweep at periodics_[index] for one window: its fire times
  /// up to `horizon` that precede every other due periodic (at most
  /// kMaxWindow, one if it has a barrier), then barrier and hooks.
  void fire_sweep(std::size_t index, SimTime horizon);
  /// Run every task over `times` in order: inline in index order with one
  /// task, one shard, or inside another pool's task; across the pool
  /// (created lazily, the shard count worked out first) otherwise.
  void run_shard_tasks(const ShardedPeriodic& sp, const std::vector<SimTime>& times);

  SimTime now_{0.0};
  EventQueue queue_;
  std::vector<Periodic> periodics_;
  std::priority_queue<DueEntry, std::vector<DueEntry>, std::greater<>> due_;
  /// unique_ptr for address stability: Periodic::sweep holds raw pointers.
  std::vector<std::unique_ptr<ShardedPeriodic>> sharded_;
  std::vector<PeriodicFn> post_barrier_hooks_;
  std::vector<PeriodicFn> run_end_hooks_;
  unsigned shards_ = 0;  ///< 0 until set or worked out.
  std::unique_ptr<ShardPool> pool_;
  /// The current window's fire times; reserved once, so dispatch never
  /// allocates.
  std::vector<SimTime> window_;
  Rng rng_;
  bool stopped_ = false;
};

}  // namespace perfcloud::sim
