#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "sim/engine.hpp"

namespace perfcloud::sim {
namespace {

TEST(Engine, StartsAtZero) {
  Engine e;
  EXPECT_DOUBLE_EQ(e.now().seconds(), 0.0);
}

TEST(Engine, RunsOneShotEvents) {
  Engine e;
  std::vector<double> fired;
  e.at(SimTime(1.0), [&](SimTime t) { fired.push_back(t.seconds()); });
  e.after(2.5, [&](SimTime t) { fired.push_back(t.seconds()); });
  e.run_until(SimTime(10.0));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.5}));
  EXPECT_DOUBLE_EQ(e.now().seconds(), 10.0);
}

TEST(Engine, RunUntilStopsBeforeLaterEvents) {
  Engine e;
  int fired = 0;
  e.at(SimTime(5.0), [&](SimTime) { ++fired; });
  e.run_until(SimTime(3.0));
  EXPECT_EQ(fired, 0);
  EXPECT_DOUBLE_EQ(e.now().seconds(), 3.0);
  e.run_until(SimTime(6.0));
  EXPECT_EQ(fired, 1);
}

TEST(Engine, PeriodicFiresAtMultiples) {
  Engine e;
  std::vector<double> fired;
  e.every(2.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(2.0));
  e.run_until(SimTime(7.0));
  EXPECT_EQ(fired, (std::vector<double>{2.0, 4.0, 6.0}));
}

TEST(Engine, PeriodicWithCustomStart) {
  Engine e;
  std::vector<double> fired;
  e.every(5.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(1.0));
  e.run_until(SimTime(12.0));
  EXPECT_EQ(fired, (std::vector<double>{1.0, 6.0, 11.0}));
}

TEST(Engine, PeriodicsAtSameTimeFireInRegistrationOrder) {
  Engine e;
  std::vector<int> order;
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  e.every(1.0, [&](SimTime) { order.push_back(2); }, SimTime(1.0));
  e.run_until(SimTime(2.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Engine, PeriodicBeatsOneShotAtSameTimestamp) {
  Engine e;
  std::vector<int> order;
  e.at(SimTime(1.0), [&](SimTime) { order.push_back(2); });
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  e.run_until(SimTime(1.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2}));

  // Five periods whose fire times collide with a train of one-shots: the
  // dispatch must equal the (time, periodic index, then one-shot schedule
  // order) merge of both, computed here with the same time arithmetic.
  Engine many(7);
  std::vector<std::pair<double, int>> fired;
  std::vector<std::pair<double, int>> expected;
  const SimTime horizon(40.0);
  for (int i = 0; i < 5; ++i) {
    const double period = 0.7 + 0.3 * i;
    many.every(period, [&fired, i](SimTime t) { fired.emplace_back(t.seconds(), i); });
    for (SimTime t(0.0); t <= horizon; t = t + period) expected.emplace_back(t.seconds(), i);
  }
  for (int i = 0; i < 20; ++i) {
    const SimTime t(0.7 * (i + 1));
    many.at(t, [&fired, i](SimTime at) { fired.emplace_back(at.seconds(), 100 + i); });
    expected.emplace_back(t.seconds(), 100 + i);
  }
  many.run_until(horizon);
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(fired, expected);
  // The case is exercised: some one-shot shares its timestamp with a periodic.
  EXPECT_NE(std::find(fired.begin(), fired.end(), std::pair<double, int>{0.7, 0}), fired.end());
  EXPECT_NE(std::find(fired.begin(), fired.end(), std::pair<double, int>{0.7, 100}),
            fired.end());
}

TEST(Engine, InterleavesPeriodicsAndEvents) {
  Engine e;
  std::vector<double> fired;
  e.every(3.0, [&](SimTime t) { fired.push_back(t.seconds()); }, SimTime(3.0));
  e.at(SimTime(4.0), [&](SimTime t) { fired.push_back(t.seconds()); });
  e.run_until(SimTime(7.0));
  EXPECT_EQ(fired, (std::vector<double>{3.0, 4.0, 6.0}));
}

TEST(Engine, RunWhilePredicateStops) {
  Engine e;
  int count = 0;
  e.every(1.0, [&](SimTime) { ++count; }, SimTime(1.0));
  e.run_while([&] { return count < 5; }, SimTime(100.0));
  EXPECT_EQ(count, 5);
  EXPECT_LE(e.now().seconds(), 6.0);
}

TEST(Engine, StopEndsRunEarly) {
  Engine e;
  int count = 0;
  e.every(1.0,
          [&](SimTime) {
            if (++count == 3) e.stop();
          },
          SimTime(1.0));
  e.run_until(SimTime(100.0));
  EXPECT_EQ(count, 3);
  EXPECT_DOUBLE_EQ(e.now().seconds(), 3.0);
  // A later run resumes.
  e.run_until(SimTime(5.0));
  EXPECT_EQ(count, 5);
}

TEST(Engine, CancelScheduledEvent) {
  Engine e;
  int fired = 0;
  const EventHandle h = e.at(SimTime(1.0), [&](SimTime) { ++fired; });
  EXPECT_TRUE(e.cancel(h));
  e.run_until(SimTime(2.0));
  EXPECT_EQ(fired, 0);
}

TEST(Engine, RngIsSeeded) {
  Engine a(7);
  Engine b(7);
  EXPECT_EQ(a.rng()(), b.rng()());
  Engine c(8);
  Engine d(9);
  EXPECT_NE(c.rng()(), d.rng()());
}

TEST(Engine, EventSchedulingFromCallback) {
  Engine e;
  std::vector<double> fired;
  e.at(SimTime(1.0), [&](SimTime) {
    e.after(1.0, [&](SimTime t) { fired.push_back(t.seconds()); });
  });
  e.run_until(SimTime(5.0));
  EXPECT_EQ(fired, (std::vector<double>{2.0}));
}

TEST(Engine, DrainsAndReportsFinalTime) {
  Engine e;
  e.at(SimTime(2.0), [](SimTime) {});
  const SimTime end = e.run_until(SimTime(10.0));
  EXPECT_DOUBLE_EQ(end.seconds(), 10.0);
}

TEST(Engine, AtInThePastThrows) {
  Engine e;
  e.at(SimTime(1.0), [](SimTime) {});
  e.run_until(SimTime(2.0));
  EXPECT_THROW(e.at(SimTime(1.5), [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(e.at(SimTime(std::numeric_limits<double>::quiet_NaN()), [](SimTime) {}),
               std::invalid_argument);
  e.at(SimTime(2.0), [](SimTime) {});  // exactly now is fine
  e.at(SimTime::infinity(), [](SimTime) {});  // never fires, but legal
}

TEST(Engine, AfterNegativeDelayThrows) {
  Engine e;
  EXPECT_THROW(e.after(-0.1, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(e.after(std::numeric_limits<double>::quiet_NaN(), [](SimTime) {}),
               std::invalid_argument);
  e.after(0.0, [](SimTime) {});  // zero delay is fine
}

TEST(Engine, EveryNonPositivePeriodThrows) {
  Engine e;
  EXPECT_THROW(e.every(0.0, [](SimTime) {}), std::invalid_argument);
  EXPECT_THROW(e.every(-1.0, [](SimTime) {}), std::invalid_argument);
  // Positive but below the time resolution at t = 1: it would refire at
  // t = 1 forever.
  EXPECT_THROW(e.every(1e-17, [](SimTime) {}, SimTime(1.0)), std::invalid_argument);
}

TEST(Engine, PeriodicRegisteredFromCallbackJoinsSameBatchInOrder) {
  Engine e;
  std::vector<int> order;
  e.every(10.0,
          [&](SimTime) {
            order.push_back(1);
            if (order.size() == 1) {
              // Registered mid-batch with start <= now: fires right after the
              // already-due periodics of this timestamp, by registration index.
              e.every(10.0, [&](SimTime) { order.push_back(2); }, SimTime(0.0));
            }
          },
          SimTime(10.0));
  e.run_until(SimTime(25.0));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 1, 2}));
}

TEST(Engine, ShardedPeriodicRunsTasksThenBarrier) {
  Engine e;
  e.set_shards(1);
  std::vector<int> order;
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([&](SimTime) { order.push_back(0); });
  sp.add_task([&](SimTime) { order.push_back(1); });
  sp.set_barrier([&](SimTime) { order.push_back(9); });
  EXPECT_EQ(sp.task_count(), 2u);
  e.run_until(SimTime(2.5));
  // With one shard the tasks run inline in index order, then the barrier.
  EXPECT_EQ(order, (std::vector<int>{0, 1, 9, 0, 1, 9}));
}

TEST(Engine, ShardedPeriodicKeepsRegistrationOrderWithPlainPeriodics) {
  Engine e;
  e.set_shards(1);
  std::vector<int> order;
  e.every(1.0, [&](SimTime) { order.push_back(1); }, SimTime(1.0));
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([&](SimTime) { order.push_back(2); });
  e.every(1.0, [&](SimTime) { order.push_back(3); }, SimTime(1.0));
  e.run_until(SimTime(1.5));
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Engine, ShardedPeriodicParallelMatchesSequential) {
  const auto run = [](unsigned shards) {
    Engine e;
    e.set_shards(shards);
    // One result slot per task: tasks write disjoint elements, so the
    // parallel sweep is race-free and comparable bit-for-bit.
    std::vector<double> slots(16, 0.0);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    for (std::size_t i = 0; i < slots.size(); ++i) {
      sp.add_task([&slots, i](SimTime t) {
        slots[i] += t.seconds() * static_cast<double>(i + 1);
      });
    }
    e.run_until(SimTime(40.5));
    return slots;
  };
  EXPECT_EQ(run(1), run(4));
}

TEST(Engine, TasksAddedBetweenFiringsJoinTheWorkStealingOrder) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    std::vector<double> slots(8, 0.0);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    for (std::size_t i = 0; i < 4; ++i) {
      sp.add_task([&slots, i](SimTime t) { slots[i] += t.seconds(); });
    }
    e.run_until(SimTime(3.5));  // 3 firings with 4 tasks
    for (std::size_t i = 4; i < 8; ++i) {
      sp.add_task([&slots, i](SimTime t) { slots[i] += t.seconds(); });
    }
    e.run_until(SimTime(6.5));  // 3 more with 8
    for (std::size_t i = 0; i < 4; ++i) EXPECT_EQ(slots[i], 1.0 + 2.0 + 3.0 + 4.0 + 5.0 + 6.0);
    for (std::size_t i = 4; i < 8; ++i) EXPECT_EQ(slots[i], 4.0 + 5.0 + 6.0);
  }
}

TEST(Engine, SetShardsZeroThrows) {
  Engine e;
  EXPECT_THROW(e.set_shards(0), std::invalid_argument);
}

TEST(Engine, SetShardsAfterPoolExistsThrows) {
  Engine e;
  e.set_shards(2);
  ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
  sp.add_task([](SimTime) {});
  sp.add_task([](SimTime) {});
  e.run_until(SimTime(1.5));  // first multi-task fire creates the pool
  EXPECT_THROW(e.set_shards(4), std::logic_error);
}

TEST(Engine, ShardTaskExceptionPropagates) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    ShardedPeriodic& sp = e.every_sharded(1.0, SimTime(1.0));
    sp.add_task([](SimTime) { throw std::runtime_error("shard task failed"); });
    sp.add_task([](SimTime) {});
    EXPECT_THROW(e.run_until(SimTime(2.0)), std::runtime_error);
  }
  // A throw in the middle of a window ends that task's window there and
  // still reaches the caller.
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    std::vector<double> seen;
    ShardedPeriodic& sp = e.every_sharded(0.25, SimTime(0.25));
    sp.add_task([&seen](SimTime t) {
      if (t == SimTime(0.75)) throw std::runtime_error("mid-window failure");
      seen.push_back(t.seconds());
    });
    sp.add_task([](SimTime) {});
    int hooks = 0;
    e.add_post_barrier_hook([&hooks](SimTime) { ++hooks; });
    EXPECT_THROW(e.run_until(SimTime(2.0)), std::runtime_error);
    EXPECT_EQ(seen, (std::vector<double>{0.25, 0.5}));
    EXPECT_EQ(hooks, 0);
  }
}

/// The window fixture from the engine's contract: a barrier-less sweep of
/// three tasks every 0.25 s, a plain periodic every 1.0 s registered after
/// it, a one-shot event at 2.6 s, run to 3.1 s. Each task records its own
/// fire times (disjoint slots, so the 4-shard run is race-free); the hook
/// records when it ran.
struct WindowRun {
  std::vector<std::vector<double>> task_times;
  std::vector<double> hook_times;
};

WindowRun run_window_fixture(unsigned shards) {
  Engine e;
  e.set_shards(shards);
  WindowRun out;
  out.task_times.resize(3);
  ShardedPeriodic& sweep = e.every_sharded(0.25, SimTime(0.25));
  for (std::vector<double>& times : out.task_times) {
    sweep.add_task([&times](SimTime t) { times.push_back(t.seconds()); });
  }
  e.every(1.0, [](SimTime) {}, SimTime(1.0));
  e.at(SimTime(2.6), [](SimTime) {});
  e.add_post_barrier_hook([&out](SimTime t) { out.hook_times.push_back(t.seconds()); });
  e.run_until(SimTime(3.1));
  return out;
}

TEST(EngineWindow, EveryTaskSeesEveryTickInOrder) {
  std::vector<double> ticks;
  for (int k = 1; k <= 12; ++k) ticks.push_back(0.25 * k);
  for (const unsigned shards : {1u, 4u}) {
    const WindowRun r = run_window_fixture(shards);
    for (const std::vector<double>& times : r.task_times) EXPECT_EQ(times, ticks);
  }
}

TEST(EngineWindow, HooksRunOncePerWindowAtItsLastTick) {
  // Windows end at the 1.0 s periodic (the tick at 1.0 joins: the sweep
  // was registered first), before the 2.6 s event, and at t_end.
  for (const unsigned shards : {1u, 4u}) {
    EXPECT_EQ(run_window_fixture(shards).hook_times,
              (std::vector<double>{1.0, 2.0, 2.5, 3.0}));
  }
}

TEST(EngineWindow, EarlierRegisteredPeriodicAtSamePeriodSplitsEveryTick) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    std::vector<std::string> log;
    e.every(0.25, [&log](SimTime t) { log.push_back("p@" + std::to_string(t.seconds())); },
            SimTime(0.25));
    ShardedPeriodic& sweep = e.every_sharded(0.25, SimTime(0.25));
    std::vector<double> a;
    std::vector<double> b;
    sweep.add_task([&a](SimTime t) { a.push_back(t.seconds()); });
    sweep.add_task([&b](SimTime t) { b.push_back(t.seconds()); });
    e.add_post_barrier_hook([&log](SimTime t) { log.push_back("h@" + std::to_string(t.seconds())); });
    e.run_until(SimTime(1.0));
    const std::vector<double> ticks{0.25, 0.5, 0.75, 1.0};
    EXPECT_EQ(a, ticks);
    EXPECT_EQ(b, ticks);
    std::vector<std::string> expected;
    for (const double t : ticks) {
      expected.push_back("p@" + std::to_string(t));
      expected.push_back("h@" + std::to_string(t));
    }
    EXPECT_EQ(log, expected);
  }
}

TEST(EngineWindow, EventAtTickTimeEndsWindowAfterThatTick) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    std::vector<double> a;
    std::vector<double> b;
    ShardedPeriodic& sweep = e.every_sharded(0.25, SimTime(0.25));
    sweep.add_task([&a](SimTime t) { a.push_back(t.seconds()); });
    sweep.add_task([&b](SimTime t) { b.push_back(t.seconds()); });
    std::vector<double> hooks;
    e.add_post_barrier_hook([&hooks](SimTime t) { hooks.push_back(t.seconds()); });
    std::vector<double> seen_by_event;
    e.at(SimTime(0.75), [&](SimTime) {
      seen_by_event = a;
      EXPECT_EQ(b, seen_by_event);
    });
    e.run_until(SimTime(1.5));
    EXPECT_EQ(seen_by_event, (std::vector<double>{0.25, 0.5, 0.75}));
    EXPECT_EQ(hooks, (std::vector<double>{0.75, 1.5}));
    EXPECT_EQ(a, (std::vector<double>{0.25, 0.5, 0.75, 1.0, 1.25, 1.5}));
  }
}

TEST(EngineWindow, SweepWithBarrierRunsBarrierThenHooksEveryFiring) {
  for (const unsigned shards : {1u, 4u}) {
    Engine e;
    e.set_shards(shards);
    std::vector<double> a;
    std::vector<double> b;
    ShardedPeriodic& sweep = e.every_sharded(0.25, SimTime(0.25));
    sweep.add_task([&a](SimTime t) { a.push_back(t.seconds()); });
    sweep.add_task([&b](SimTime t) { b.push_back(t.seconds()); });
    std::vector<std::string> log;
    sweep.set_barrier([&](SimTime t) {
      EXPECT_EQ(a.back(), t.seconds());
      EXPECT_EQ(b.back(), t.seconds());
      log.push_back("b@" + std::to_string(t.seconds()));
    });
    e.add_post_barrier_hook([&log](SimTime t) { log.push_back("h@" + std::to_string(t.seconds())); });
    e.run_until(SimTime(1.0));
    std::vector<std::string> expected;
    for (const double t : {0.25, 0.5, 0.75, 1.0}) {
      expected.push_back("b@" + std::to_string(t));
      expected.push_back("h@" + std::to_string(t));
    }
    EXPECT_EQ(log, expected);
  }
}

/// The documented dispatch order — (time, registration-index) for periodics,
/// periodics before same-timestamp one-shot events, FIFO among simultaneous
/// events — pinned against a hand-computed golden trace. Any scheduler
/// change that reorders the seed semantics fails here.
TEST(Engine, GoldenTraceDeterminism) {
  const auto run_trace = [] {
    Engine e(123);
    std::vector<std::pair<std::string, double>> trace;
    const auto rec = [&trace](std::string tag) {
      return [&trace, tag = std::move(tag)](SimTime t) { trace.emplace_back(tag, t.seconds()); };
    };
    e.every(2.0, rec("p0/2s"), SimTime(2.0));
    e.every(3.0, rec("p1/3s"), SimTime(0.0));
    e.every(2.0, rec("p2/2s"), SimTime(2.0));
    e.at(SimTime(2.0), rec("e@2"));
    e.at(SimTime(2.0), rec("e@2b"));
    e.at(SimTime(3.0), [&, rec](SimTime t) {
      trace.emplace_back("e@3", t.seconds());
      e.after(1.0, rec("e@3+1"));
      e.every(4.0, rec("p3/4s"), SimTime(4.0));
    });
    const EventHandle doomed = e.at(SimTime(5.0), rec("cancelled"));
    e.at(SimTime(4.0), [&e, doomed](SimTime) { e.cancel(doomed); });
    e.run_until(SimTime(6.5));
    return trace;
  };

  const std::vector<std::pair<std::string, double>> expected = {
      {"p1/3s", 0.0},
      {"p0/2s", 2.0}, {"p2/2s", 2.0}, {"e@2", 2.0}, {"e@2b", 2.0},
      {"p1/3s", 3.0}, {"e@3", 3.0},
      {"p0/2s", 4.0}, {"p2/2s", 4.0}, {"p3/4s", 4.0}, {"e@3+1", 4.0},
      // e@5 was cancelled by the event at t=4; at t=6 all three original
      // periodics are due and fire in registration-index order.
      {"p0/2s", 6.0}, {"p1/3s", 6.0}, {"p2/2s", 6.0},
  };
  const auto a = run_trace();
  EXPECT_EQ(a, expected);
  EXPECT_EQ(run_trace(), a);  // run-to-run determinism
}

}  // namespace
}  // namespace perfcloud::sim
