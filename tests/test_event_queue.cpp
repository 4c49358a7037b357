#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "sim/event_queue.hpp"

namespace perfcloud::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.pending(), 0u);
  EXPECT_EQ(q.next_time(), SimTime::infinity());
  EXPECT_FALSE(q.run_next());
}

TEST(EventQueue, FiresInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(SimTime(3.0), [&](SimTime) { order.push_back(3); });
  q.schedule(SimTime(1.0), [&](SimTime) { order.push_back(1); });
  q.schedule(SimTime(2.0), [&](SimTime) { order.push_back(2); });
  while (q.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SimultaneousEventsFifo) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(SimTime(5.0), [&order, i](SimTime) { order.push_back(i); });
  }
  while (q.run_next()) {
  }
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);

  // Events joining the same timestamp after an earlier pop still fire after
  // the ones already waiting there, in schedule order.
  EventQueue late;
  order.clear();
  for (int i = 0; i < 5; ++i) {
    late.schedule(SimTime(10.0), [&order, i](SimTime) { order.push_back(i); });
  }
  late.schedule(SimTime(7.5), [&order](SimTime) { order.push_back(-1); });
  EXPECT_TRUE(late.run_next());
  for (int i = 5; i < 10; ++i) {
    late.schedule(SimTime(10.0), [&order, i](SimTime) { order.push_back(i); });
  }
  while (late.run_next()) {
  }
  EXPECT_EQ(order, (std::vector<int>{-1, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9}));
}

TEST(EventQueue, CallbackReceivesEventTime) {
  EventQueue q;
  double seen = -1.0;
  q.schedule(SimTime(7.5), [&](SimTime t) { seen = t.seconds(); });
  q.run_next();
  EXPECT_DOUBLE_EQ(seen, 7.5);
}

TEST(EventQueue, CancelPreventsFiring) {
  EventQueue q;
  int fired = 0;
  const EventHandle h = q.schedule(SimTime(1.0), [&](SimTime) { ++fired; });
  q.schedule(SimTime(2.0), [&](SimTime) { ++fired; });
  EXPECT_TRUE(q.cancel(h));
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 1);

  // Cancelling a later event after an earlier one has popped.
  EventQueue popped;
  fired = 0;
  const EventHandle victim = popped.schedule(SimTime(5.0), [&](SimTime) { fired += 10; });
  popped.schedule(SimTime(4.5), [&](SimTime) { fired += 1; });
  EXPECT_TRUE(popped.run_next());
  EXPECT_TRUE(popped.cancel(victim));
  EXPECT_FALSE(popped.cancel(victim));
  while (popped.run_next()) {
  }
  EXPECT_EQ(fired, 1);
}

TEST(EventQueue, CancelTwiceIsFalse) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime(1.0), [](SimTime) {});
  EXPECT_TRUE(q.cancel(h));
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelAfterFireIsFalse) {
  EventQueue q;
  const EventHandle h = q.schedule(SimTime(1.0), [](SimTime) {});
  q.run_next();
  EXPECT_FALSE(q.cancel(h));
}

TEST(EventQueue, CancelInvalidHandleIsFalse) {
  EventQueue q;
  EXPECT_FALSE(q.cancel(EventHandle{}));
  EXPECT_FALSE(q.cancel(EventHandle{9999, 1}));  // slot that never existed
}

TEST(EventQueue, CancelWhilePendingReleasesSlotForReuse) {
  EventQueue q;
  int fired = 0;
  const EventHandle a = q.schedule(SimTime(1.0), [&](SimTime) { fired += 1; });
  EXPECT_TRUE(q.cancel(a));
  // The replacement likely reuses a's slot; a's stale handle must not be
  // able to cancel it.
  const EventHandle b = q.schedule(SimTime(2.0), [&](SimTime) { fired += 10; });
  EXPECT_FALSE(q.cancel(a));
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 10);
  EXPECT_FALSE(q.cancel(b));  // already fired
}

TEST(EventQueue, StaleHandleAfterFireCannotCancelSlotReuser) {
  EventQueue q;
  int fired = 0;
  const EventHandle a = q.schedule(SimTime(1.0), [&](SimTime) { fired += 1; });
  EXPECT_TRUE(q.run_next());  // a fires; its slot goes back on the free list
  const EventHandle b = q.schedule(SimTime(2.0), [&](SimTime) { fired += 10; });
  EXPECT_FALSE(q.cancel(a));  // generation mismatch: b is untouched
  EXPECT_EQ(q.pending(), 1u);
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 11);
  EXPECT_FALSE(q.cancel(b));  // b already fired
}

TEST(EventQueue, ManyCancelScheduleCyclesKeepHandlesDistinct) {
  EventQueue q;
  // Hammer one slot through many generations; every stale handle must stay
  // dead and the newest must stay live.
  EventHandle current = q.schedule(SimTime(1.0), [](SimTime) {});
  std::vector<EventHandle> stale;
  for (int i = 0; i < 100; ++i) {
    stale.push_back(current);
    EXPECT_TRUE(q.cancel(current));
    current = q.schedule(SimTime(1.0), [](SimTime) {});
  }
  for (const EventHandle& h : stale) EXPECT_FALSE(q.cancel(h));
  EXPECT_EQ(q.pending(), 1u);
  EXPECT_TRUE(q.cancel(current));
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, PendingTracksLiveEvents) {
  EventQueue q;
  const EventHandle a = q.schedule(SimTime(1.0), [](SimTime) {});
  q.schedule(SimTime(2.0), [](SimTime) {});
  EXPECT_EQ(q.pending(), 2u);
  q.cancel(a);
  EXPECT_EQ(q.pending(), 1u);
  q.run_next();
  EXPECT_EQ(q.pending(), 0u);
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventHandle a = q.schedule(SimTime(1.0), [](SimTime) {});
  q.schedule(SimTime(5.0), [](SimTime) {});
  q.cancel(a);
  EXPECT_DOUBLE_EQ(q.next_time().seconds(), 5.0);
}

TEST(EventQueue, EventsCanScheduleMoreEvents) {
  EventQueue q;
  std::vector<double> fired;
  q.schedule(SimTime(1.0), [&](SimTime t) {
    fired.push_back(t.seconds());
    q.schedule(SimTime(2.0), [&](SimTime t2) { fired.push_back(t2.seconds()); });
  });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, (std::vector<double>{1.0, 2.0}));
}

TEST(EventQueue, EventCanCancelLaterEvent) {
  EventQueue q;
  int fired = 0;
  EventHandle victim = q.schedule(SimTime(2.0), [&](SimTime) { ++fired; });
  q.schedule(SimTime(1.0), [&](SimTime) { q.cancel(victim); });
  while (q.run_next()) {
  }
  EXPECT_EQ(fired, 0);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  std::vector<double> times;
  // Insert in a scrambled order.
  for (int i = 0; i < 1000; ++i) {
    const double t = static_cast<double>((i * 7919) % 1000);
    q.schedule(SimTime(t), [&times](SimTime at) { times.push_back(at.seconds()); });
  }
  while (q.run_next()) {
  }
  ASSERT_EQ(times.size(), 1000u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));

  // Far-future deadlines: a live one fires last, a cancelled one never does.
  times.clear();
  for (int i = 0; i < 100; ++i) {
    const double t = static_cast<double>((i * 37) % 100);
    q.schedule(SimTime(t), [&times](SimTime at) { times.push_back(at.seconds()); });
  }
  q.schedule(SimTime(2.0e12), [&times](SimTime at) { times.push_back(at.seconds()); });
  const EventHandle far =
      q.schedule(SimTime(3.0e12), [&times](SimTime at) { times.push_back(at.seconds()); });
  EXPECT_TRUE(q.cancel(far));
  while (q.run_next()) {
  }
  ASSERT_EQ(times.size(), 101u);
  EXPECT_TRUE(std::is_sorted(times.begin(), times.end()));
  EXPECT_DOUBLE_EQ(times.back(), 2.0e12);
}

}  // namespace
}  // namespace perfcloud::sim
