#include <gtest/gtest.h>

#include "sim/ewma.hpp"
#include "sim/time_series.hpp"

namespace perfcloud::sim {
namespace {

TEST(Ewma, FirstSampleSeeds) {
  Ewma e(0.3);
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.update(10.0), 10.0);
  EXPECT_TRUE(e.seeded());
}

TEST(Ewma, SmoothsTowardNewSamples) {
  Ewma e(0.5);
  e.update(0.0);
  EXPECT_DOUBLE_EQ(e.update(10.0), 5.0);
  EXPECT_DOUBLE_EQ(e.update(10.0), 7.5);
}

TEST(Ewma, AlphaOneIsPassThrough) {
  Ewma e(1.0);
  e.update(3.0);
  EXPECT_DOUBLE_EQ(e.update(42.0), 42.0);
}

TEST(Ewma, ResetForgets) {
  Ewma e(0.5);
  e.update(100.0);
  e.reset();
  EXPECT_FALSE(e.seeded());
  EXPECT_DOUBLE_EQ(e.update(1.0), 1.0);
}

TEST(Ewma, ConvergesToConstantInput) {
  Ewma e(0.2);
  e.update(0.0);
  for (int i = 0; i < 100; ++i) e.update(8.0);
  EXPECT_NEAR(e.value(), 8.0, 1e-6);
}

TEST(TimeSeries, AddAndAccess) {
  TimeSeries ts("x");
  ts.add(SimTime(1.0), 10.0);
  ts.add(SimTime(2.0), 20.0);
  EXPECT_EQ(ts.name(), "x");
  EXPECT_EQ(ts.size(), 2u);
  EXPECT_DOUBLE_EQ(ts.time(1).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(ts.value(1), 20.0);
}

TEST(TimeSeries, TailReturnsNewestFirstInOrder) {
  TimeSeries ts;
  for (int i = 0; i < 5; ++i) ts.add(SimTime(i), static_cast<double>(i));
  const auto t = ts.tail(3);
  ASSERT_EQ(t.size(), 3u);
  EXPECT_DOUBLE_EQ(t[0], 2.0);
  EXPECT_DOUBLE_EQ(t[2], 4.0);
  EXPECT_EQ(ts.tail(99).size(), 5u);
}

TEST(TimeSeries, PeakIsMaxAbsolute) {
  TimeSeries ts;
  ts.add(SimTime(0.0), -7.0);
  ts.add(SimTime(1.0), 3.0);
  EXPECT_DOUBLE_EQ(ts.peak(), 7.0);
}

TEST(TimeSeries, NormalizedByPeak) {
  TimeSeries ts;
  ts.add(SimTime(0.0), 2.0);
  ts.add(SimTime(1.0), 4.0);
  const auto n = ts.normalized_by_peak();
  EXPECT_DOUBLE_EQ(n[0], 0.5);
  EXPECT_DOUBLE_EQ(n[1], 1.0);
}

TEST(TimeSeries, NormalizeAllZerosStaysZero) {
  TimeSeries ts;
  ts.add(SimTime(0.0), 0.0);
  const auto n = ts.normalized_by_peak();
  EXPECT_DOUBLE_EQ(n[0], 0.0);
}

TEST(TimeSeries, ClearEmpties) {
  TimeSeries ts;
  ts.add(SimTime(0.0), 1.0);
  ts.clear();
  EXPECT_TRUE(ts.empty());
}

TEST(AlignTo, ExactMatchesPassThrough) {
  TimeSeries ref;
  TimeSeries s;
  for (int i = 0; i < 4; ++i) {
    ref.add(SimTime(i * 5.0), 0.0);
    s.add(SimTime(i * 5.0), static_cast<double>(i));
  }
  const auto a = align_to(ref, s);
  ASSERT_EQ(a.size(), 4u);
  for (int i = 0; i < 4; ++i) EXPECT_DOUBLE_EQ(a[static_cast<std::size_t>(i)], i);
}

TEST(AlignTo, MissingSamplesBecomeZero) {
  TimeSeries ref;
  for (int i = 0; i < 4; ++i) ref.add(SimTime(i * 5.0), 0.0);
  TimeSeries s;
  s.add(SimTime(5.0), 42.0);  // only one sample, at the second grid point
  const auto a = align_to(ref, s);
  ASSERT_EQ(a.size(), 4u);
  EXPECT_DOUBLE_EQ(a[0], 0.0);
  EXPECT_DOUBLE_EQ(a[1], 42.0);
  EXPECT_DOUBLE_EQ(a[2], 0.0);
  EXPECT_DOUBLE_EQ(a[3], 0.0);
}

TEST(AlignTo, CustomMissingValue) {
  TimeSeries ref;
  ref.add(SimTime(0.0), 0.0);
  TimeSeries s;  // empty
  const auto a = align_to(ref, s, -1.0);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_DOUBLE_EQ(a[0], -1.0);
}

TEST(AlignTo, ToleranceMatchesNearbySamples) {
  TimeSeries ref;
  ref.add(SimTime(5.0), 0.0);
  TimeSeries s;
  s.add(SimTime(5.0 + 1e-9), 3.0);
  const auto a = align_to(ref, s);
  EXPECT_DOUBLE_EQ(a[0], 3.0);
}

TEST(TimeSeries, BoundedCapacityEvictsOldest) {
  TimeSeries s("bounded", 3);
  EXPECT_EQ(s.capacity(), 3u);
  for (int i = 0; i < 5; ++i) s.add(SimTime(i * 1.0), static_cast<double>(i * 10));
  ASSERT_EQ(s.size(), 3u);
  // Holds exactly the most recent 3 samples, oldest first.
  EXPECT_DOUBLE_EQ(s.time(0).seconds(), 2.0);
  EXPECT_DOUBLE_EQ(s.value(0), 20.0);
  EXPECT_DOUBLE_EQ(s.time(2).seconds(), 4.0);
  EXPECT_DOUBLE_EQ(s.value(2), 40.0);
}

TEST(TimeSeries, BoundedCapacitySpansStayCoherent) {
  TimeSeries s("bounded", 4);
  for (int i = 0; i < 9; ++i) s.add(SimTime(i * 1.0), static_cast<double>(i));
  const auto vals = s.values();
  const auto times = s.times();
  ASSERT_EQ(vals.size(), 4u);
  ASSERT_EQ(times.size(), 4u);
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_DOUBLE_EQ(vals[i], static_cast<double>(i + 5));
    EXPECT_DOUBLE_EQ(times[i].seconds(), static_cast<double>(i + 5));
  }
}

TEST(TimeSeries, ValueAtExactTime) {
  TimeSeries s;
  s.add(SimTime(5.0), 1.0);
  s.add(SimTime(10.0), 2.0);
  s.add(SimTime(15.0), 3.0);
  EXPECT_EQ(s.value_at(SimTime(10.0)).value_or(-1.0), 2.0);
  EXPECT_EQ(s.value_at(SimTime(15.0)).value_or(-1.0), 3.0);  // newest: O(1) path
  EXPECT_FALSE(s.value_at(SimTime(12.0)).has_value());
  EXPECT_FALSE(s.value_at(SimTime(20.0)).has_value());
  EXPECT_EQ(s.value_at(SimTime(5.0 + 1e-9)).value_or(-1.0), 1.0);  // within tol
  EXPECT_FALSE(TimeSeries{}.value_at(SimTime(0.0)).has_value());
}

TEST(AlignTo, SkipsSamplesBetweenGridPoints) {
  TimeSeries ref;
  ref.add(SimTime(0.0), 0.0);
  ref.add(SimTime(10.0), 0.0);
  TimeSeries s;
  s.add(SimTime(0.0), 1.0);
  s.add(SimTime(4.0), 99.0);  // off-grid; must not leak into t=10
  s.add(SimTime(10.0), 2.0);
  const auto a = align_to(ref, s);
  EXPECT_DOUBLE_EQ(a[0], 1.0);
  EXPECT_DOUBLE_EQ(a[1], 2.0);
}

}  // namespace
}  // namespace perfcloud::sim
