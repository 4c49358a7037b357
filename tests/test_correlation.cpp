#include <gtest/gtest.h>

#include <vector>

#include "sim/correlation.hpp"
#include "sim/rng.hpp"

namespace perfcloud::sim {
namespace {

TEST(Pearson, PerfectPositive) {
  const std::vector<double> x = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> y = {2.0, 4.0, 6.0, 8.0};
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-12);
  // An exact linear relation reads exactly 1, never a hair above it.
  std::vector<double> ramp;
  std::vector<double> line;
  for (int i = 0; i < 10; ++i) {
    ramp.push_back(i);
    line.push_back(2.0 * i + 5.0);
  }
  EXPECT_DOUBLE_EQ(pearson(ramp, line), 1.0);
}

TEST(Pearson, PerfectNegative) {
  const std::vector<double> x = {1.0, 2.0, 3.0};
  const std::vector<double> y = {3.0, 2.0, 1.0};
  EXPECT_NEAR(pearson(x, y), -1.0, 1e-12);
  std::vector<double> ramp;
  std::vector<double> line;
  for (int i = 0; i < 10; ++i) {
    ramp.push_back(i);
    line.push_back(-3.0 * i);
  }
  EXPECT_DOUBLE_EQ(pearson(ramp, line), -1.0);
}

TEST(Pearson, ShiftAndScaleInvariance) {
  Rng r(5);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 50; ++i) {
    const double v = r.normal();
    x.push_back(v);
    y.push_back(100.0 + 42.0 * v);
  }
  EXPECT_NEAR(pearson(x, y), 1.0, 1e-9);

  // A steady antagonist at ~1e8 B/s with tiny jitter: the two-pass form
  // centres before it multiplies, so the huge offset cannot cancel away the
  // jitter's correlation.
  std::vector<double> lo;
  std::vector<double> hi;
  std::vector<double> hi_centred;
  for (int i = 0; i < 60; ++i) {
    const double noise = r.uniform(-0.5, 0.5);
    const double jitter = r.uniform(-10.0, 10.0);
    lo.push_back(50.0 + noise);
    hi.push_back(1.0e8 + jitter + 4.0 * noise);
    hi_centred.push_back(jitter + 4.0 * noise);
  }
  EXPECT_NEAR(pearson(lo, hi), pearson(lo, hi_centred), 1e-9);
}

TEST(Pearson, IndependentSeriesNearZero) {
  Rng r(6);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 5000; ++i) {
    x.push_back(r.normal());
    y.push_back(r.normal());
  }
  EXPECT_NEAR(pearson(x, y), 0.0, 0.05);
}

TEST(Pearson, ZeroVarianceGivesZero) {
  const std::vector<double> flat(5, 3.0);
  const std::vector<double> ramp = {1.0, 2.0, 3.0, 4.0, 5.0};
  EXPECT_EQ(pearson(flat, ramp), 0.0);
  EXPECT_EQ(pearson(ramp, flat), 0.0);
  // An exactly constant high-magnitude side is still variance 0.
  const std::vector<double> steady(5, 1.0e8);
  EXPECT_EQ(pearson(ramp, steady), 0.0);
}

TEST(Pearson, TooFewSamplesGivesZero) {
  const std::vector<double> x = {1.0};
  const std::vector<double> y = {2.0};
  EXPECT_EQ(pearson(x, y), 0.0);
  EXPECT_EQ(pearson({}, {}), 0.0);
  // A one-sample window reads 0 even where the whole series correlates.
  TimeSeries victim;
  TimeSeries suspect;
  for (int i = 1; i <= 4; ++i) {
    victim.add(SimTime(5.0 * i), i);
    suspect.add(SimTime(5.0 * i), 2.0 * i);
  }
  EXPECT_EQ(pearson_missing_as_zero(victim, suspect, 1), 0.0);
  EXPECT_NEAR(pearson_missing_as_zero(victim, suspect, 4), 1.0, 1e-12);
}

TEST(Pearson, SymmetricInArguments) {
  Rng r(7);
  std::vector<double> x;
  std::vector<double> y;
  for (int i = 0; i < 30; ++i) {
    x.push_back(r.uniform());
    y.push_back(r.uniform() + 0.5 * x.back());
  }
  EXPECT_NEAR(pearson(x, y), pearson(y, x), 1e-12);
}

TEST(Pearson, BoundedByOne) {
  Rng r(8);
  for (int trial = 0; trial < 50; ++trial) {
    std::vector<double> x;
    std::vector<double> y;
    for (int i = 0; i < 20; ++i) {
      x.push_back(r.normal());
      y.push_back(r.normal());
    }
    const double c = pearson(x, y);
    EXPECT_LE(c, 1.0 + 1e-12);
    EXPECT_GE(c, -1.0 - 1e-12);
  }
}

// --- The paper's missing-as-zero policy (§III-B) ---

TimeSeries grid_series(const std::vector<double>& values, double period = 5.0) {
  TimeSeries ts;
  for (std::size_t i = 0; i < values.size(); ++i) {
    ts.add(SimTime(static_cast<double>(i + 1) * period), values[i]);
  }
  return ts;
}

TEST(PearsonMissingAsZero, FullOverlapMatchesPlainPearson) {
  const TimeSeries victim = grid_series({1.0, 5.0, 2.0, 8.0});
  const TimeSeries suspect = grid_series({2.0, 10.0, 4.0, 16.0});
  EXPECT_NEAR(pearson_missing_as_zero(victim, suspect), 1.0, 1e-12);
}

TEST(PearsonMissingAsZero, MissingSamplesCountAsZeroNotOmitted) {
  // Victim sampled at t=5..20; suspect only reported at t=10 and t=15.
  const TimeSeries victim = grid_series({0.0, 6.0, 6.0, 0.0});
  TimeSeries suspect;
  suspect.add(SimTime(10.0), 9.0);
  suspect.add(SimTime(15.0), 9.0);
  // With zeros substituted the series are perfectly aligned square waves.
  EXPECT_NEAR(pearson_missing_as_zero(victim, suspect), 1.0, 1e-12);
}

TEST(PearsonMissingAsZero, AvoidsOverEmphasizingSparseSuspects) {
  // A suspect with a single burst that happens to coincide with one victim
  // peak: if missing samples were dropped, the pair count would collapse to
  // 1 and any correlation estimate would be meaningless. With zeros it is a
  // well-defined moderate value < 1.
  const TimeSeries victim = grid_series({1.0, 2.0, 8.0, 7.5, 2.0, 1.5});
  TimeSeries suspect;
  suspect.add(SimTime(15.0), 5.0);  // only at the third sample
  const double c = pearson_missing_as_zero(victim, suspect);
  EXPECT_GT(c, 0.0);
  EXPECT_LT(c, 0.95);
}

TEST(PearsonMissingAsZero, WindowRestrictsToRecentSamples) {
  // Old history anti-correlated, recent window perfectly correlated.
  const TimeSeries victim = grid_series({10.0, 1.0, 10.0, 1.0, 2.0, 4.0, 8.0});
  const TimeSeries suspect = grid_series({1.0, 10.0, 1.0, 10.0, 2.0, 4.0, 8.0});
  const double full = pearson_missing_as_zero(victim, suspect, 99);
  const double recent = pearson_missing_as_zero(victim, suspect, 3);
  EXPECT_LT(full, 0.5);
  EXPECT_NEAR(recent, 1.0, 1e-12);
}

TEST(WindowedPearson, AgreesWithFullAlignmentReference) {
  // The O(window)-tail implementation must equal the naive full align_to
  // reference on random series.
  Rng rng(77);
  TimeSeries victim;
  TimeSeries suspect;
  double t = 0.0;
  for (int i = 0; i < 60; ++i) {
    t += 5.0;
    victim.add(SimTime(t), rng.uniform());
    if (rng.bernoulli(0.7)) suspect.add(SimTime(t), rng.uniform());
  }
  for (const std::size_t w : {std::size_t{3}, std::size_t{12}, std::size_t{60}}) {
    const auto aligned = align_to(victim, suspect);
    const std::size_t start = victim.size() - std::min(w, victim.size());
    const double reference =
        pearson(victim.values().subspan(start), std::span<const double>(aligned).subspan(start));
    EXPECT_NEAR(pearson_missing_as_zero(victim, suspect, w), reference, 1e-12);
  }
}

TEST(PearsonMissingAsZero, EmptySuspectGivesZero) {
  const TimeSeries victim = grid_series({1.0, 2.0, 3.0});
  const TimeSeries suspect;
  EXPECT_EQ(pearson_missing_as_zero(victim, suspect), 0.0);
}

}  // namespace
}  // namespace perfcloud::sim
