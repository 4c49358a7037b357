#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <vector>

#include "sim/rng.hpp"
#include "sim/stats.hpp"

namespace perfcloud::sim {
namespace {

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 1000; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, DifferentSeedsDiverge) {
  Rng a(1);
  Rng b(2);
  int differing = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() != b()) ++differing;
  }
  EXPECT_GT(differing, 95);
}

TEST(Rng, UniformInUnitInterval) {
  Rng r(7);
  for (int i = 0; i < 10000; ++i) {
    const double u = r.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformRangeRespected) {
  Rng r(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = r.uniform(-3.0, 5.0);
    EXPECT_GE(u, -3.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, UniformMeanIsCentered) {
  Rng r(11);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.uniform());
  EXPECT_NEAR(s.mean(), 0.5, 0.01);
}

TEST(Rng, UniformIntInclusiveBounds) {
  Rng r(13);
  bool saw_lo = false;
  bool saw_hi = false;
  for (int i = 0; i < 10000; ++i) {
    const auto v = r.uniform_int(2, 5);
    EXPECT_GE(v, 2);
    EXPECT_LE(v, 5);
    saw_lo |= v == 2;
    saw_hi |= v == 5;
  }
  EXPECT_TRUE(saw_lo);
  EXPECT_TRUE(saw_hi);
}

TEST(Rng, UniformIntSingleton) {
  Rng r(17);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(r.uniform_int(9, 9), 9);
}

TEST(Rng, NormalMomentsMatch) {
  Rng r(19);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.normal());
  EXPECT_NEAR(s.mean(), 0.0, 0.02);
  EXPECT_NEAR(s.stddev(), 1.0, 0.02);
}

/// 10^6 standard normals from one fixed seed: the sample the distribution
/// tests below share.
std::vector<double> million_normals() {
  Rng r(61);
  std::vector<double> z(1000000);
  for (double& v : z) v = r.normal();
  return z;
}

/// P(|Z| > k) for a standard normal.
double two_sided_tail(double k) { return std::erfc(k / std::sqrt(2.0)); }

/// Expects `count` successes out of `n` within 4 binomial SDs of rate `p`.
void expect_binomial(int count, int n, double p, const char* what) {
  const double mean = n * p;
  const double sd = std::sqrt(n * p * (1.0 - p));
  EXPECT_NEAR(count, mean, 4.0 * sd) << what;
}

TEST(Rng, NormalPassesKolmogorovSmirnovAgainstPhi) {
  std::vector<double> z = million_normals();
  std::sort(z.begin(), z.end());
  const double n = static_cast<double>(z.size());
  double d = 0.0;
  for (std::size_t i = 0; i < z.size(); ++i) {
    const double phi = 0.5 * std::erfc(-z[i] / std::sqrt(2.0));
    d = std::max({d, phi - static_cast<double>(i) / n, static_cast<double>(i + 1) / n - phi});
  }
  EXPECT_LT(d, 1.628 / std::sqrt(n));  // 1% critical value of the KS statistic
}

TEST(Rng, NormalTailMassesAndSignAreSymmetricAndCorrect) {
  const std::vector<double> z = million_normals();
  const int n = static_cast<int>(z.size());
  const auto count = [&](auto pred) {
    return static_cast<int>(std::count_if(z.begin(), z.end(), pred));
  };
  expect_binomial(count([](double v) { return std::abs(v) > 3.0; }), n, two_sided_tail(3.0),
                  "P(|z| > 3)");
  expect_binomial(count([](double v) { return std::abs(v) > 4.0; }), n, two_sided_tail(4.0),
                  "P(|z| > 4)");
  expect_binomial(count([](double v) { return v > 0.0; }), n, 0.5, "P(z > 0)");
  expect_binomial(count([](double v) { return v > 2.0; }), n, 0.5 * two_sided_tail(2.0),
                  "P(z > 2)");
  expect_binomial(count([](double v) { return v < -2.0; }), n, 0.5 * two_sided_tail(2.0),
                  "P(z < -2)");
}

TEST(Rng, NormalDrawsBeyondTheZigguratBaseAtTheNormalRate) {
  // The sampler's bottom strip hands values beyond R to a separate tail
  // method; they must appear, on both sides, at the normal rate.
  constexpr double kR = 3.442619855899;
  const std::vector<double> z = million_normals();
  const int n = static_cast<int>(z.size());
  const auto count = [&](auto pred) {
    return static_cast<int>(std::count_if(z.begin(), z.end(), pred));
  };
  expect_binomial(count([](double v) { return v > kR; }), n, 0.5 * two_sided_tail(kR), "z > R");
  expect_binomial(count([](double v) { return v < -kR; }), n, 0.5 * two_sided_tail(kR),
                  "z < -R");
}

TEST(Rng, CopiedGeneratorReproducesTheNormalSequence) {
  static_assert(std::is_trivially_copyable_v<Rng>);
  Rng a(67);
  for (int i = 0; i < 1000; ++i) (void)a.normal();
  Rng b = a;
  for (int i = 0; i < 100000; ++i) ASSERT_EQ(a.normal(), b.normal()) << "draw " << i;
  EXPECT_EQ(a(), b());
}

TEST(Rng, NormalWithParams) {
  Rng r(23);
  RunningStats s;
  for (int i = 0; i < 50000; ++i) s.add(r.normal(10.0, 2.0));
  EXPECT_NEAR(s.mean(), 10.0, 0.05);
  EXPECT_NEAR(s.stddev(), 2.0, 0.05);
}

TEST(Rng, LognormalMedianIsMedian) {
  Rng r(29);
  std::vector<double> xs;
  xs.reserve(50000);
  for (int i = 0; i < 50000; ++i) xs.push_back(r.lognormal_median(4.0, 0.8));
  EXPECT_NEAR(percentile_of(xs, 0.5), 4.0, 0.1);
  for (double x : xs) EXPECT_GT(x, 0.0);
}

TEST(Rng, ExponentialMean) {
  Rng r(31);
  RunningStats s;
  for (int i = 0; i < 100000; ++i) s.add(r.exponential(7.0));
  EXPECT_NEAR(s.mean(), 7.0, 0.15);
}

TEST(Rng, BernoulliFrequency) {
  Rng r(37);
  int hits = 0;
  for (int i = 0; i < 100000; ++i) hits += r.bernoulli(0.3) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(hits) / 100000.0, 0.3, 0.01);
}

TEST(Rng, BernoulliDegenerate) {
  Rng r(41);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(r.bernoulli(0.0));
    EXPECT_TRUE(r.bernoulli(1.0));
  }
}

TEST(Rng, ParetoStaysInBounds) {
  Rng r(43);
  for (int i = 0; i < 10000; ++i) {
    const double v = r.pareto(1.0, 100.0, 1.2);
    EXPECT_GE(v, 1.0 - 1e-9);
    EXPECT_LE(v, 100.0 + 1e-9);
  }
}

TEST(Rng, ParetoIsHeavyTailedTowardLow) {
  Rng r(47);
  int low = 0;
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    if (r.pareto(1.0, 100.0, 1.5) < 10.0) ++low;
  }
  // Most mass near the lower bound for alpha > 1.
  EXPECT_GT(low, n * 8 / 10);
}

TEST(Rng, SplitProducesIndependentStream) {
  Rng parent(51);
  Rng child = parent.split(1);
  Rng child2 = parent.split(1);  // parent state advanced -> different stream
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (child() == child2()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitWithDifferentSaltDiffers) {
  Rng p1(53);
  Rng p2(53);
  Rng a = p1.split(1);
  Rng b = p2.split(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a() == b()) ++same;
  }
  EXPECT_LT(same, 5);
}

TEST(Rng, SplitIsReproducible) {
  Rng p1(59);
  Rng p2(59);
  Rng a = p1.split(77);
  Rng b = p2.split(77);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a(), b());
}

TEST(Rng, SatisfiesUniformRandomBitGenerator) {
  static_assert(std::uniform_random_bit_generator<Rng>);
  EXPECT_EQ(Rng::min(), 0u);
  EXPECT_EQ(Rng::max(), ~std::uint64_t{0});
}

TEST(SplitMix64, KnownSequenceIsStable) {
  std::uint64_t s = 0;
  const std::uint64_t a = splitmix64(s);
  const std::uint64_t b = splitmix64(s);
  EXPECT_NE(a, b);
  std::uint64_t s2 = 0;
  EXPECT_EQ(splitmix64(s2), a);
  EXPECT_EQ(splitmix64(s2), b);
}

}  // namespace
}  // namespace perfcloud::sim
