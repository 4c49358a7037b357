#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numeric>
#include <vector>

#include "hw/allocation.hpp"
#include "hw/tenant.hpp"
#include "sim/rng.hpp"

namespace perfcloud::hw {
namespace {

/// The vector-returning shape the cases below were written against.
std::vector<double> allocate(double capacity, std::span<const Claim> claims) {
  std::vector<double> granted(claims.size());
  weighted_fair_allocate(capacity, claims, granted);
  return granted;
}

constexpr double kBig = 1e18;

TEST(WeightedFairAllocate, EmptyClaims) {
  EXPECT_TRUE(allocate(10.0, {}).empty());
}

TEST(WeightedFairAllocate, UndersubscribedEveryoneSatisfied) {
  const std::vector<Claim> claims = {{2.0, 1.0, kBig}, {3.0, 1.0, kBig}};
  const auto g = allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 3.0);
}

TEST(WeightedFairAllocate, OversubscribedEqualWeightsSplitEvenly) {
  const std::vector<Claim> claims = {{10.0, 1.0, kBig}, {10.0, 1.0, kBig}};
  const auto g = allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 5.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
}

TEST(WeightedFairAllocate, WeightsProportionalWhenUnsatisfied) {
  const std::vector<Claim> claims = {{100.0, 3.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = allocate(8.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 6.0);
  EXPECT_DOUBLE_EQ(g[1], 2.0);
}

TEST(WeightedFairAllocate, SurplusRedistributedToHungry) {
  // First claimant needs little; its leftover share goes to the second.
  const std::vector<Claim> claims = {{1.0, 1.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 9.0);
}

TEST(WeightedFairAllocate, CapsBindBeforeDemand) {
  const std::vector<Claim> claims = {{100.0, 1.0, 2.0}, {100.0, 1.0, kBig}};
  const auto g = allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 2.0);
  EXPECT_DOUBLE_EQ(g[1], 8.0);
}

TEST(WeightedFairAllocate, ZeroCapGetsNothing) {
  const std::vector<Claim> claims = {{5.0, 1.0, 0.0}, {5.0, 1.0, kBig}};
  const auto g = allocate(4.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 4.0);
}

TEST(WeightedFairAllocate, ZeroDemandGetsNothing) {
  const std::vector<Claim> claims = {{0.0, 1.0, kBig}, {5.0, 1.0, kBig}};
  const auto g = allocate(10.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
}

TEST(WeightedFairAllocate, ZeroCapacity) {
  const std::vector<Claim> claims = {{5.0, 1.0, kBig}};
  const auto g = allocate(0.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 0.0);
}

TEST(WeightedFairAllocate, ThreeTierWaterfill) {
  // capacity 12, equal weights: fair share 4; A capped at 1 -> surplus to
  // B and C; B needs only 5, C soaks the rest.
  const std::vector<Claim> claims = {{10.0, 1.0, 1.0}, {5.0, 1.0, kBig}, {100.0, 1.0, kBig}};
  const auto g = allocate(12.0, claims);
  EXPECT_DOUBLE_EQ(g[0], 1.0);
  EXPECT_DOUBLE_EQ(g[1], 5.0);
  EXPECT_DOUBLE_EQ(g[2], 6.0);
}

// The water-filling as it stood before it wrote into a caller span: separate
// `want` and `frozen` scratch arrays. Kept verbatim as the oracle for the
// scratch-free version.
std::vector<double> reference_allocate(double capacity, std::span<const Claim> claims) {
  const std::size_t n = claims.size();
  std::vector<double> granted(n, 0.0);
  if (n == 0 || capacity <= 0.0) return granted;

  std::vector<double> want(n);
  for (std::size_t i = 0; i < n; ++i) {
    want[i] = std::min(claims[i].demand, std::max(0.0, claims[i].cap));
  }

  std::vector<bool> frozen(n, false);
  double remaining = capacity;
  for (std::size_t round = 0; round < n; ++round) {
    double active_weight = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (!frozen[i] && granted[i] < want[i]) active_weight += claims[i].weight;
    }
    if (active_weight <= 0.0 || remaining <= 1e-15) break;

    bool any_frozen = false;
    double handed_out = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      if (frozen[i] || granted[i] >= want[i]) continue;
      const double share = remaining * claims[i].weight / active_weight;
      const double room = want[i] - granted[i];
      if (share >= room) {
        granted[i] = want[i];
        handed_out += room;
        frozen[i] = true;
        any_frozen = true;
      } else {
        granted[i] += share;
        handed_out += share;
      }
    }
    remaining -= handed_out;
    if (!any_frozen) break;
  }
  return granted;
}

void expect_matches_reference(double capacity, std::span<const Claim> claims, int trial) {
  const std::vector<double> expected = reference_allocate(capacity, claims);
  const std::vector<double> got = allocate(capacity, claims);
  ASSERT_EQ(got.size(), expected.size());
  if (!claims.empty()) {
    ASSERT_EQ(std::memcmp(got.data(), expected.data(), claims.size() * sizeof(double)), 0)
        << "trial " << trial << ", n " << claims.size() << ", capacity " << capacity;
  }
}

TEST(WeightedFairAllocate, MatchesReferenceBitForBit) {
  // 2000 seeded claim sets covering every branch: empty sets, zero and
  // negative capacity, zero demand, zero/negative/kNoCap caps, caps equal to
  // demand (the disk and memory-bandwidth shape), and exact ties.
  sim::Rng rng(0x5eedfa11);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(rng.uniform_int(0, 40));
    std::vector<Claim> claims(n);
    double total_demand = 0.0;
    for (Claim& c : claims) {
      c.demand = rng.bernoulli(0.15) ? 0.0 : rng.uniform(0.0, 20.0);
      c.weight = rng.bernoulli(0.3) ? 1.0 : rng.uniform(0.1, 10.0);
      const double pick = rng.uniform(0.0, 1.0);
      if (pick < 0.35) {
        c.cap = kNoCap;
      } else if (pick < 0.45) {
        c.cap = 0.0;
      } else if (pick < 0.55) {
        c.cap = -rng.uniform(0.0, 5.0);
      } else if (pick < 0.7) {
        c.cap = c.demand;
      } else {
        c.cap = rng.uniform(0.0, 15.0);
      }
      total_demand += c.demand;
    }
    const double pick = rng.uniform(0.0, 1.0);
    const double capacity = pick < 0.1    ? 0.0
                            : pick < 0.15 ? -rng.uniform(0.0, 10.0)
                            : pick < 0.25 ? total_demand
                                          : rng.uniform(0.0, 1.5 * total_demand + 1.0);

    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(capacity, claims, trial));
  }

  // The round that freezes every active claimant returns at once. Drive it
  // at its edges: capacity exactly the total want and one ulp either side
  // of it, with unequal weights (one ulp short leaves at least one claimant
  // a hair under its want, so a second round runs), and the all-fit CPU
  // shape, uncapped demands far below capacity.
  sim::Rng edge(0xed9e5);
  for (int trial = 0; trial < 2000; ++trial) {
    const auto n = static_cast<std::size_t>(edge.uniform_int(1, 40));
    std::vector<Claim> claims(n);
    const bool all_fit = trial % 4 == 3;
    double total_want = 0.0;
    for (Claim& c : claims) {
      if (all_fit) {
        c.demand = edge.bernoulli(0.1) ? 0.0 : edge.uniform(0.0, 0.5);
        c.weight = 1.0;
        c.cap = edge.bernoulli(0.5) ? kNoCap : 2.0;
      } else {
        c.demand = edge.bernoulli(0.1) ? 0.0 : edge.uniform(0.0, 20.0);
        c.weight = edge.uniform(0.1, 10.0);
        c.cap = edge.bernoulli(0.5) ? kNoCap : edge.uniform(0.0, 15.0);
      }
      total_want += std::min(c.demand, std::max(0.0, c.cap));
    }
    double capacity = 48.0 * 0.25;
    if (!all_fit) {
      capacity = trial % 4 == 0   ? total_want
                 : trial % 4 == 1 ? std::nextafter(total_want, kNoCap)
                                  : std::nextafter(total_want, -kNoCap);
    }
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(capacity, claims, trial));
  }
}

// Property-based sweep over random claim sets.
class AllocationProperties : public ::testing::TestWithParam<int> {};

TEST_P(AllocationProperties, InvariantsHold) {
  sim::Rng rng(static_cast<std::uint64_t>(GetParam()) * 977 + 5);
  const int n = 1 + static_cast<int>(rng.uniform_int(0, 9));
  std::vector<Claim> claims;
  for (int i = 0; i < n; ++i) {
    Claim c;
    c.demand = rng.uniform(0.0, 20.0);
    c.weight = rng.uniform(0.1, 5.0);
    c.cap = rng.bernoulli(0.3) ? rng.uniform(0.0, 10.0) : kBig;
    claims.push_back(c);
  }
  const double capacity = rng.uniform(0.0, 40.0);
  const auto g = allocate(capacity, claims);

  ASSERT_EQ(g.size(), claims.size());
  double total = 0.0;
  double effective_demand = 0.0;
  for (std::size_t i = 0; i < g.size(); ++i) {
    const double want = std::min(claims[i].demand, claims[i].cap);
    EXPECT_GE(g[i], -1e-9);
    EXPECT_LE(g[i], want + 1e-9);
    total += g[i];
    effective_demand += want;
  }
  // Total never exceeds capacity.
  EXPECT_LE(total, capacity + 1e-6);
  // Work conservation: total == min(capacity, total effective demand).
  EXPECT_NEAR(total, std::min(capacity, effective_demand), 1e-6);
}

INSTANTIATE_TEST_SUITE_P(RandomClaims, AllocationProperties, ::testing::Range(0, 40));

}  // namespace
}  // namespace perfcloud::hw
