// The identifier reuses its scratch (aligned window, per-suspect usage)
// from call to call and appends into a caller-retained vector, as the node
// manager runs it every control interval. These tests check that a call's
// scores never depend on earlier calls: not on a dead victim whose address
// a new one may reuse, not on a different suspect set, not on another
// victim signal scored into the same vector. They run under
// ASan/TSan via the regular sanitizer ctest sweeps of the perf suite.
#include <gtest/gtest.h>

#include <memory>
#include <span>
#include <vector>

#include "core/identifier.hpp"
#include "sim/rng.hpp"
#include "sim/time_series.hpp"

namespace perfcloud::core {
namespace {

sim::TimeSeries linear_series(int n, double slope, double start_t = 0.0) {
  sim::TimeSeries ts;
  for (int i = 0; i < n; ++i) ts.add(sim::SimTime(start_t + 5.0 * i), slope * i);
  return ts;
}

/// One victim signal's scores in a fresh vector.
std::vector<SuspectScore> scores_of(AntagonistIdentifier& ident, const sim::TimeSeries& victim,
                                    std::span<const SuspectSignal> suspects) {
  std::vector<SuspectScore> out;
  ident.score(victim, suspects, out);
  return out;
}

TEST(IdentifierKeys, DeadVictimsStateNeverResurrectsAtReusedAddress) {
  PerfCloudConfig cfg;
  cfg.correlation_window = 8;
  AntagonistIdentifier ident(cfg);
  AntagonistIdentifier fresh(cfg);

  sim::TimeSeries suspect = linear_series(40, 2.0);
  const std::vector<SuspectSignal> suspects{{1, &suspect}};

  // Victim A is scored, then dies.
  auto victim_a = std::make_unique<sim::TimeSeries>(linear_series(30, 1.0));
  (void)scores_of(ident, *victim_a, suspects);
  victim_a.reset();

  // Victim B — very possibly at victim A's freed address — has more samples
  // than A had. Nothing of A may show in its scores.
  auto victim_b = std::make_unique<sim::TimeSeries>(linear_series(40, -3.0));
  const auto got = scores_of(ident, *victim_b, suspects);
  const auto want = scores_of(fresh, *victim_b, suspects);
  ASSERT_EQ(got.size(), want.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].correlation, want[i].correlation) << i;
    EXPECT_EQ(got[i].antagonist, want[i].antagonist) << i;
  }
}

TEST(IdentifierKeys, SuspectSetGrowsAndShrinksWithoutCrossTalk) {
  PerfCloudConfig cfg;
  cfg.correlation_window = 12;
  cfg.min_correlation_samples = 3;
  AntagonistIdentifier ident(cfg);

  sim::Rng rng(17);
  sim::TimeSeries victim("victim");
  sim::TimeSeries s1("s1");
  sim::TimeSeries s2("s2");
  sim::TimeSeries s3("s3");

  // The long-lived identifier must score exactly like a fresh one, whose
  // scratch has never seen another suspect set.
  const auto expect_matches_fresh = [&](const std::vector<SuspectSignal>& suspects, int tag) {
    AntagonistIdentifier fresh(cfg);
    const auto got = scores_of(ident, victim, suspects);
    const auto want = scores_of(fresh, victim, suspects);
    ASSERT_EQ(got.size(), want.size()) << tag;
    for (std::size_t i = 0; i < got.size(); ++i) {
      EXPECT_EQ(got[i].vm_id, want[i].vm_id) << tag;
      EXPECT_EQ(got[i].correlation, want[i].correlation) << tag << " i=" << i;
      EXPECT_EQ(got[i].antagonist, want[i].antagonist) << tag << " i=" << i;
    }
  };

  for (int i = 0; i < 60; ++i) {
    const sim::SimTime t(5.0 * i);
    const double x = rng.uniform(0.0, 20.0);
    victim.add(t, x);
    s1.add(t, 2.0 * x + rng.uniform(0.0, 2.0));
    if (rng.uniform() < 0.7) s2.add(t, rng.uniform(0.0, 20.0));
    s3.add(t, 30.0 - x);

    if (i < 20) {
      expect_matches_fresh({{1, &s1}, {2, &s2}}, i);
    } else if (i < 40) {
      // Suspect 3 appears mid-run.
      expect_matches_fresh({{1, &s1}, {2, &s2}, {3, &s3}}, i);
    } else {
      // Suspects 1 and 3 left (throttled away / evicted): the scratch is
      // larger than this call needs, and none of it may leak into it.
      expect_matches_fresh({{2, &s2}}, i);
    }
  }
}

TEST(IdentifierKeys, AppendingOverloadAccumulatesAcrossVictims) {
  // The node manager accumulates several victims' scores in one retained
  // vector; scoring must append, not clobber.
  PerfCloudConfig cfg;
  cfg.correlation_window = 8;
  cfg.min_correlation_samples = 3;
  AntagonistIdentifier ident(cfg);

  sim::TimeSeries suspect = linear_series(20, 2.0);
  const std::vector<SuspectSignal> suspects{{5, &suspect}};
  sim::TimeSeries io_victim = linear_series(20, 1.0);
  sim::TimeSeries cpi_victim = linear_series(20, -1.0);

  std::vector<SuspectScore> out;
  ident.score(io_victim, suspects, out);
  ASSERT_EQ(out.size(), 1u);
  ident.score(cpi_victim, suspects, out);
  ASSERT_EQ(out.size(), 2u);
  EXPECT_EQ(out[0].vm_id, 5);
  EXPECT_EQ(out[1].vm_id, 5);
  // Opposite-slope victims: correlations are mirrored.
  EXPECT_NEAR(out[0].correlation, -out[1].correlation, 1e-9);
}

}  // namespace
}  // namespace perfcloud::core
