#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <span>
#include <vector>

#include "core/detector.hpp"
#include "core/identifier.hpp"
#include "sim/correlation.hpp"
#include "sim/rng.hpp"

namespace perfcloud::core {
namespace {

VmSample sample(double ratio, double cpi) {
  VmSample s;
  s.iowait_ratio_ms = ratio;
  s.cpi = cpi;
  return s;
}

TEST(Detector, UniformSamplesNotContended) {
  const InterferenceDetector det{PerfCloudConfig{}};
  const VmSample a = sample(3.0, 1.0);
  const VmSample b = sample(3.2, 1.05);
  const VmSample c = sample(2.9, 0.98);
  const std::vector<const VmSample*> vms = {&a, &b, &c};
  const DetectionResult r = det.evaluate(vms);
  EXPECT_FALSE(r.contended[kIo]);
  EXPECT_FALSE(r.contended[kCpu]);
  EXPECT_LT(r.deviation[kIo], 10.0);
  EXPECT_LT(r.deviation[kCpu], 1.0);
  EXPECT_EQ(r.samples[kIo], 3u);
}

TEST(Detector, SpreadIowaitRatiosTriggerIo) {
  const InterferenceDetector det{PerfCloudConfig{}};
  const VmSample a = sample(5.0, 1.0);
  const VmSample b = sample(60.0, 1.0);
  const VmSample c = sample(110.0, 1.0);
  const std::vector<const VmSample*> vms = {&a, &b, &c};
  const DetectionResult r = det.evaluate(vms);
  EXPECT_TRUE(r.contended[kIo]);
  EXPECT_FALSE(r.contended[kCpu]);
}

TEST(Detector, SpreadCpiTriggersCpu) {
  const InterferenceDetector det{PerfCloudConfig{}};
  const VmSample a = sample(3.0, 1.0);
  const VmSample b = sample(3.0, 2.8);
  const VmSample c = sample(3.0, 4.5);
  const std::vector<const VmSample*> vms = {&a, &b, &c};
  const DetectionResult r = det.evaluate(vms);
  EXPECT_FALSE(r.contended[kIo]);
  EXPECT_TRUE(r.contended[kCpu]);
}

TEST(Detector, MissingMetricsAreSkipped) {
  const InterferenceDetector det{PerfCloudConfig{}};
  VmSample idle;  // no iowait ratio, no cpi
  const VmSample a = sample(3.0, 1.0);
  const std::vector<const VmSample*> vms = {&a, &idle, nullptr};
  const DetectionResult r = det.evaluate(vms);
  EXPECT_EQ(r.samples[kIo], 1u);
  EXPECT_EQ(r.samples[kCpu], 1u);
  EXPECT_DOUBLE_EQ(r.deviation[kIo], 0.0);  // single sample, no deviation
}

TEST(Detector, EmptyGroupIsQuiet) {
  const InterferenceDetector det{PerfCloudConfig{}};
  const DetectionResult r = det.evaluate({});
  EXPECT_FALSE(r.contended[kIo]);
  EXPECT_FALSE(r.contended[kCpu]);
}

TEST(Detector, CustomThresholds) {
  PerfCloudConfig cfg;
  cfg.io_deviation_threshold = 0.01;
  cfg.cpi_deviation_threshold = 0.01;
  const InterferenceDetector det{cfg};
  const VmSample a = sample(1.0, 1.0);
  const VmSample b = sample(1.1, 1.1);
  const std::vector<const VmSample*> vms = {&a, &b};
  const DetectionResult r = det.evaluate(vms);
  EXPECT_TRUE(r.contended[kIo]);
  EXPECT_TRUE(r.contended[kCpu]);
}

// --- Identifier ---

sim::TimeSeries series_of(const std::vector<double>& vals) {
  sim::TimeSeries ts;
  for (std::size_t i = 0; i < vals.size(); ++i) {
    ts.add(sim::SimTime(5.0 * static_cast<double>(i + 1)), vals[i]);
  }
  return ts;
}

/// One victim signal's scores in a fresh vector.
std::vector<SuspectScore> scores_of(AntagonistIdentifier& ident, const sim::TimeSeries& victim,
                                    std::span<const SuspectSignal> suspects) {
  std::vector<SuspectScore> out;
  ident.score(victim, suspects, out);
  return out;
}

TEST(Identifier, RequiresMinimumSamples) {
  PerfCloudConfig cfg;
  cfg.min_correlation_samples = 3;
  AntagonistIdentifier ident{cfg};
  const sim::TimeSeries victim = series_of({1.0, 2.0});
  const sim::TimeSeries suspect = series_of({1.0, 2.0});
  const std::vector<SuspectSignal> suspects{{1, &suspect}};
  EXPECT_TRUE(scores_of(ident, victim, suspects).empty());
}

TEST(Identifier, FlagsCorrelatedSuspect) {
  AntagonistIdentifier ident{PerfCloudConfig{}};
  const sim::TimeSeries victim = series_of({1.0, 8.0, 2.0, 9.0, 1.5});
  const sim::TimeSeries correlated = series_of({10.0, 80.0, 20.0, 90.0, 15.0});
  const sim::TimeSeries uncorrelated = series_of({5.0, 4.8, 5.1, 5.2, 4.9});
  const std::vector<SuspectSignal> suspects{{1, &correlated}, {2, &uncorrelated}};
  const auto scores = scores_of(ident, victim, suspects);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_TRUE(scores[0].antagonist);
  EXPECT_GT(scores[0].correlation, 0.95);
  EXPECT_FALSE(scores[1].antagonist);
  EXPECT_LT(std::abs(scores[1].correlation), 0.5);
}

TEST(Identifier, AntiCorrelationIsEvidenceByDefault) {
  // Strong inverse co-movement flags the suspect too (a grant-limited
  // antagonist is squeezed exactly when the victims' waits grow); the
  // paper's positive-only rule is available as a config switch.
  const sim::TimeSeries victim = series_of({1.0, 8.0, 2.0, 9.0, 1.5});
  const sim::TimeSeries anti = series_of({9.0, 2.0, 8.0, 1.0, 8.5});

  const std::vector<SuspectSignal> suspects{{1, &anti}};
  AntagonistIdentifier abs_ident{PerfCloudConfig{}};
  const auto abs_scores = scores_of(abs_ident, victim, suspects);
  EXPECT_TRUE(abs_scores[0].antagonist);
  EXPECT_LT(abs_scores[0].correlation, -0.9);

  PerfCloudConfig paper_cfg;
  paper_cfg.use_absolute_correlation = false;
  AntagonistIdentifier paper_ident{paper_cfg};
  const auto paper_scores = scores_of(paper_ident, victim, suspects);
  EXPECT_FALSE(paper_scores[0].antagonist);
}

TEST(Identifier, NullSeriesScoresZero) {
  AntagonistIdentifier ident{PerfCloudConfig{}};
  const sim::TimeSeries victim = series_of({1.0, 2.0, 3.0, 4.0});
  const std::vector<SuspectSignal> suspects{{7, nullptr}};
  const auto scores = scores_of(ident, victim, suspects);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_DOUBLE_EQ(scores[0].correlation, 0.0);
  EXPECT_FALSE(scores[0].antagonist);
  EXPECT_EQ(scores[0].vm_id, 7);
}

TEST(Identifier, ThreeSamplesSuffice) {
  // Fig 5c: an antagonist is identifiable with a dataset as small as three.
  AntagonistIdentifier ident{PerfCloudConfig{}};
  const sim::TimeSeries victim = series_of({1.0, 9.0, 3.0});
  const sim::TimeSeries suspect = series_of({2.0, 18.0, 6.0});
  const std::vector<SuspectSignal> suspects{{1, &suspect}};
  const auto scores = scores_of(ident, victim, suspects);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_TRUE(scores[0].antagonist);
}

TEST(Identifier, IdleSuspectWithMissingSamplesNotOveremphasized) {
  // Suspect reported only once; missing-as-zero keeps its correlation low
  // even though its single sample coincides with a victim peak.
  AntagonistIdentifier ident{PerfCloudConfig{}};
  const sim::TimeSeries victim = series_of({2.0, 2.1, 8.0, 2.0, 2.05, 1.95});
  sim::TimeSeries sparse;
  sparse.add(sim::SimTime(15.0), 100.0);
  const std::vector<SuspectSignal> suspects{{1, &sparse}};
  const auto scores = scores_of(ident, victim, suspects);
  ASSERT_EQ(scores.size(), 1u);
  EXPECT_TRUE(scores[0].antagonist);  // actually aligned with the only spike
  // But a sparse suspect aligned with a *flat* victim is not flagged:
  const sim::TimeSeries flat = series_of({2.0, 2.1, 2.0, 2.0, 2.05, 1.95});
  const auto scores2 = scores_of(ident, flat, suspects);
  EXPECT_FALSE(scores2[0].antagonist);
}

/// The §III-B rule computed from scratch: full `align_to` alignment, the
/// window's tail, two-pass Pearson, the windowed mean and the magnitude gate.
std::vector<SuspectScore> reference_scores(const PerfCloudConfig& cfg,
                                           const sim::TimeSeries& victim,
                                           std::span<const SuspectSignal> suspects) {
  std::vector<SuspectScore> out;
  if (victim.size() < cfg.min_correlation_samples) return out;
  const std::size_t start = victim.size() - std::min(cfg.correlation_window, victim.size());
  std::vector<double> usage;
  double max_usage = 0.0;
  for (const SuspectSignal& s : suspects) {
    SuspectScore score{s.vm_id, 0.0, false};
    double mean = 0.0;
    if (s.series != nullptr) {
      const std::vector<double> aligned = sim::align_to(victim, *s.series);
      const std::span<const double> tail = std::span<const double>(aligned).subspan(start);
      score.correlation = sim::pearson(victim.values().subspan(start), tail);
      for (const double v : tail) mean += v;
      mean /= static_cast<double>(tail.size());
    }
    usage.push_back(mean);
    max_usage = std::max(max_usage, mean);
    out.push_back(score);
  }
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i].antagonist = std::abs(out[i].correlation) >= cfg.correlation_threshold &&
                        max_usage > 0.0 && usage[i] >= cfg.min_usage_fraction * max_usage;
  }
  return out;
}

/// Scores equal the from-scratch reference bit for bit on growing gappy
/// series, for a suspect series bounded to the correlation window and for
/// an unbounded one.
TEST(AntagonistIdentifier, MatchesPearsonReferenceBitForBit) {
  PerfCloudConfig cfg;
  cfg.correlation_window = 12;
  cfg.min_correlation_samples = 3;

  sim::TimeSeries victim("victim");
  sim::TimeSeries hot("hot-suspect", cfg.correlation_window);  // bounded
  sim::TimeSeries cold("cold-suspect");
  const std::vector<SuspectSignal> suspects = {{7, &hot}, {8, &cold}};
  AntagonistIdentifier ident(cfg);

  sim::Rng rng(55);
  for (int i = 0; i < 120; ++i) {
    const sim::SimTime t(i * 2.0);
    const double x = rng.uniform(0.0, 30.0);
    victim.add(t, x);
    if (rng.uniform() < 0.8) hot.add(t, 3.0 * x + rng.uniform(0.0, 5.0));
    if (rng.uniform() < 0.6) cold.add(t, rng.uniform(0.0, 30.0));

    const auto want = reference_scores(cfg, victim, suspects);
    const auto got = scores_of(ident, victim, suspects);
    ASSERT_EQ(got.size(), want.size()) << "i=" << i;
    for (std::size_t s = 0; s < want.size(); ++s) {
      EXPECT_EQ(got[s].vm_id, want[s].vm_id);
      EXPECT_EQ(got[s].correlation, want[s].correlation) << "i=" << i << " s=" << s;
      EXPECT_EQ(got[s].antagonist, want[s].antagonist) << "i=" << i << " s=" << s;
    }
  }
}

/// A suspect that is absent for a whole window (just migrated in, or
/// started late) and then runs at a steady high rate that tracks the
/// victim: as soon as its missing-as-zero lead-in has left the window it
/// correlates perfectly and is flagged. (An incremental scorer whose
/// zero-variance guard was relative to sums anchored at the window's first
/// sample read r = 0 here.)
TEST(AntagonistIdentifier, SuspectAfterMissingLeadInIsIdentified) {
  PerfCloudConfig cfg;
  cfg.correlation_window = 12;
  AntagonistIdentifier ident(cfg);

  sim::TimeSeries victim("victim");
  sim::TimeSeries suspect("suspect");
  const std::vector<SuspectSignal> suspects{{1, &suspect}};
  for (int k = 0; k < 80; ++k) {
    const sim::SimTime t(5.0 * k);
    const double x = 10.0 + 5.0 * std::sin(0.9 * k);
    victim.add(t, x);
    if (k >= 12) suspect.add(t, 1e9 + 1e3 * x);
    const auto scores = scores_of(ident, victim, suspects);
    if (k < 23) continue;
    ASSERT_EQ(scores.size(), 1u);
    EXPECT_NEAR(scores[0].correlation, 1.0, 1e-9) << "k=" << k;
    EXPECT_TRUE(scores[0].antagonist) << "k=" << k;
  }
}

/// §III-B magnitude gate: when every suspect's windowed usage is zero there
/// is no "heaviest user" to compare against, and nothing idle can be the
/// antagonist — a zero-mean signal with a perfect (artifact) correlation must
/// NOT be flagged. Before the fix, max_usage == 0 made the
/// `usage >= fraction * max_usage` comparison vacuously true for everyone.
TEST(AntagonistIdentifier, AllZeroUsageSuspectsAreNeverFlagged) {
  PerfCloudConfig cfg;
  cfg.correlation_window = 8;
  cfg.min_correlation_samples = 3;

  sim::TimeSeries victim("victim");
  sim::TimeSeries balanced("balanced");  // windowed mean exactly zero, corr = 1
  sim::TimeSeries idle("idle");          // all-zero samples
  for (int i = 0; i < 8; ++i) {
    const sim::SimTime t(i * 1.0);
    victim.add(t, static_cast<double>(i));
    balanced.add(t, static_cast<double>(i) - 3.5);
    idle.add(t, 0.0);
  }
  const std::vector<SuspectSignal> suspects = {{1, &balanced}, {2, &idle}};

  AntagonistIdentifier ident(cfg);
  const auto scores = scores_of(ident, victim, suspects);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_NEAR(scores[0].correlation, 1.0, 1e-9);  // the artifact is real...
  EXPECT_FALSE(scores[0].antagonist);             // ...but an idle VM never flags
  EXPECT_FALSE(scores[1].antagonist);

  // Sanity: with an actually-heavy suspect present the gate works as before —
  // the heavy correlated suspect flags, the zero-usage one still cannot.
  sim::TimeSeries heavy("heavy");
  for (int i = 0; i < 8; ++i) heavy.add(sim::SimTime(i * 1.0), 10.0 * i);
  const std::vector<SuspectSignal> with_heavy = {{1, &balanced}, {3, &heavy}};
  const auto scores2 = scores_of(ident, victim, with_heavy);
  ASSERT_EQ(scores2.size(), 2u);
  EXPECT_FALSE(scores2[0].antagonist);
  EXPECT_TRUE(scores2[1].antagonist);
}

}  // namespace
}  // namespace perfcloud::core
