// Monitor-blackout semantics of the identification pipeline: the paper's
// missing-as-zero rule under long sample gaps, and the guarantee that a
// suspect whose monitor is dark can never NEWLY cross the identification
// threshold on zero-filled data.
#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "core/identifier.hpp"
#include "exp/cluster.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "sim/correlation.hpp"
#include "sim/time_series.hpp"
#include "workloads/benchmarks.hpp"

namespace perfcloud {
namespace {

constexpr double kDt = 5.0;

/// Victim and suspect move together until `blackout_from`; the suspect then
/// records nothing until `blackout_to`, after which it tracks again.
void build_pair(sim::TimeSeries& victim, sim::TimeSeries& suspect, double until_s,
                double blackout_from, double blackout_to) {
  for (double t = 0.0; t <= until_s; t += kDt) {
    const double v = 10.0 + 8.0 * std::sin(t / 7.0);
    victim.add(sim::SimTime(t), v);
    if (t < blackout_from || t >= blackout_to) suspect.add(sim::SimTime(t), v * 3.0);
  }
}

TEST(MissingAsZero, CorrelationDecaysUnderBlackoutWithoutNanAndRecovers) {
  const std::size_t window = 12;

  // Fully before the blackout: near-perfect correlation.
  {
    sim::TimeSeries victim("v");
    sim::TimeSeries suspect("s");
    build_pair(victim, suspect, 100.0, 200.0, 200.0);
    EXPECT_GT(sim::pearson_missing_as_zero(victim, suspect, window), 0.95);
  }

  // The victim keeps sampling through a long blackout: every new interval
  // swaps a real pair for a zero-fill pair, so the evidence decays (not
  // necessarily monotonically — the zero-fill beats against the signal) —
  // and once the window is ALL zeros the suspect side has no variance,
  // which must read as 0, never NaN.
  sim::TimeSeries victim("v");
  sim::TimeSeries suspect("s");
  double last = 1.0;
  for (double until = 100.0; until <= 160.0; until += kDt) {
    victim.clear();
    suspect.clear();
    build_pair(victim, suspect, until, 100.0, 1e9);
    const double corr = sim::pearson_missing_as_zero(victim, suspect, window);
    EXPECT_TRUE(std::isfinite(corr)) << "at t=" << until;
    EXPECT_LT(std::abs(corr), 0.95) << "stale evidence held at t=" << until;
    last = std::abs(corr);
  }
  EXPECT_LT(last, 0.3);  // after 60 s dark, the evidence is mostly gone

  // Window fully inside the blackout: exactly zero.
  victim.clear();
  suspect.clear();
  build_pair(victim, suspect, 200.0, 100.0, 1e9);
  EXPECT_DOUBLE_EQ(sim::pearson_missing_as_zero(victim, suspect, window), 0.0);

  // Samples resume: one full window later the correlation is back.
  victim.clear();
  suspect.clear();
  build_pair(victim, suspect, 200.0 + kDt * static_cast<double>(window), 100.0, 200.0);
  EXPECT_GT(sim::pearson_missing_as_zero(victim, suspect, window), 0.95);
}

TEST(Identifier, FullyDarkSuspectScoresZeroWhileLiveSuspectCrosses) {
  core::PerfCloudConfig cfg;
  sim::TimeSeries victim("v");
  sim::TimeSeries live("live");
  sim::TimeSeries dark("dark");
  // The dark suspect stopped reporting long before the current window.
  for (double t = 0.0; t <= 40.0; t += kDt) dark.add(sim::SimTime(t), 30.0);
  for (double t = 200.0; t <= 400.0; t += kDt) {
    const double v = 10.0 + 8.0 * std::sin(t / 7.0);
    victim.add(sim::SimTime(t), v);
    live.add(sim::SimTime(t), v * 3.0);
  }

  const std::vector<core::SuspectSignal> suspects{{1, &live}, {2, &dark}};
  core::AntagonistIdentifier identifier(cfg);
  std::vector<core::SuspectScore> scores;
  identifier.score(victim, suspects, scores);
  ASSERT_EQ(scores.size(), 2u);
  EXPECT_TRUE(scores[0].antagonist);
  EXPECT_FALSE(scores[1].antagonist);
  EXPECT_TRUE(std::isfinite(scores[1].correlation));
  EXPECT_DOUBLE_EQ(scores[1].correlation, 0.0);
}

TEST(NodeManagerBlackout, DarkSuspectIsOnlyIdentifiedAfterSamplesResume) {
  // Both halves on a panel of seeds. Over seeds 2000–2059 the dark suspect
  // was never identified while dark (60/60), and was identified by the end
  // of fio's run on 59/60 or more; by t = 300 s only on about half, so that
  // earlier deadline was seed luck, not the model.
  constexpr double kFioStart = 20.0;
  constexpr double kFioDuration = 400.0;
  constexpr double kDarkUntil = 100.0;
  for (std::uint64_t seed = 2026; seed <= 2030; ++seed) {
    exp::ClusterParams p;
    p.hosts = 1;
    p.workers = 10;
    p.seed = seed;
    exp::Cluster c = exp::make_cluster(p);
    const int fio = exp::add_fio(
        c, "host-0",
        wl::FioRandomRead::Params{.duration_s = kFioDuration, .start_s = kFioStart});
    exp::enable_perfcloud(c, core::PerfCloudConfig{});
    core::NodeManager& nm = c.node_manager(0);

    // fio's monitor is dark from before it even starts until kDarkUntil:
    // whatever pressure it exerts, the node manager sees only zero-fill for it.
    faults::FaultPlan plan;
    plan.monitor_blackout("host-0", 0.0, kDarkUntil, fio);
    faults::FaultInjector injector(*c.cloud, plan);
    exp::attach_faults(c, injector);

    // Keep the cluster contended well past the blackout.
    for (const double at : {0.0, 100.0, 200.0}) {
      c.engine->at(sim::SimTime(at), [&c](sim::SimTime) {
        (void)c.framework->submit(wl::make_spark_logreg(30, 8));
      });
    }

    exp::run_for(c, kDarkUntil);
    EXPECT_FALSE(nm.io_first_identified().contains(fio))
        << "seed " << seed << ": a dark suspect must not be newly identified on zero-filled data";
    EXPECT_FALSE(nm.cpu_first_identified().contains(fio)) << "seed " << seed;

    exp::run_for(c, kFioStart + kFioDuration - kDarkUntil);
    ASSERT_TRUE(nm.io_first_identified().contains(fio))
        << "seed " << seed << ": identification must recover once samples resume";
    EXPECT_GE(nm.io_first_identified().at(fio).seconds(), kDarkUntil) << "seed " << seed;
  }
}

}  // namespace
}  // namespace perfcloud
