// Ablation — why CUBIC? Controller-law comparison and parameter sweeps.
//
// The paper motivates the CUBIC-inspired law with control stability
// (§III-C): ad-hoc capping oscillates, and CUBIC's plateau keeps the system
// near the last known-bad operating point before probing. This bench
// compares control laws on the Fig 9 scenario and sweeps beta / gamma:
//   - victim JCT,
//   - antagonist throughput (what the cap costs the fio VM),
//   - signal overshoot: time the iowait deviation spends above threshold.
#include <iostream>
#include <map>
#include <memory>

#include "baselines/aimd.hpp"
#include "common.hpp"
#include "exp/report.hpp"

using namespace perfcloud;

namespace {

struct Outcome {
  double jct = 0.0;
  double fio_iops = 0.0;
  double over_threshold_s = 0.0;
};

/// Drive the Fig 9-style scenario with a configurable PerfCloud, or with an
/// external AIMD loop replacing the CUBIC controllers.
Outcome run(const core::PerfCloudConfig& cfg, bool use_aimd, std::uint64_t seed) {
  exp::Cluster c = bench::small_scale_cluster(seed);
  const int fio = exp::add_fio(c, "host-0", wl::FioRandomRead::Params{.start_s = 15.0});
  exp::add_stream(c, "host-0", wl::StreamBenchmark::Params{.threads = 16, .start_s = 15.0});

  std::unique_ptr<base::AimdController> aimd;
  if (use_aimd) {
    // Monitoring-only node manager supplies the signal; we actuate.
    exp::enable_perfcloud(c, cfg, /*control=*/false);
    c.engine->every(cfg.sample_interval_s, [&c, &aimd, fio, &cfg](sim::SimTime) {
      core::NodeManager& nm = c.node_manager(0);
      const auto& sig = nm.deviation_signal(core::kIo, "hadoop");
      if (sig.empty()) return;
      const bool contended = sig.value(sig.size() - 1) > cfg.io_deviation_threshold;
      if (!aimd) {
        if (!contended) return;  // engage on first contention, as PerfCloud would
        aimd = std::make_unique<base::AimdController>(
            base::AimdController::Params{}, std::max(nm.monitor().observed_io_bps(fio), 1.0e6));
      }
      aimd->step(contended);
      if (aimd->lifted()) {
        c.cloud->host("host-0").clear_blkio_throttle(fio);
        aimd.reset();
      } else {
        c.cloud->host("host-0").set_blkio_throttle(fio, aimd->cap_absolute());
      }
    }, sim::SimTime(cfg.sample_interval_s + 0.001));
  } else {
    exp::enable_perfcloud(c, cfg);
  }

  Outcome o;
  o.jct = exp::run_job(c, wl::make_spark_logreg(40, 8));
  o.fio_iops = dynamic_cast<const wl::FioRandomRead*>(c.vm(fio).guest())->achieved_iops();
  const auto& sig = c.node_manager(0).deviation_signal(core::kIo, "hadoop");
  for (std::size_t i = 0; i < sig.size(); ++i) {
    if (sig.value(i) > cfg.io_deviation_threshold) o.over_threshold_s += cfg.sample_interval_s;
  }
  return o;
}

}  // namespace

int main() {
  constexpr std::uint64_t kSeed = 19;
  exp::print_banner(std::cout, "Ablation", "control law and parameter sweeps (Fig 9 scenario)");

  exp::Table t({"controller", "JCT (s)", "fio IOPS", "signal > H (s)"});
  const auto row = [&](const std::string& name, const Outcome& o) {
    t.add_row({name, exp::fmt(o.jct, 0), exp::fmt(o.fio_iops, 0),
               exp::fmt(o.over_threshold_s, 0)});
  };

  core::PerfCloudConfig cubic;
  row("CUBIC (paper: beta .8, gamma .005)", run(cubic, false, kSeed));
  row("AIMD (beta .8, alpha .08)", run(cubic, true, kSeed));

  core::PerfCloudConfig slow = cubic;
  slow.gamma = 0.001;
  row("CUBIC gamma .001 (slow recovery)", run(slow, false, kSeed));

  core::PerfCloudConfig fast = cubic;
  fast.gamma = 0.05;
  row("CUBIC gamma .05 (fast probing)", run(fast, false, kSeed));

  core::PerfCloudConfig gentle = cubic;
  gentle.beta = 0.3;
  row("CUBIC beta .3 (gentle decrease)", run(gentle, false, kSeed));

  t.print(std::cout);
  std::cout << "\nReading: slow gamma starves the antagonist for longer than needed;\n"
               "fast gamma and gentle beta let contention linger (more time above\n"
               "threshold); the paper's setting balances victim JCT against the\n"
               "antagonist's residual throughput.\n";
  return 0;
}
