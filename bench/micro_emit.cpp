// Emission-path microbenchmark: what does recording every observation cost
// the simulation loop, and how much of that cost does the async writer
// thread take off the barrier phase?
//
// One mid-sized PerfCloud run (8 hosts / 48 workers, antagonist churn, a
// MapReduce job mix) executes three times:
//   none  — no sink attached (the simulation-only floor)
//   sync  — EventSink with inline writes: merge + format + file I/O all on
//           the engine thread at the post-barrier drain point
//   async — EventSink with the background writer: the drain only merges and
//           hands off; formatting and I/O happen off-thread
//
// The headline number is EventSink::drain_seconds() — cumulative engine-
// thread time inside drain(), i.e. the emission cost still sitting on the
// barrier phase. The bench hard-fails unless the sync and async runs produce
// byte-identical files and the same simulation fingerprint as the sink-free
// run. Results go to stdout and BENCH_emit.json; the output files stay on
// disk (emit_{sync,async}.{csv,jsonl}) for scripts/check.sh to diff.
#include <chrono>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common.hpp"
#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "exp/report.hpp"
#include "exp/summary.hpp"
#include "hw_context.hpp"
#include "workloads/mix.hpp"

using namespace perfcloud;

namespace {

constexpr std::uint64_t kSeed = 77;
constexpr int kJobs = 12;

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string slurp(const std::string& path) {
  std::ifstream f(path);
  std::ostringstream os;
  os << f.rdbuf();
  return os.str();
}

void add_antagonists(exp::Cluster& c, std::uint64_t seed) {
  sim::Rng rng(seed);
  sim::Rng placement_rng = rng.split(0x9fac);
  for (int i = 0; i < 16; ++i) {
    const auto host_idx = static_cast<std::size_t>(
        placement_rng.uniform_int(0, static_cast<std::int64_t>(c.hosts.size()) - 1));
    const std::string& host = c.hosts[host_idx];
    const double start = rng.uniform(0.0, 600.0);
    const double duration = rng.uniform(240.0, 480.0);
    if (i % 2 == 0) {
      exp::add_fio(c, host, wl::FioRandomRead::Params{.duration_s = duration, .start_s = start});
    } else {
      exp::add_stream(c, host,
                      wl::StreamBenchmark::Params{.threads = 16, .duration_s = duration,
                                                  .start_s = start});
    }
  }
}

enum class Mode { kNone, kSync, kAsync };

const char* to_string(Mode m) {
  switch (m) {
    case Mode::kNone: return "none";
    case Mode::kSync: return "sync";
    case Mode::kAsync: return "async";
  }
  return "?";
}

struct RunResult {
  double wall_s = 0.0;
  unsigned shards = 0;  ///< The engine's shard count after the run.
  double drain_s = 0.0;  ///< Engine-thread seconds left on the barrier phase.
  std::uint64_t samples = 0;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  // Simulation fingerprint — must be identical across all three modes.
  double jct_sum = 0.0;
  int completed = 0;
  double final_time_s = 0.0;
};

RunResult run_once(Mode mode) {
  exp::ClusterParams p;
  p.hosts = 8;
  p.workers = 48;
  p.seed = kSeed;
  p.tick_dt = 0.1;

  const double t0 = now_seconds();
  exp::Cluster c = exp::make_cluster(p);
  add_antagonists(c, kSeed + 33);

  core::PerfCloudConfig cfg;
  cfg.monitor_series_capacity = cfg.correlation_window;
  exp::enable_perfcloud(c, cfg);

  std::unique_ptr<exp::EventSink> sink;
  exp::EventSink::SourceId summary_src = 0;
  if (mode != Mode::kNone) {
    const std::string tag = to_string(mode);
    sink = std::make_unique<exp::EventSink>(
        exp::EventSink::Options{.trace_csv_path = "emit_" + tag + ".csv",
                                .events_jsonl_path = "emit_" + tag + ".jsonl",
                                .async = mode == Mode::kAsync});
    exp::attach_sink(c, *sink);
    summary_src = sink->add_event_source("run");
  }

  sim::Rng mix_rng(kSeed);
  wl::MixParams mp;
  mp.num_jobs = kJobs;
  mp.mean_interarrival_s = 40.0;
  const std::vector<wl::MixEntry> mix = wl::make_mapreduce_mix(mp, mix_rng);
  std::vector<wl::JobId> ids;
  ids.reserve(mix.size());
  for (const wl::MixEntry& e : mix) {
    c.engine->at(sim::SimTime(e.submit_time_s),
                 [&c, &ids, &e](sim::SimTime) { ids.push_back(c.framework->submit(e.spec)); });
  }
  c.engine->run_while(
      [&] { return ids.size() < mix.size() || !c.framework->all_done(); },
      sim::SimTime(20000.0));

  RunResult r;
  r.final_time_s = c.engine->now().seconds();
  for (const wl::JobId id : ids) {
    const wl::Job* job = c.framework->find_job(id);
    if (job != nullptr && job->completed()) {
      r.jct_sum += job->jct();
      ++r.completed;
    }
  }
  if (sink != nullptr) {
    exp::record(*sink, summary_src, exp::summarize(*c.framework));
    sink->close();
    r.drain_s = sink->drain_seconds();
    r.samples = sink->samples_recorded();
    r.events = sink->events_recorded();
    r.batches = sink->batches_drained();
  }
  r.wall_s = now_seconds() - t0;
  r.shards = c.engine->shards();
  return r;
}

/// Heavy-volume synthetic stream: many columns, many samples per drain, so
/// formatting + file I/O dominate over the merge. This is where the async
/// writer earns its keep — the cluster run above emits a few dozen records
/// per drain, where either path is near-free.
struct SyntheticResult {
  double drain_s = 0.0;
  std::uint64_t samples = 0;
};

SyntheticResult run_synthetic(bool async, const std::string& tag) {
  constexpr int kColumns = 64;
  constexpr int kBatches = 1500;
  exp::EventSink sink(exp::EventSink::Options{.trace_csv_path = "emit_synth_" + tag + ".csv",
                                              .events_jsonl_path = "emit_synth_" + tag + ".jsonl",
                                              .async = async});
  std::vector<exp::EventSink::SourceId> cols;
  cols.reserve(kColumns);
  for (int c = 0; c < kColumns; ++c) cols.push_back(sink.add_trace_column("c" + std::to_string(c)));
  const auto src = sink.add_event_source("synth");
  for (int b = 0; b < kBatches; ++b) {
    const sim::SimTime t(b * 0.1);
    for (int c = 0; c < kColumns; ++c) {
      sink.emit_sample(cols[static_cast<std::size_t>(c)], t, b * 0.001 + c);
    }
    if (b % 50 == 0) sink.emit_event(src, t, "mark b=" + std::to_string(b), b);
    sink.drain(t);
  }
  sink.close();
  return SyntheticResult{sink.drain_seconds(), sink.samples_recorded()};
}

}  // namespace

int main() {
  std::cout << "micro_emit: one PerfCloud run (8 hosts / 48 workers, " << kJobs
            << " jobs, antagonist churn)\nwithout a sink, with synchronous emission, and "
               "with the async writer thread\n\n";

  const std::vector<Mode> modes = {Mode::kNone, Mode::kSync, Mode::kAsync};
  std::vector<RunResult> results;
  for (const Mode m : modes) {
    std::cout << "  mode=" << to_string(m) << " ..." << std::flush;
    results.push_back(run_once(m));
    std::cout << " " << results.back().wall_s << " s wall\n";
  }
  const RunResult& none = results[0];
  const RunResult& sync = results[1];
  const RunResult& async_r = results[2];
  std::cout << "\n";

  // Gate 1: observation must not change the observed — all three runs share
  // one simulation fingerprint. Exact equality, no tolerance.
  for (const RunResult& r : results) {
    if (r.jct_sum != none.jct_sum || r.completed != none.completed ||
        r.final_time_s != none.final_time_s) {
      std::cerr << "FAIL: attaching a sink changed the simulation fingerprint\n";
      return 1;
    }
  }

  // Gate 2: sync and async emission must produce byte-identical files.
  const bool csv_same = slurp("emit_sync.csv") == slurp("emit_async.csv");
  const bool jsonl_same = slurp("emit_sync.jsonl") == slurp("emit_async.jsonl");
  if (!csv_same || !jsonl_same || slurp("emit_sync.csv").empty()) {
    std::cerr << "FAIL: sync and async emission diverged (csv_same=" << csv_same
              << " jsonl_same=" << jsonl_same << ")\n";
    return 1;
  }

  // Heavy-volume synthetic stream, sync then async, with its own byte gate.
  const SyntheticResult synth_sync = run_synthetic(false, "sync");
  const SyntheticResult synth_async = run_synthetic(true, "async");
  if (slurp("emit_synth_sync.csv") != slurp("emit_synth_async.csv") ||
      slurp("emit_synth_sync.jsonl") != slurp("emit_synth_async.jsonl") ||
      slurp("emit_synth_sync.csv").empty()) {
    std::cerr << "FAIL: synthetic sync and async emission diverged\n";
    return 1;
  }

  exp::Table t({"mode", "wall s", "drain s on engine thread", "samples", "events"});
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    t.add_row(to_string(modes[i]),
              {r.wall_s, r.drain_s, static_cast<double>(r.samples), static_cast<double>(r.events)},
              3);
  }
  t.print(std::cout);
  std::cout << "\ncluster run barrier-phase emission time: sync " << sync.drain_s
            << " s, async " << async_r.drain_s << " s (" << sync.batches << " small batches)\n"
            << "synthetic heavy stream (" << synth_sync.samples << " samples): sync "
            << synth_sync.drain_s << " s, async " << synth_async.drain_s << " s ("
            << (synth_async.drain_s > 0.0 ? synth_sync.drain_s / synth_async.drain_s : 0.0)
            << "x less engine-thread time)\n"
            << "sync and async output files are byte-identical in both scenarios\n";

  std::ofstream json("BENCH_emit.json");
  json << "{\n"
       << "  \"topology\": {\"hosts\": 8, \"workers\": 48, \"jobs\": " << kJobs << "},\n"
       << "  \"hw_context\": " << bench::hw_context_json(sync.shards) << ",\n"
       << "  \"samples\": " << sync.samples << ",\n"
       << "  \"events\": " << sync.events << ",\n"
       << "  \"batches\": " << sync.batches << ",\n"
       << "  \"runs\": [\n";
  for (std::size_t i = 0; i < results.size(); ++i) {
    const RunResult& r = results[i];
    json << "    {\"mode\": \"" << to_string(modes[i]) << "\", \"wall_s\": " << r.wall_s
         << ", \"barrier_phase_emit_s\": " << r.drain_s << "}"
         << (i + 1 < results.size() ? ",\n" : "\n");
  }
  json << "  ],\n"
       << "  \"synthetic\": {\"samples\": " << synth_sync.samples
       << ", \"sync_barrier_phase_emit_s\": " << synth_sync.drain_s
       << ", \"async_barrier_phase_emit_s\": " << synth_async.drain_s
       << ", \"drain_speedup_async\": "
       << (synth_async.drain_s > 0.0 ? synth_sync.drain_s / synth_async.drain_s : 0.0) << "},\n"
       << "  \"sync_async_byte_identical\": true,\n"
       << "  \"fingerprint_identical\": true\n"
       << "}\n";
  std::cout << "\nwrote BENCH_emit.json\n";
  return 0;
}
