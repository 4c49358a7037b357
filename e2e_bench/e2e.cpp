// End-to-end benchmark program. Builds one of three fig11-derived scenarios
// from a workload seed, runs it to its end condition, checks the outputs and
// prints one JSON object: set-up and run timings, the simulated results, a
// fingerprint of them, and (traced runs) per-layer timings. run.py drives it
// (repeats, statistics, traced and allocation-counting passes); README.md
// describes the workloads and metrics.
//
//   e2e --workload fig11-15h|fig11-150h-4sh|churn-chaos-16h --seed N
//       [--traced] [--shards N] [--setups N] [--tmp DIR]
//
// Untraced runs build the cluster with exp::make_cluster itself. --traced
// builds it with make_traced_cluster below, a copy of exp::make_cluster whose
// host-tick sweep and framework periodic time every Hypervisor::tick and
// ScaleOutFramework::poll call, and brackets the node managers' pipeline
// sweep with a no-op periodic and a post-barrier hook. A traced run must
// print the untraced run's fingerprint byte for byte; that is what shows the
// copy is faithful and the probes change nothing.
//
// Linked with src/sim/alloc_hook.cpp (the e2e_alloc binary), a traced run
// also counts heap allocations inside tick calls and pipeline sweeps. The
// counters are process-wide atomics, so run.py only asks for counts at
// shards=1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "cloud/placement.hpp"
#include "exp/cluster.hpp"
#include "exp/event_sink.hpp"
#include "faults/fault_injector.hpp"
#include "faults/fault_plan.hpp"
#include "sim/alloc_gauge.hpp"
#include "workloads/mix.hpp"

using namespace perfcloud;

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

std::uint64_t allocs_now() { return sim::alloc_gauge_read().allocs; }

// --- Workloads -------------------------------------------------------------

struct WorkloadSpec {
  std::string name;
  int hosts = 0;
  int workers = 0;
  unsigned shards = 1;
  int jobs = 0;
  double mean_interarrival_s = 0.0;
  /// fig11-style fio/STREAM episodes on random hosts (0 for churn).
  int antagonist_episodes = 0;
  /// > 0: run exactly this long; jobs still running then are censored, not
  /// failed. 0: run until every job is done (or kMaxSimSeconds).
  double horizon_s = 0.0;
  bool churn = false;
};

constexpr double kTickDt = 0.25;
constexpr double kMaxSimSeconds = 40000.0;

const std::vector<WorkloadSpec>& workloads() {
  static const std::vector<WorkloadSpec> specs = {
      // bench/fig11_large_scale's PerfCloud MapReduce run (seed 101 is that
      // run exactly).
      {.name = "fig11-15h", .hosts = 15, .workers = 150, .shards = 1, .jobs = 100,
       .mean_interarrival_s = 60.0, .antagonist_episodes = 40},
      // The same shape x10 (hosts, workers, episodes, arrival rate), cut at a
      // fixed simulated horizon, four shards.
      {.name = "fig11-150h-4sh", .hosts = 150, .workers = 1500, .shards = 4, .jobs = 1000,
       .mean_interarrival_s = 6.0, .antagonist_episodes = 400, .horizon_s = 1000.0},
      // Packed victim, colocated antagonists, live migration, migration
      // policy, async sink and a six-kind fault plan.
      {.name = "churn-chaos-16h", .hosts = 16, .workers = 72, .shards = 1, .jobs = 100,
       .mean_interarrival_s = 40.0, .churn = true},
  };
  return specs;
}

// --- Tracing ---------------------------------------------------------------

/// Per-host tick accounting, written only by the shard task that ticks this
/// host (cache-line aligned so concurrent shards do not share lines).
struct alignas(64) HostTrace {
  double tick_s = 0.0;
  long calls = 0;
  long vm_ticks = 0;  ///< Resident VMs summed over calls.
  long quiescent = 0;
  std::uint64_t allocs = 0;
  std::vector<float> tick_us;
};

struct Trace {
  bool count_allocs = false;
  std::vector<HostTrace> hosts;
  // Tick sweep: span from the no-op periodic registered just before it to
  // its barrier function (engine thread).
  Clock::time_point sweep_start;
  double sweep_span_s = 0.0;
  long sweeps = 0;
  double poll_s = 0.0;
  long polls = 0;
  // Pipeline sweep: span from the no-op periodic registered just before
  // enable_perfcloud to the first post-barrier hook, which runs before the
  // sink's drain hook.
  bool in_pipeline = false;
  Clock::time_point pipeline_start;
  std::uint64_t pipeline_allocs_start = 0;
  double pipeline_s = 0.0;
  long intervals = 0;
  std::uint64_t pipeline_allocs = 0;
  /// Stamped by the first run-end hook, before the sink's flush hook.
  Clock::time_point run_end;
};

/// exp::make_cluster with CloudManager::start_ticking and
/// ScaleOutFramework::start replaced by timed equivalents registered in the
/// same order (placement: spread and packed only, homogeneous hosts).
exp::Cluster make_traced_cluster(const exp::ClusterParams& params, Trace& tr) {
  exp::Cluster c;
  c.params = params;
  c.engine = std::make_unique<sim::Engine>(params.seed);
  if (params.shards > 0) c.engine->set_shards(params.shards);
  c.cloud = std::make_unique<cloud::CloudManager>(*c.engine);
  for (int h = 0; h < params.hosts; ++h) {
    hw::ServerConfig cfg = params.server;
    cfg.name = "host-" + std::to_string(h);
    c.cloud->add_host(cfg);
    c.hosts.push_back(cfg.name);
  }
  if (params.migration.enabled()) c.cloud->set_migration_model(params.migration);

  virt::VmConfig shape;
  shape.vcpus = params.vm_vcpus;
  shape.priority = virt::Priority::kHigh;
  if (params.placement == exp::Placement::kPacked) {
    const int by_cores = params.server.cpu.cores / std::max(1, shape.vcpus);
    const int by_dram = static_cast<int>(params.server.dram / shape.memory);
    const int per_host = std::max(1, std::min(by_cores, by_dram));
    c.worker_vm_ids = cloud::place_packed(*c.cloud, c.hosts, params.workers, per_host, shape,
                                          params.app_id);
  } else {
    c.worker_vm_ids =
        cloud::place_spread(*c.cloud, c.hosts, params.workers, shape, params.app_id);
  }
  c.framework = std::make_unique<wl::ScaleOutFramework>(*c.engine, params.app_id);
  for (const cloud::VmRecord& r : c.cloud->all_vms()) {
    if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
        c.worker_vm_ids.end()) {
      c.framework->add_worker(c.vm(r.id), r.host);
    }
  }

  sim::Engine& engine = *c.engine;
  const double dt = params.tick_dt;
  engine.every(dt, [&tr](sim::SimTime) { tr.sweep_start = Clock::now(); }, sim::SimTime(dt));
  sim::ShardedPeriodic& sweep = engine.every_sharded(dt, sim::SimTime(dt));
  tr.hosts.resize(c.hosts.size());
  for (std::size_t i = 0; i < c.hosts.size(); ++i) {
    virt::Hypervisor* hv = &c.cloud->host(c.hosts[i]);
    HostTrace* slot = &tr.hosts[i];
    const bool count_allocs = tr.count_allocs;
    sweep.add_task([hv, slot, dt, count_allocs](sim::SimTime now) {
      slot->vm_ticks += static_cast<long>(hv->vms().size());
      // Tick itself asks first thing, with the same argument; the answer is
      // cached on the hypervisor either way.
      if (hv->is_quiescent(now)) ++slot->quiescent;
      const std::uint64_t a0 = count_allocs ? allocs_now() : 0;
      const Clock::time_point t0 = Clock::now();
      hv->tick(now, dt);
      const double s = seconds_since(t0);
      if (count_allocs) slot->allocs += allocs_now() - a0;
      slot->tick_s += s;
      ++slot->calls;
      slot->tick_us.push_back(static_cast<float>(s * 1e6));
    });
  }
  sweep.set_barrier([&tr](sim::SimTime) {
    tr.sweep_span_s += seconds_since(tr.sweep_start);
    ++tr.sweeps;
  });
  wl::ScaleOutFramework* fw = c.framework.get();
  engine.every(params.sched_period, [fw, &tr](sim::SimTime now) {
    const Clock::time_point t0 = Clock::now();
    fw->poll(now);
    tr.poll_s += seconds_since(t0);
    ++tr.polls;
  });

  // Registered before any sink binds, so these run ahead of its hooks.
  engine.add_post_barrier_hook([&tr](sim::SimTime) {
    if (!tr.in_pipeline) return;
    tr.in_pipeline = false;
    tr.pipeline_s += seconds_since(tr.pipeline_start);
    ++tr.intervals;
    if (tr.count_allocs) tr.pipeline_allocs += allocs_now() - tr.pipeline_allocs_start;
  });
  engine.add_run_end_hook([&tr](sim::SimTime) { tr.run_end = Clock::now(); });
  return c;
}

// --- Scenario construction ---------------------------------------------------

struct Scenario {
  Trace trace;
  std::unique_ptr<exp::EventSink> sink;
  exp::Cluster cluster;
  std::unique_ptr<faults::FaultInjector> injector;
  std::vector<wl::MixEntry> mix;
  std::vector<wl::JobId> ids;  ///< Per scheduled mix entry; -1 until submitted.
  std::size_t submitted = 0;
  int fault_specs = 0;
};

/// bench/fig11_large_scale's antagonist population: fio and STREAM episodes
/// on uniformly random hosts, placement drawn from its own stream.
void add_fig11_antagonists(exp::Cluster& c, std::uint64_t seed, int episodes) {
  sim::Rng rng(seed);
  sim::Rng placement_rng = rng.split(0x9fac);
  for (int i = 0; i < episodes; ++i) {
    const auto host_idx = static_cast<std::size_t>(
        placement_rng.uniform_int(0, static_cast<std::int64_t>(c.hosts.size()) - 1));
    const std::string& host = c.hosts[host_idx];
    const double start = rng.uniform(0.0, 5600.0);
    const double duration = rng.uniform(240.0, 600.0);
    if (i % 2 == 0) {
      exp::add_fio(c, host, wl::FioRandomRead::Params{.duration_s = duration, .start_s = start});
    } else {
      exp::add_stream(c, host,
                      wl::StreamBenchmark::Params{.threads = 16, .duration_s = duration,
                                                  .start_s = start});
    }
  }
}

/// fio, dd and sysbench-cpu colocated with the packed victim's workers.
void add_churn_antagonists(exp::Cluster& c, const std::vector<std::string>& worker_hosts,
                           std::uint64_t seed, double span_s) {
  sim::Rng rng(seed);
  for (const std::string& host : worker_hosts) {
    exp::add_fio(c, host,
                 wl::FioRandomRead::Params{.duration_s = rng.uniform(0.3, 0.6) * span_s,
                                           .start_s = rng.uniform(0.0, 0.2) * span_s});
    exp::add_fio(c, host,
                 wl::FioRandomRead::Params{.duration_s = rng.uniform(0.3, 0.6) * span_s,
                                           .start_s = rng.uniform(0.2, 0.4) * span_s,
                                           .duty_period_s = 17.0});
    exp::add_dd_writer(c, host,
                       wl::DdSequentialWriter::Params{.total_bytes = rng.uniform(2.0e11, 4.0e11),
                                                      .target_rate = 300.0e6,
                                                      .start_s = rng.uniform(0.1, 0.5) * span_s});
    exp::add_sysbench_cpu(
        c, host,
        wl::SysbenchCpu::Params{.threads = 8, .total_instructions = rng.uniform(2.0e14, 6.0e14),
                                .start_s = rng.uniform(0.0, 0.5) * span_s});
  }
}

/// One fault of each of the six kinds on the victim's hosts, at seeded times.
faults::FaultPlan churn_fault_plan(const exp::Cluster& c,
                                   const std::vector<std::string>& worker_hosts,
                                   std::uint64_t seed, double span_s) {
  sim::Rng rng(seed);
  const auto at = [&](double lo, double hi) { return rng.uniform(lo, hi) * span_s; };
  faults::FaultPlan plan(seed);
  plan.disk_degrade(worker_hosts.at(1), at(0.1, 0.3), 200.0, 0.5)
      .monitor_blackout(worker_hosts.at(0), at(0.1, 0.3), 60.0)
      .cap_command_loss(worker_hosts.at(0), at(0.2, 0.4), 300.0, 0.5)
      .host_crash(worker_hosts.at(2), at(0.4, 0.6), 250.0)
      .task_failure(5.0e-4, at(0.5, 0.7), 300.0);
  // Stall the first worker on the second host (never the crashed one).
  for (const cloud::VmRecord& r : c.cloud->vms_on_host(worker_hosts.at(1))) {
    if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
        c.worker_vm_ids.end()) {
      plan.vm_stall(r.id, at(0.3, 0.5), 40.0);
      break;
    }
  }
  return plan;
}

std::unique_ptr<Scenario> build(const WorkloadSpec& w, std::uint64_t seed, bool traced,
                                unsigned shards, const std::string& tmp_dir) {
  auto s = std::make_unique<Scenario>();
  s->trace.count_allocs = traced && sim::alloc_gauge_linked();
  const double span_s = w.jobs * w.mean_interarrival_s;

  exp::ClusterParams p;
  p.hosts = w.hosts;
  p.workers = w.workers;
  p.seed = seed;
  p.tick_dt = kTickDt;
  p.shards = shards;
  core::PerfCloudConfig cfg;
  // Identification never looks past its correlation window (as in fig11).
  cfg.monitor_series_capacity = cfg.correlation_window;
  if (w.churn) {
    p.placement = exp::Placement::kPacked;
    p.migration = {.bandwidth_bps = 1.0e9, .downtime_s = 0.25};
    policy::PolicyParams pol;
    pol.floor_windows = 2;
    pol.dwell_min_s = 0.0;
    pol.host_cooldown_s = 0.0;
    pol.max_in_flight = 4;
    pol.scoring = policy::Scoring::kComplementary;
    p.policy = pol;
    // Throttling alone cannot defend the victim, so the policy must act.
    cfg.min_cap_fraction = 0.9;
  }

  s->cluster = traced ? make_traced_cluster(p, s->trace) : exp::make_cluster(p);
  exp::Cluster& c = s->cluster;

  std::vector<std::string> worker_hosts;  // packed, so in host order
  if (w.churn) {
    for (const cloud::VmRecord& r : c.cloud->all_vms()) {
      if (std::find(worker_hosts.begin(), worker_hosts.end(), r.host) == worker_hosts.end()) {
        worker_hosts.push_back(r.host);
      }
    }
    add_churn_antagonists(c, worker_hosts, seed + 33, span_s);
  } else {
    add_fig11_antagonists(c, seed + 33, w.antagonist_episodes);
  }

  if (traced) {
    Trace& tr = s->trace;
    c.engine->every(
        cfg.sample_interval_s,
        [&tr](sim::SimTime) {
          tr.in_pipeline = true;
          if (tr.count_allocs) tr.pipeline_allocs_start = allocs_now();
          tr.pipeline_start = Clock::now();
        },
        sim::SimTime(cfg.sample_interval_s));
  }
  exp::enable_perfcloud(c, cfg);

  if (w.churn) {
    std::filesystem::create_directories(tmp_dir);
    s->sink = std::make_unique<exp::EventSink>(
        exp::EventSink::Options{.trace_csv_path = tmp_dir + "/trace.csv",
                                .events_jsonl_path = tmp_dir + "/events.jsonl",
                                .async = true});
    exp::attach_sink(c, *s->sink);
    const faults::FaultPlan plan = churn_fault_plan(c, worker_hosts, seed + 77, span_s);
    s->fault_specs = static_cast<int>(plan.size());
    s->injector = std::make_unique<faults::FaultInjector>(*c.cloud, plan);
    exp::attach_faults(c, *s->injector, s->sink.get());
  }

  sim::Rng mix_rng(seed);
  wl::MixParams mp;
  mp.num_jobs = w.jobs;
  mp.mean_interarrival_s = w.mean_interarrival_s;
  for (wl::MixEntry& e : wl::make_mapreduce_mix(mp, mix_rng)) {
    if (w.horizon_s > 0.0 && e.submit_time_s >= w.horizon_s) break;
    s->mix.push_back(std::move(e));
  }
  s->ids.assign(s->mix.size(), -1);
  Scenario* sp = s.get();
  for (std::size_t i = 0; i < s->mix.size(); ++i) {
    c.engine->at(sim::SimTime(s->mix[i].submit_time_s), [sp, i](sim::SimTime) {
      sp->ids[i] = sp->cluster.framework->submit(sp->mix[i].spec);
      ++sp->submitted;
    });
  }
  return s;
}

// --- Output ----------------------------------------------------------------

/// Minimal JSON object writer; doubles keep all 17 significant digits.
class Json {
 public:
  Json() { os_.precision(17); }
  Json& num(const std::string& key, double v) {
    key_(key);
    if (std::isfinite(v)) {
      os_ << v;
    } else {
      os_ << "null";
    }
    return *this;
  }
  Json& str(const std::string& key, const std::string& v) {
    key_(key);
    quote(v);
    return *this;
  }
  Json& boolean(const std::string& key, bool v) {
    key_(key);
    os_ << (v ? "true" : "false");
    return *this;
  }
  Json& raw(const std::string& key, const std::string& json) {
    key_(key);
    os_ << json;
    return *this;
  }
  Json& nums(const std::string& key, const std::vector<double>& vs) {
    key_(key);
    os_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) os_ << (i ? "," : "") << vs[i];
    os_ << ']';
    return *this;
  }
  Json& strs(const std::string& key, const std::vector<std::string>& vs) {
    key_(key);
    os_ << '[';
    for (std::size_t i = 0; i < vs.size(); ++i) {
      if (i > 0) os_ << ',';
      quote(vs[i]);
    }
    os_ << ']';
    return *this;
  }
  [[nodiscard]] std::string done() const { return "{" + os_.str() + "}"; }

 private:
  void key_(const std::string& k) {
    if (!first_) os_ << ", ";
    first_ = false;
    quote(k);
    os_ << ": ";
  }
  void quote(const std::string& s) {
    os_ << '"';
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') os_ << '\\';
      os_ << ch;
    }
    os_ << '"';
  }
  std::ostringstream os_;
  bool first_ = true;
};

std::string hex(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%a", v);
  return buf;
}

/// FNV-1a over a file's bytes (0 when the file is missing).
std::uint64_t file_hash(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::uint64_t h = 1469598103934665603ULL;
  char buf[1 << 16];
  while (in.read(buf, sizeof buf) || in.gcount() > 0) {
    for (std::streamsize i = 0; i < in.gcount(); ++i) {
      h = (h ^ static_cast<unsigned char>(buf[i])) * 1099511628211ULL;
    }
  }
  return h;
}

/// Peak resident set of this process image. VmHWM resets at exec, unlike
/// getrusage's ru_maxrss, which keeps the high-water mark of the process
/// that forked us.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
  }
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double quantile_us(std::vector<float>& v, double q) {
  if (v.empty()) return 0.0;
  const auto k = static_cast<std::size_t>(q * static_cast<double>(v.size() - 1));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k), v.end());
  return v[k];
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool traced = false;
  int shards = -1;  ///< -1: the workload's own shard count.
  int setups = 1;
  std::string tmp_dir = ".";
};

Args parse(int argc, char** argv) {
  Args a;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      a.seed = std::stoull(value());
      have_seed = true;
    } else if (k == "--traced") {
      a.traced = true;
    } else if (k == "--shards") {
      a.shards = std::stoi(value());
    } else if (k == "--setups") {
      a.setups = std::max(1, std::stoi(value()));
    } else if (k == "--tmp") {
      a.tmp_dir = value();
    } else {
      throw std::invalid_argument("unknown argument " + k);
    }
  }
  if (a.workload.empty() || !have_seed) {
    throw std::invalid_argument("usage: e2e --workload NAME --seed N [--traced] [--shards N] "
                                "[--setups N] [--tmp DIR]");
  }
  return a;
}

int run(const Args& a) {
  const WorkloadSpec* found = nullptr;
  for (const WorkloadSpec& w : workloads()) {
    if (w.name == a.workload) found = &w;
  }
  if (found == nullptr) throw std::invalid_argument("unknown workload " + a.workload);
  const WorkloadSpec& w = *found;
  const unsigned shards = a.shards > 0 ? static_cast<unsigned>(a.shards) : w.shards;

  std::vector<double> setup_s;
  Clock::time_point t0 = Clock::now();
  std::unique_ptr<Scenario> s = build(w, a.seed, a.traced, shards, a.tmp_dir);
  setup_s.push_back(seconds_since(t0));
  exp::Cluster& c = s->cluster;

  const Clock::time_point t_run = Clock::now();
  if (w.horizon_s > 0.0) {
    exp::run_for(c, w.horizon_s);
  } else {
    const std::size_t expected = s->mix.size();
    Scenario* sp = s.get();
    c.engine->run_while(
        [sp, expected] { return sp->submitted < expected || !sp->cluster.framework->all_done(); },
        sim::SimTime(kMaxSimSeconds));
  }
  const Clock::time_point t_returned = Clock::now();
  if (s->sink != nullptr) s->sink->close();
  const double close_s = seconds_since(t_returned);
  const double wall_s = seconds_since(t_run);

  // --- Results and checks ---
  std::vector<std::string> errors;
  const wl::ScaleOutFramework& fw = *c.framework;
  const double final_t = c.engine->now().seconds();
  const auto sweeps = static_cast<long>(std::floor(final_t / kTickDt + 1e-9));
  const long host_ticks = sweeps * w.hosts;
  std::vector<double> jcts;
  int completed = 0;
  int failed = 0;
  int censored = 0;
  double jct_sum = 0.0;
  for (const wl::JobId id : s->ids) {
    const wl::Job* job = id < 0 ? nullptr : fw.find_job(id);
    if (job != nullptr && job->completed()) {
      const double jct = job->jct();
      if (!std::isfinite(jct) || jct < 0.0) errors.push_back("bad JCT " + std::to_string(jct));
      jcts.push_back(jct);
      jct_sum += jct;
      ++completed;
    } else if (w.horizon_s > 0.0 && job != nullptr && !job->killed()) {
      ++censored;  // still running at the fixed horizon
    } else {
      ++failed;
    }
  }
  const double efficiency = fw.utilization_efficiency();
  if (!(efficiency > 0.0 && efficiency <= 1.0)) {
    errors.push_back("efficiency " + std::to_string(efficiency) + " outside (0, 1]");
  }
  if (s->submitted != s->mix.size()) errors.push_back("not every job was submitted");
  if (failed > 0) errors.push_back(std::to_string(failed) + " jobs did not complete");
  if (completed == 0) errors.push_back("no job completed");

  long identifications = 0;
  long cap_dropped = 0;
  for (const auto& nm : c.node_managers) {
    identifications += static_cast<long>(nm->io_first_identified().size() +
                                         nm->cpu_first_identified().size());
    cap_dropped += nm->cap_commands_dropped();
  }
  const policy::MigrationPolicy* pol = c.policy.get();
  const long pol_triggered = pol ? pol->triggered() : 0;
  const long pol_migrated = pol ? pol->migrated() : 0;
  const long pol_suppressed =
      pol ? pol->suppressed_dwell() + pol->suppressed_cooldown() + pol->suppressed_budget() +
                pol->suppressed_blacklist()
          : 0;
  const long pol_no_feasible = pol ? pol->no_feasible() : 0;
  const faults::FaultInjector* inj = s->injector.get();
  const int f_injected = inj ? inj->injected() : 0;
  const int f_recovered = inj ? inj->recovered() : 0;
  const int f_failed = inj ? inj->failed() : 0;
  if (inj != nullptr && (f_injected != s->fault_specs || f_failed != 0)) {
    errors.push_back("fault plan: " + std::to_string(f_injected) + " of " +
                     std::to_string(s->fault_specs) + " injected, " + std::to_string(f_failed) +
                     " failed");
  }
  std::string fingerprint = "completed=" + std::to_string(completed) +
                            " censored=" + std::to_string(censored) + " jct_sum=" + hex(jct_sum) +
                            " efficiency=" + hex(efficiency) + " final_t=" + hex(final_t);
  if (w.churn) {
    fingerprint += " migrations=" + std::to_string(c.cloud->migrations_started()) + "/" +
                   std::to_string(c.cloud->migrations_completed()) + "/" +
                   std::to_string(c.cloud->migrations_aborted()) +
                   " policy=" + std::to_string(pol_triggered) + "/" +
                   std::to_string(pol_migrated) + "/" + std::to_string(pol_suppressed) + "/" +
                   std::to_string(pol_no_feasible) + " faults=" + std::to_string(f_injected) +
                   "/" + std::to_string(f_recovered) + "/" + std::to_string(f_failed) +
                   " csv=" + std::to_string(file_hash(a.tmp_dir + "/trace.csv")) +
                   " jsonl=" + std::to_string(file_hash(a.tmp_dir + "/events.jsonl"));
  }

  Json out;
  out.str("workload", w.name)
      .num("seed", static_cast<double>(a.seed))
      .boolean("traced", a.traced)
      .num("shards", shards)
      .boolean("alloc_hook", sim::alloc_gauge_linked())
      .num("wall_s", wall_s)
      .num("final_t", final_t)
      .num("hosts", w.hosts)
      .num("host_ticks", static_cast<double>(host_ticks))
      .num("submitted", static_cast<double>(s->submitted))
      .num("completed", completed)
      .num("failed", failed)
      .num("censored", censored)
      .nums("jcts", jcts)
      .num("efficiency", efficiency)
      .num("peak_rss_mb", peak_rss_mb())
      .str("fingerprint", fingerprint);

  Json counts;
  counts.num("core.identifications", identifications)
      .num("core.cap_commands_dropped", cap_dropped)
      .num("policy.triggered", pol_triggered)
      .num("policy.migrated", pol_migrated)
      .num("policy.suppressed", pol_suppressed)
      .num("policy.no_feasible", pol_no_feasible)
      .num("cloud.migrations_started", c.cloud->migrations_started())
      .num("cloud.migrations_completed", c.cloud->migrations_completed())
      .num("cloud.migrations_aborted", c.cloud->migrations_aborted())
      .num("faults.injected", f_injected)
      .num("faults.recovered", f_recovered)
      .num("faults.failed", f_failed)
      .num("exp.drain_s", s->sink ? s->sink->drain_seconds() : 0.0)
      .num("exp.samples", s->sink ? static_cast<double>(s->sink->samples_recorded()) : 0.0)
      .num("exp.events", s->sink ? static_cast<double>(s->sink->events_recorded()) : 0.0)
      .num("exp.batches", s->sink ? static_cast<double>(s->sink->batches_drained()) : 0.0);
  out.raw("counts", counts.done());

  if (a.traced) {
    Trace& tr = s->trace;
    double tick_s = 0.0;
    long calls = 0;
    long vm_ticks = 0;
    long quiescent = 0;
    std::uint64_t tick_allocs = 0;
    std::vector<float> tick_us;
    tick_us.reserve(static_cast<std::size_t>(host_ticks));
    for (const HostTrace& h : tr.hosts) {
      tick_s += h.tick_s;
      calls += h.calls;
      vm_ticks += h.vm_ticks;
      quiescent += h.quiescent;
      tick_allocs += h.allocs;
      tick_us.insert(tick_us.end(), h.tick_us.begin(), h.tick_us.end());
    }
    if (calls != host_ticks || tr.sweeps != sweeps) {
      errors.push_back("traced tick count " + std::to_string(calls) + " != " +
                       std::to_string(host_ticks));
    }
    // Everything after the first run-end hook: the sink's flush (its writer
    // backlog) plus close().
    const double flush_close_s =
        std::chrono::duration<double>(t_returned - tr.run_end).count() + close_s;
    Json t;
    t.num("virt.tick_s", tick_s)
        .num("virt.tick_calls", calls)
        .num("virt.tick_us_p50", quantile_us(tick_us, 0.50))
        .num("virt.tick_us_p99", quantile_us(tick_us, 0.99))
        .num("virt.vm_ticks", vm_ticks)
        .num("virt.quiescent_ticks", quiescent)
        .num("virt.tick_allocs", static_cast<double>(tick_allocs))
        .num("virt.sweep_span_s", tr.sweep_span_s)
        .num("workloads.poll_s", tr.poll_s)
        .num("workloads.poll_calls", tr.polls)
        .num("core.pipeline_s", tr.pipeline_s)
        .num("core.intervals", tr.intervals)
        .num("core.pipeline_allocs", static_cast<double>(tr.pipeline_allocs))
        .num("exp.close_s", flush_close_s);
    out.raw("trace", t.done());
  }
  // Further set-ups for a steadier setup_s, after the run so that they leave
  // its peak RSS alone. Each is torn down before the next is built, so sinks
  // never share their output files.
  s.reset();
  for (int i = 1; i < a.setups; ++i) {
    t0 = Clock::now();
    std::unique_ptr<Scenario> extra = build(w, a.seed, false, shards, a.tmp_dir);
    setup_s.push_back(seconds_since(t0));
  }
  out.nums("setup_s", setup_s).strs("errors", errors);
  std::cout << out.done() << std::endl;
  return errors.empty() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "e2e: " << e.what() << "\n";
    return 2;
  }
}
