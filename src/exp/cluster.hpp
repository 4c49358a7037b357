// Experiment cluster builder: assembles engine, cloud, hosts, a virtual
// Hadoop/Spark cluster, antagonist VMs, and (optionally) PerfCloud node
// managers into one ready-to-run scenario.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cloud/cloud_manager.hpp"
#include "core/node_manager.hpp"
#include "exp/event_sink.hpp"
#include "faults/fault_injector.hpp"
#include "policy/migration_policy.hpp"
#include "sim/engine.hpp"
#include "workloads/antagonists.hpp"
#include "workloads/framework.hpp"

namespace perfcloud::exp {

/// Cluster placement discipline for the worker VMs.
enum class Placement {
  /// Round-robin over the hosts (the paper's §IV-A virtual clusters).
  kSpread,
  /// Fill hosts in provisioning order, as many VMs per host as its cores
  /// and DRAM admit — the consolidation pressure that makes high-priority
  /// collisions (and thus §IV-D migration escalations) actually happen.
  kPacked,
};

struct ClusterParams {
  int hosts = 1;
  /// Worker VMs of the high-priority scale-out application, spread evenly
  /// over the hosts (paper §IV-A: 12-node cluster on 1 host, 152-node on 15;
  /// two of the paper's nodes are masters, which live inside the framework
  /// object here, so worker counts are the paper's node count minus two).
  int workers = 10;
  int vm_vcpus = 2;
  std::uint64_t seed = 42;
  /// Shard-pool threads for the engine's per-quantum host sweeps (hypervisor
  /// ticks, node-manager pipelines). 0 = the engine's own count:
  /// PERFCLOUD_THREADS if set, otherwise worked out from the host count and
  /// the hardware (sim::Engine::shards). Results are byte-identical for any
  /// value; >1 only buys wall-clock time on multi-host clusters.
  unsigned shards = 0;
  /// When > 0, workers are spread over only the first `worker_host_limit`
  /// hosts, leaving the rest empty (skewed clusters with quiescent hosts).
  /// 0 spreads over every host.
  int worker_host_limit = 0;
  /// How the worker VMs land on the hosts (see Placement).
  Placement placement = Placement::kSpread;
  /// Live-migration cost model handed to the cloud manager. Default
  /// disabled: migrations (escalations, tests) are instantaneous.
  cloud::MigrationModel migration;
  double tick_dt = 0.1;          ///< Arbitration tick.
  double sched_period = 1.0;     ///< Framework scheduling period.
  std::string app_id = "hadoop";
  hw::ServerConfig server;       ///< Template; name is overwritten per host.
  /// Heterogeneous clusters (§IV-D future work): per-host speed factors,
  /// cycled over the hosts; factor f scales the host's CPU clock by f.
  /// Empty means homogeneous. A VM on a 0.6x host really is ~40 % slower —
  /// the hardware-heterogeneity stragglers PerfCloud cannot fix and
  /// speculative execution can. make_cluster throws std::invalid_argument
  /// unless every factor is finite and > 0.
  std::vector<double> host_speed_factors;
  /// When set, enable_perfcloud also arms the cluster-wide migration policy
  /// (src/policy/) with these parameters, after the node managers start.
  std::optional<policy::PolicyParams> policy;
};

/// A built scenario. Everything hangs off the engine; run with
/// `run_until_done` / `run_for` below.
struct Cluster {
  std::unique_ptr<sim::Engine> engine;
  std::unique_ptr<cloud::CloudManager> cloud;
  std::unique_ptr<wl::ScaleOutFramework> framework;
  std::vector<std::unique_ptr<core::NodeManager>> node_managers;
  /// The armed migration policy (null unless enable_policy ran).
  std::unique_ptr<policy::MigrationPolicy> policy;
  std::vector<int> worker_vm_ids;
  std::vector<std::string> hosts;
  ClusterParams params;

  [[nodiscard]] virt::Vm& vm(int vm_id);
  /// Node manager of the given host index (empty unless enable_perfcloud ran).
  [[nodiscard]] core::NodeManager& node_manager(std::size_t host_index) {
    return *node_managers.at(host_index);
  }
};

/// Build hosts + workers + framework and start host ticking and framework
/// scheduling. PerfCloud is NOT started; call `enable_perfcloud` for that.
[[nodiscard]] Cluster make_cluster(const ClusterParams& params);

/// Attach one node manager per host. `control` false gives monitoring-only
/// node managers (the "default system" curves in Figs 3/4/9).
void enable_perfcloud(Cluster& cluster, const core::PerfCloudConfig& cfg, bool control = true);

/// Arm the cluster-wide migration policy (DESIGN.md §5k): builds the
/// MigrationPolicy over the cluster's node managers and starts it — it
/// joins the shared host pipeline's barrier phase and subscribes to
/// migration lifecycle events.
/// Call after enable_perfcloud (it needs the node managers); called
/// automatically by enable_perfcloud when ClusterParams::policy is set.
void enable_policy(Cluster& cluster, const policy::PolicyParams& params);

/// Wire `sink` into the cluster: the engine drains it after every sharded
/// barrier and flushes it when a run returns, the cloud manager reports
/// migrations/escalations through it, and every node manager emits its
/// deviation-signal columns and control events for the cluster's app. Call
/// after enable_perfcloud; the sink must outlive the cluster's runs.
void attach_sink(Cluster& cluster, EventSink& sink);

/// Wire a fault injector into the cluster and arm its plan: the framework
/// becomes the HostCrash/TaskFailure target, every node manager registers
/// for MonitorBlackout/CapCommandLoss, and (when `sink` is non-null) fault
/// records flow through it as a "faults" event source. Call after
/// enable_perfcloud (and after attach_sink when emitting); the injector must
/// outlive the cluster's runs. Arms exactly once — an empty plan is a pure
/// no-op.
void attach_faults(Cluster& cluster, faults::FaultInjector& injector, EventSink* sink = nullptr);

// --- Antagonist VM helpers: boot a low-priority VM running the given tool
//     on the chosen host; return its VM id. ---
int add_fio(Cluster& cluster, const std::string& host, wl::FioRandomRead::Params p = {},
            int vcpus = 2);
int add_stream(Cluster& cluster, const std::string& host, wl::StreamBenchmark::Params p = {},
               int vcpus = -1 /* default: p.threads */);
int add_oltp(Cluster& cluster, const std::string& host, wl::SysbenchOltp::Params p = {},
             int vcpus = 4);
int add_sysbench_cpu(Cluster& cluster, const std::string& host, wl::SysbenchCpu::Params p = {},
                     int vcpus = 4);
int add_dd_writer(Cluster& cluster, const std::string& host, wl::DdSequentialWriter::Params p = {},
                  int vcpus = 2);

/// Run until the framework reports every job finished (or t_max). Returns
/// final sim time.
sim::SimTime run_until_done(Cluster& cluster, double t_max_s = 36000.0);
/// Run for a fixed amount of simulated time.
sim::SimTime run_for(Cluster& cluster, double duration_s);

/// Submit one job and run it to completion; returns its completion time in
/// seconds. The cluster can be reused for consecutive jobs.
double run_job(Cluster& cluster, const wl::JobSpec& spec, double t_max_s = 36000.0);

}  // namespace perfcloud::exp
