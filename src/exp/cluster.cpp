#include "exp/cluster.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "cloud/placement.hpp"

namespace perfcloud::exp {

virt::Vm& Cluster::vm(int vm_id) {
  virt::Vm* vm = cloud->find_vm(vm_id);
  if (vm == nullptr) throw std::invalid_argument("unknown VM id " + std::to_string(vm_id));
  return *vm;
}

Cluster make_cluster(const ClusterParams& params) {
  // A zero factor leaves a host with no cycles (CPU-bound tasks there never
  // progress); a negative or NaN one poisons every grant on it.
  for (const double f : params.host_speed_factors) {
    if (!(std::isfinite(f) && f > 0.0)) {
      throw std::invalid_argument("host_speed_factors: " + std::to_string(f) +
                                  " is not a finite factor > 0");
    }
  }
  Cluster c;
  c.params = params;
  c.engine = std::make_unique<sim::Engine>(params.seed);
  if (params.shards > 0) c.engine->set_shards(params.shards);
  c.cloud = std::make_unique<cloud::CloudManager>(*c.engine);

  for (int h = 0; h < params.hosts; ++h) {
    hw::ServerConfig cfg = params.server;
    cfg.name = "host-" + std::to_string(h);
    if (!params.host_speed_factors.empty()) {
      const double f = params.host_speed_factors[static_cast<std::size_t>(h) %
                                                 params.host_speed_factors.size()];
      cfg.cpu.clock_hz *= f;
    }
    c.cloud->add_host(cfg);
    c.hosts.push_back(cfg.name);
  }

  // Unconditional, so a malformed (e.g. NaN-bandwidth) model is rejected
  // rather than read as disabled.
  c.cloud->set_migration_model(params.migration);

  virt::VmConfig shape;
  shape.vcpus = params.vm_vcpus;
  shape.priority = virt::Priority::kHigh;
  std::vector<std::string> worker_hosts = c.hosts;
  if (params.worker_host_limit > 0 &&
      static_cast<std::size_t>(params.worker_host_limit) < worker_hosts.size()) {
    worker_hosts.resize(static_cast<std::size_t>(params.worker_host_limit));
  }
  switch (params.placement) {
    case Placement::kSpread:
      c.worker_vm_ids =
          cloud::place_spread(*c.cloud, worker_hosts, params.workers, shape, params.app_id);
      break;
    case Placement::kPacked: {
      // Fill each host to its admission limit: whichever of cores or DRAM
      // runs out first (the same bound CloudManager::host_has_capacity
      // enforces on migration destinations).
      const int by_cores = params.server.cpu.cores / std::max(1, shape.vcpus);
      const int by_dram = static_cast<int>(params.server.dram / shape.memory);
      const int per_host = std::max(1, std::min(by_cores, by_dram));
      c.worker_vm_ids = cloud::place_packed(*c.cloud, worker_hosts, params.workers, per_host,
                                            shape, params.app_id);
      break;
    }
  }

  c.framework = std::make_unique<wl::ScaleOutFramework>(*c.engine, params.app_id);
  for (const cloud::VmRecord& r : c.cloud->all_vms()) {
    if (std::find(c.worker_vm_ids.begin(), c.worker_vm_ids.end(), r.id) !=
        c.worker_vm_ids.end()) {
      c.framework->add_worker(c.vm(r.id), r.host);
    }
  }

  // Registration order matters at equal timestamps: arbitration ticks fire
  // before framework scheduling, which fires before node managers.
  c.cloud->start_ticking(params.tick_dt);
  c.framework->start(params.sched_period);
  return c;
}

void enable_perfcloud(Cluster& cluster, const core::PerfCloudConfig& cfg, bool control) {
  if (!cluster.node_managers.empty()) throw std::logic_error("PerfCloud already enabled");
  for (const std::string& h : cluster.hosts) {
    auto nm = std::make_unique<core::NodeManager>(*cluster.cloud, h, cfg);
    nm->set_control_enabled(control);
    nm->start();
    cluster.node_managers.push_back(std::move(nm));
  }
  if (cluster.params.policy.has_value()) enable_policy(cluster, *cluster.params.policy);
}

void enable_policy(Cluster& cluster, const policy::PolicyParams& params) {
  if (cluster.policy != nullptr) throw std::logic_error("migration policy already enabled");
  if (cluster.node_managers.empty()) {
    throw std::logic_error("enable_policy requires enable_perfcloud first");
  }
  std::vector<core::NodeManager*> nms;
  nms.reserve(cluster.node_managers.size());
  for (const auto& nm : cluster.node_managers) nms.push_back(nm.get());
  cluster.policy = std::make_unique<policy::MigrationPolicy>(*cluster.cloud, std::move(nms),
                                                             params);
  cluster.policy->start();
}

void attach_sink(Cluster& cluster, EventSink& sink) {
  sink.bind(*cluster.engine);
  cluster.cloud->set_emit_sink(&sink);
  for (const auto& nm : cluster.node_managers) {
    nm->attach_sink(sink, {cluster.params.app_id});
  }
  if (cluster.policy != nullptr) cluster.policy->set_emit_sink(&sink);
}

void attach_faults(Cluster& cluster, faults::FaultInjector& injector, EventSink* sink) {
  injector.set_framework(cluster.framework.get());
  for (const auto& nm : cluster.node_managers) {
    injector.register_node_manager(*nm);
  }
  if (sink != nullptr) injector.set_emit_sink(sink);
  injector.arm();
}

namespace {
virt::Vm& boot_low_priority(Cluster& c, const std::string& host, const std::string& name,
                            int vcpus) {
  virt::VmConfig cfg;
  cfg.name = name;
  cfg.vcpus = vcpus;
  cfg.priority = virt::Priority::kLow;
  return c.cloud->boot_vm(host, cfg);
}
}  // namespace

int add_fio(Cluster& cluster, const std::string& host, wl::FioRandomRead::Params p, int vcpus) {
  virt::Vm& vm = boot_low_priority(cluster, host, "fio", vcpus);
  vm.attach(std::make_unique<wl::FioRandomRead>(p));
  return vm.id();
}

int add_stream(Cluster& cluster, const std::string& host, wl::StreamBenchmark::Params p,
               int vcpus) {
  if (vcpus < 0) vcpus = p.threads;
  virt::Vm& vm = boot_low_priority(cluster, host, "stream", vcpus);
  vm.attach(std::make_unique<wl::StreamBenchmark>(p));
  return vm.id();
}

int add_oltp(Cluster& cluster, const std::string& host, wl::SysbenchOltp::Params p, int vcpus) {
  virt::Vm& vm = boot_low_priority(cluster, host, "oltp", vcpus);
  vm.attach(std::make_unique<wl::SysbenchOltp>(p));
  return vm.id();
}

int add_sysbench_cpu(Cluster& cluster, const std::string& host, wl::SysbenchCpu::Params p,
                     int vcpus) {
  virt::Vm& vm = boot_low_priority(cluster, host, "sysbench-cpu", vcpus);
  vm.attach(std::make_unique<wl::SysbenchCpu>(p));
  return vm.id();
}

int add_dd_writer(Cluster& cluster, const std::string& host, wl::DdSequentialWriter::Params p,
                  int vcpus) {
  virt::Vm& vm = boot_low_priority(cluster, host, "dd-writer", vcpus);
  vm.attach(std::make_unique<wl::DdSequentialWriter>(p));
  return vm.id();
}

sim::SimTime run_until_done(Cluster& cluster, double t_max_s) {
  return cluster.engine->run_while([&] { return !cluster.framework->all_done(); },
                                   sim::SimTime(t_max_s));
}

sim::SimTime run_for(Cluster& cluster, double duration_s) {
  return cluster.engine->run_until(cluster.engine->now() + duration_s);
}

double run_job(Cluster& cluster, const wl::JobSpec& spec, double t_max_s) {
  const wl::JobId id = cluster.framework->submit(spec);
  cluster.engine->run_while(
      [&] {
        const wl::Job* job = cluster.framework->find_job(id);
        return job != nullptr && !job->finished();
      },
      sim::SimTime(cluster.engine->now().seconds() + t_max_s));
  const wl::Job* job = cluster.framework->find_job(id);
  if (job == nullptr || !job->completed()) {
    throw std::runtime_error("job did not complete within the time limit");
  }
  return job->jct();
}

}  // namespace perfcloud::exp
