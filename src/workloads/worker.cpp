#include "workloads/worker.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

namespace perfcloud::wl {

namespace {
// Worker daemon baseline: heartbeats and log writes.
constexpr double kDaemonCpuCores = 0.02;
constexpr double kDaemonIops = 2.0;
constexpr sim::Bytes kDaemonIoBytes = 16.0 * 1024;
constexpr sim::Bytes kDaemonFootprint = 4.0 * 1024 * 1024;
}  // namespace

void ScaleOutWorker::place(TaskAttempt* attempt) {
  assert(attempt != nullptr);
  if (free_slots() <= 0) throw std::logic_error("ScaleOutWorker::place: no free slot");
  attempts_.push_back(attempt);
}

void ScaleOutWorker::remove(TaskAttempt* attempt) {
  const auto it = std::find(attempts_.begin(), attempts_.end(), attempt);
  if (it != attempts_.end()) attempts_.erase(it);
}

hw::TenantDemand ScaleOutWorker::demand(sim::SimTime /*now*/, double dt) {
  hw::TenantDemand total{};
  total.cpu_core_seconds = kDaemonCpuCores * dt;
  total.io_ops = kDaemonIops * dt;
  total.io_bytes = kDaemonIops * dt * kDaemonIoBytes;
  total.llc_footprint = kDaemonFootprint;
  total.cpi_base = 1.0;
  total.mem_sensitivity = 1.0;

  // Sized, not cleared: the loop below writes every share.
  cpu_share_.resize(attempts_.size());
  io_share_.resize(attempts_.size());

  double cpu_sum = 0.0;
  double io_sum = 0.0;
  double bw_weighted = 0.0;
  double cpi_weighted = 0.0;
  double sens_weighted = 0.0;
  for (std::size_t i = 0; i < attempts_.size(); ++i) {
    const hw::TenantDemand d = attempts_[i]->demand(dt);
    cpu_share_[i] = d.cpu_core_seconds;
    io_share_[i] = d.io_bytes > 0.0 ? d.io_bytes : d.io_ops * 4096.0;
    cpu_sum += d.cpu_core_seconds;
    io_sum += io_share_[i];
    total.cpu_core_seconds += d.cpu_core_seconds;
    total.io_ops += d.io_ops;
    total.io_bytes += d.io_bytes;
    total.llc_footprint += d.llc_footprint;
    bw_weighted += d.mem_bw_per_cpu_sec * std::max(d.cpu_core_seconds, 1e-9);
    cpi_weighted += d.cpi_base * std::max(d.cpu_core_seconds, 1e-9);
    sens_weighted += d.mem_sensitivity * std::max(d.cpu_core_seconds, 1e-9);
  }
  if (cpu_sum > 0.0) {
    total.mem_bw_per_cpu_sec = bw_weighted / cpu_sum;
    total.cpi_base = cpi_weighted / cpu_sum;
    total.mem_sensitivity = sens_weighted / cpu_sum;
    for (double& s : cpu_share_) s /= cpu_sum;
  }
  if (io_sum > 0.0) {
    for (double& s : io_share_) s /= io_sum;
  }
  return total;
}

void ScaleOutWorker::apply(const hw::TenantGrant& grant, sim::SimTime /*now*/, double /*dt*/) {
  assert(cpu_share_.size() == attempts_.size());
  for (std::size_t i = 0; i < attempts_.size(); ++i) {
    attempts_[i]->advance(grant.instructions * cpu_share_[i], grant.io_ops * io_share_[i],
                          grant.io_bytes * io_share_[i]);
  }
}

}  // namespace perfcloud::wl
