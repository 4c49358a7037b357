#include "core/monitor.hpp"

namespace perfcloud::core {

const sim::TimeSeries PerformanceMonitor::kEmptySeries{};

namespace {

/// One EWMA lane step, identical to sim::Ewma::update: the first sample
/// seeds the value raw, later samples fold in with weight alpha.
inline double ewma_step(double& value, std::uint8_t& seeded, double alpha, double sample) {
  if (seeded == 0) {
    value = sample;
    seeded = 1;
  } else {
    value = alpha * sample + (1.0 - alpha) * value;
  }
  return value;
}

}  // namespace

void PerformanceMonitor::push_row() {
  prev_.emplace_back();
  has_prev_.push_back(0);
  iowait_updates_.push_back(0);
  cpi_updates_.push_back(0);
  ew_iowait_.push_back(0.0);
  ew_cpi_.push_back(0.0);
  ew_io_bps_.push_back(0.0);
  ew_llc_.push_back(0.0);
  ew_cpu_.push_back(0.0);
  sd_iowait_.push_back(0);
  sd_cpi_.push_back(0);
  sd_io_bps_.push_back(0);
  sd_llc_.push_back(0);
  sd_cpu_.push_back(0);
  latest_.emplace_back();
  has_latest_.push_back(0);
  io_series_.emplace_back();
  llc_series_.emplace_back();
}

void PerformanceMonitor::reset_row(std::uint32_t r) {
  prev_[r] = virt::CgroupStats{};
  has_prev_[r] = 0;
  iowait_updates_[r] = 0;
  cpi_updates_[r] = 0;
  ew_iowait_[r] = 0.0;
  ew_cpi_[r] = 0.0;
  ew_io_bps_[r] = 0.0;
  ew_llc_[r] = 0.0;
  ew_cpu_[r] = 0.0;
  sd_iowait_[r] = 0;
  sd_cpi_[r] = 0;
  sd_io_bps_[r] = 0;
  sd_llc_[r] = 0;
  sd_cpu_[r] = 0;
  latest_[r] = VmSample{};
  has_latest_[r] = 0;
  io_series_[r].clear();
  llc_series_[r].clear();
}

std::uint32_t PerformanceMonitor::row(int vm_id) {
  const auto [slot, inserted] = row_of_.try_emplace(vm_id, 0u);
  if (!inserted) return *slot;
  std::uint32_t r;
  if (!free_rows_.empty()) {
    r = free_rows_.back();
    free_rows_.pop_back();
    reset_row(r);
  } else {
    r = static_cast<std::uint32_t>(prev_.size());
    push_row();
  }
  io_series_[r].set_capacity(cfg_.monitor_series_capacity);
  llc_series_[r].set_capacity(cfg_.monitor_series_capacity);
  *slot = r;
  return r;
}

void PerformanceMonitor::sample(sim::SimTime now) {
  const double dt = cfg_.sample_interval_s;
  const double alpha = cfg_.ewma_alpha;
  const bool any_dark = blackout_all_ || !blackout_.empty();

  // Phase 1 — gather: one walk over the resident VMs folds the counter
  // reads into flat delta columns. The rare lanes (dark, unprimed) resolve
  // here and never enter the batch.
  rows_.clear();
  d_wait_ms_.clear();
  d_ops_.clear();
  d_bytes_.clear();
  d_cycles_.clear();
  d_instr_.clear();
  d_misses_.clear();
  d_cpu_.clear();
  for (const auto& vm : hv_.vms()) {
    const std::uint32_t r = row(vm->id());
    if (any_dark && (blackout_all_ || blackout_.contains(vm->id()))) {
      // Dark: record nothing, and forget the counter baseline so the first
      // post-blackout interval re-primes instead of emitting the cumulative
      // delta of the whole dark period as one spike.
      has_prev_[r] = 0;
      has_latest_[r] = 0;
      continue;
    }
    const virt::CgroupStats& cur = vm->cgroup().stats();
    if (has_prev_[r] == 0) {
      prev_[r] = cur;
      has_prev_[r] = 1;
      continue;
    }
    virt::CgroupStats& prev = prev_[r];
    const double d_wait_ms = cur.io_wait_time_ms - prev.io_wait_time_ms;
    const double d_ops = cur.io_serviced_ops - prev.io_serviced_ops;
    const double d_bytes = cur.io_service_bytes - prev.io_service_bytes;
    const double d_cycles = cur.cycles - prev.cycles;
    const double d_instr = cur.instructions - prev.instructions;
    const double d_misses = cur.llc_misses - prev.llc_misses;
    const double d_cpu = cur.cpu_time_s - prev.cpu_time_s;
    prev = cur;
    rows_.push_back(r);
    d_wait_ms_.push_back(d_wait_ms);
    d_ops_.push_back(d_ops);
    d_bytes_.push_back(d_bytes);
    d_cycles_.push_back(d_cycles);
    d_instr_.push_back(d_instr);
    d_misses_.push_back(d_misses);
    d_cpu_.push_back(d_cpu);
  }

  // Phase 2 — kernels: one loop per metric over the batch. Every lane's
  // arithmetic is confined to its own row's columns, so running the lanes
  // metric-major instead of VM-major changes no individual result.
  const std::size_t n = rows_.size();
  for (std::size_t k = 0; k < n; ++k) {
    latest_[rows_[k]] = VmSample{};
    has_latest_[rows_[k]] = 1;
  }
  // The first EWMA update of a metric is the raw sample — one noisy
  // interval would masquerade as a trend. Deviations are only meaningful
  // once every contributing VM's smoother is warmed, so a metric is
  // reported from its second update onward.
  for (std::size_t k = 0; k < n; ++k) {
    if (d_ops_[k] >= cfg_.min_ops_per_interval) {
      const std::uint32_t r = rows_[k];
      const double v = ewma_step(ew_iowait_[r], sd_iowait_[r], alpha, d_wait_ms_[k] / d_ops_[k]);
      if (++iowait_updates_[r] >= 2) latest_[r].iowait_ratio_ms = v;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    if (d_instr_[k] > 0.0) {
      const std::uint32_t r = rows_[k];
      const double v = ewma_step(ew_cpi_[r], sd_cpi_[r], alpha, d_cycles_[k] / d_instr_[k]);
      if (++cpi_updates_[r] >= 2) latest_[r].cpi = v;
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t r = rows_[k];
    latest_[r].io_throughput_bps = ewma_step(ew_io_bps_[r], sd_io_bps_[r], alpha, d_bytes_[k] / dt);
    latest_[r].io_ops_per_s = d_ops_[k] / dt;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t r = rows_[k];
    latest_[r].cpu_usage_cores = ewma_step(ew_cpu_[r], sd_cpu_[r], alpha, d_cpu_[k] / dt);
  }
  // "LLC miss rates are not counted when the VM is not running any
  // workload" (§III-B): a sample exists only when the VM burned CPU.
  for (std::size_t k = 0; k < n; ++k) {
    if (d_cpu_[k] > 0.05 * dt) {
      const std::uint32_t r = rows_[k];
      const double v = ewma_step(ew_llc_[r], sd_llc_[r], alpha, d_misses_[k] / dt);
      latest_[r].llc_miss_rate = v;
      llc_series_[r].add(now, v);
    }
  }
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t r = rows_[k];
    io_series_[r].add(now, latest_[r].io_throughput_bps);
  }
}

void PerformanceMonitor::forget_vm(int vm_id) {
  const std::uint32_t* r = row_of_.find(vm_id);
  if (r != nullptr) {
    free_rows_.push_back(*r);
    row_of_.erase(vm_id);
  }
}

void PerformanceMonitor::set_blackout(int vm_id, bool dark) {
  if (dark) {
    blackout_.insert(vm_id);
  } else {
    blackout_.erase(vm_id);
  }
}

void PerformanceMonitor::set_blackout_all(bool dark) {
  blackout_all_ = dark;
}

const VmSample* PerformanceMonitor::latest(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  if (r == nullptr || has_latest_[*r] == 0) return nullptr;
  return &latest_[*r];
}

void PerformanceMonitor::latest_batch(std::span<const int> ids, const VmSample** out) const {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t* r = row_of_.find(ids[i]);
    out[i] = (r == nullptr || has_latest_[*r] == 0) ? nullptr : &latest_[*r];
  }
}

const sim::TimeSeries& PerformanceMonitor::io_throughput_series(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  return r == nullptr ? kEmptySeries : io_series_[*r];
}

const sim::TimeSeries& PerformanceMonitor::llc_miss_series(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  return r == nullptr ? kEmptySeries : llc_series_[*r];
}

void PerformanceMonitor::series_batch(std::span<const int> ids, const sim::TimeSeries** io_out,
                                      const sim::TimeSeries** llc_out) const {
  for (std::size_t i = 0; i < ids.size(); ++i) {
    const std::uint32_t* r = row_of_.find(ids[i]);
    io_out[i] = r == nullptr ? &kEmptySeries : &io_series_[*r];
    llc_out[i] = r == nullptr ? &kEmptySeries : &llc_series_[*r];
  }
}

double PerformanceMonitor::observed_io_bps(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  return r == nullptr ? 0.0 : ew_io_bps_[*r];
}

double PerformanceMonitor::observed_cpu_cores(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  return r == nullptr ? 0.0 : ew_cpu_[*r];
}

double PerformanceMonitor::observed_llc_rate(int vm_id) const {
  const std::uint32_t* r = row_of_.find(vm_id);
  return r == nullptr ? 0.0 : ew_llc_[*r];
}

}  // namespace perfcloud::core
