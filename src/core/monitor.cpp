#include "core/monitor.hpp"

namespace perfcloud::core {

const sim::TimeSeries PerformanceMonitor::kEmptySeries{};

void PerformanceMonitor::sample(sim::SimTime now) {
  const double dt = cfg_.sample_interval_s;
  for (const auto& vm : hv_.vms()) {
    VmState& st =
        *vms_.try_emplace(vm->id(), cfg_.ewma_alpha, cfg_.monitor_series_capacity).first;
    if (blacked_out(vm->id())) {
      // Dark: record nothing, and forget the counter baseline so the first
      // post-blackout interval re-primes instead of emitting the cumulative
      // delta of the whole dark period as one spike.
      st.prev.reset();
      st.latest.reset();
      continue;
    }
    const virt::CgroupStats& cur = vm->cgroup().stats();
    if (!st.prev) {
      st.prev = cur;
      continue;
    }
    const virt::CgroupStats& prev = *st.prev;
    const double d_wait_ms = cur.io_wait_time_ms - prev.io_wait_time_ms;
    const double d_ops = cur.io_serviced_ops - prev.io_serviced_ops;
    const double d_bytes = cur.io_service_bytes - prev.io_service_bytes;
    const double d_cycles = cur.cycles - prev.cycles;
    const double d_instr = cur.instructions - prev.instructions;
    const double d_misses = cur.llc_misses - prev.llc_misses;
    const double d_cpu = cur.cpu_time_s - prev.cpu_time_s;
    st.prev = cur;

    VmSample& s = st.latest.emplace();
    // The first EWMA update of a metric is the raw sample — one noisy
    // interval would masquerade as a trend. Deviations are only meaningful
    // once every contributing VM's smoother is warmed, so a metric is
    // reported from its second update onward.
    if (d_ops >= cfg_.min_ops_per_interval) {
      const double v = st.ew_iowait.update(d_wait_ms / d_ops);
      if (++st.iowait_updates >= 2) s.iowait_ratio_ms = v;
    }
    if (d_instr > 0.0) {
      const double v = st.ew_cpi.update(d_cycles / d_instr);
      if (++st.cpi_updates >= 2) s.cpi = v;
    }
    s.io_throughput_bps = st.ew_io_bps.update(d_bytes / dt);
    s.io_ops_per_s = d_ops / dt;
    s.cpu_usage_cores = st.ew_cpu.update(d_cpu / dt);
    // "LLC miss rates are not counted when the VM is not running any
    // workload" (§III-B): a sample exists only when the VM burned CPU.
    if (d_cpu > 0.05 * dt) {
      const double v = st.ew_llc.update(d_misses / dt);
      s.llc_miss_rate = v;
      st.llc_series.add(now, v);
    }
    st.io_series.add(now, s.io_throughput_bps);
  }
}

void PerformanceMonitor::forget_vm(int vm_id) {
  vms_.erase(vm_id);
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
  const VmState* st = vms_.find(vm_id);
  return st == nullptr || !st->latest ? nullptr : &*st->latest;
}

const sim::TimeSeries& PerformanceMonitor::io_throughput_series(int vm_id) const {
  const VmState* st = vms_.find(vm_id);
  return st == nullptr ? kEmptySeries : st->io_series;
}

const sim::TimeSeries& PerformanceMonitor::llc_miss_series(int vm_id) const {
  const VmState* st = vms_.find(vm_id);
  return st == nullptr ? kEmptySeries : st->llc_series;
}

double PerformanceMonitor::observed_io_bps(int vm_id) const {
  const VmState* st = vms_.find(vm_id);
  return st == nullptr ? 0.0 : st->ew_io_bps.value();
}

double PerformanceMonitor::observed_cpu_cores(int vm_id) const {
  const VmState* st = vms_.find(vm_id);
  return st == nullptr ? 0.0 : st->ew_cpu.value();
}

double PerformanceMonitor::observed_llc_rate(int vm_id) const {
  const VmState* st = vms_.find(vm_id);
  return st == nullptr ? 0.0 : st->ew_llc.value();
}

}  // namespace perfcloud::core
