#include "policy/migration_policy.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

namespace perfcloud::policy {

namespace {

const core::PerfCloudConfig& front_config(const std::vector<core::NodeManager*>& nms) {
  if (nms.empty()) {
    throw std::invalid_argument("MigrationPolicy: need at least one node manager");
  }
  return nms.front()->config();
}

}  // namespace

MigrationPolicy::MigrationPolicy(cloud::CloudManager& cloud,
                                 std::vector<core::NodeManager*> nms, PolicyParams params)
    : cloud_(cloud),
      params_(params),
      cfg_(front_config(nms)),
      view_(cloud, std::move(nms)) {
  if (params_.floor_windows < 1) {
    throw std::invalid_argument("PolicyParams::floor_windows must be >= 1");
  }
  if (params_.max_in_flight < 1) {
    throw std::invalid_argument("PolicyParams::max_in_flight must be >= 1");
  }
  // Negated so NaN is rejected too: a NaN duration would never suppress a
  // move or blacklist a bounce.
  if (!(params_.dwell_min_s >= 0.0 && params_.host_cooldown_s >= 0.0 &&
        params_.blacklist_s >= 0.0)) {
    throw std::invalid_argument("PolicyParams durations must be non-negative");
  }
  if (!std::isfinite(params_.interval_s)) {
    throw std::invalid_argument("PolicyParams::interval_s must be finite");
  }
  // "Never": no host has migrated yet, and the cooldown guard subtracts.
  host_last_migration_s_.assign(view_.host_count(), -1e300);
}

void MigrationPolicy::set_emit_sink(sim::EmitSink* sink) {
  sink_ = sink;
  if (sink_ != nullptr) source_ = sink_->add_event_source("policy");
}

void MigrationPolicy::start() {
  if (started_) throw std::logic_error("MigrationPolicy::start called twice");
  const double period = cfg_.sample_interval_s;
  const double interval = params_.interval_s <= 0.0 ? period : params_.interval_s;
  interval_ticks_ = static_cast<int>(std::lround(interval / period));
  if (interval_ticks_ < 1 ||
      std::abs(interval_ticks_ * period - interval) > 1e-9 * std::max(1.0, interval)) {
    throw std::invalid_argument(
        "PolicyParams::interval_s must be a whole multiple of sample_interval_s");
  }
  // Barrier phase only: the policy has no per-host parallel half, and it
  // must run AFTER the node managers' barrier hooks (escalations) so it
  // reads this interval's final control state.
  cloud_.register_host_pipeline(period, nullptr, [this](sim::SimTime now) {
    if (++tick_ < interval_ticks_) return;
    tick_ = 0;
    step(now);
  });
  cloud_.add_migration_listener([this](const cloud::MigrationEvent& ev) { on_migration(ev); });
  started_ = true;
}

MigrationPolicy::VmState& MigrationPolicy::state(int vm_id, sim::SimTime now) {
  VmState& st = *vm_state_.try_emplace(vm_id).first;
  if (!st.placed_known) {
    // VMs that predate the policy dwell from first sight — conservative and
    // independent of anything before the policy was armed.
    st.placed_known = true;
    st.placed_at = now;
  }
  return st;
}

void MigrationPolicy::emit(sim::SimTime t, std::string kind, double value) {
  if (sink_ != nullptr) sink_->emit_event(source_, t, std::move(kind), value);
}

void MigrationPolicy::step(sim::SimTime now) {
  view_.refresh(now);
  if (sink_ != nullptr) sink_->bump_counter(source_, "policy_intervals");
  for (std::size_t i = 0; i < view_.host_count(); ++i) {
    const HostView& h = view_.host(i);
    if (!h.up) continue;
    for (const core::Resource r : core::kResources) scan_host(h, r, now);
  }
}

void MigrationPolicy::scan_host(const HostView& h, core::Resource r, sim::SimTime now) {
  const bool victim_suffering = h.max_dev[r] > core::deviation_threshold(cfg_, r);
  for (const VmUsage& u : h.vms) {
    VmState& st = state(u.vm_id, now);
    int& streak = st.floor_streak[r];
    // The trigger wants BOTH halves sustained: throttling exhausted (cap at
    // floor) while the victim still deviates. Either half recovering resets
    // the escalation clock.
    if (!(u.at_floor[r] && victim_suffering)) {
      streak = 0;
      continue;
    }
    ++streak;
    if (streak < params_.floor_windows) continue;
    consider_migration(h, u, r, now);
  }
}

bool MigrationPolicy::pair_blacklisted(const VmState& st, std::size_t a, std::size_t b,
                                       sim::SimTime now) const {
  const auto lo = static_cast<std::int32_t>(std::min(a, b));
  const auto hi = static_cast<std::int32_t>(std::max(a, b));
  return st.bl_a == lo && st.bl_b == hi && now < st.bl_until;
}

void MigrationPolicy::consider_migration(const HostView& src, const VmUsage& u,
                                         core::Resource r, sim::SimTime now) {
  VmState& st = vm_state_.at(u.vm_id);
  // A migration already in flight IS the remedy; don't double-decide.
  if (st.policy_in_flight || cloud_.migration_in_flight(u.vm_id)) return;
  const std::string tag = std::string(core::name(r)) + " vm=" + std::to_string(u.vm_id);
  ++triggered_;
  if (sink_ != nullptr) sink_->bump_counter(source_, "policy_triggered");
  emit(now, "trigger " + tag + " host=" + src.name, src.max_dev[r]);

  // Guardrails, in fixed order; each suppression is counted and emitted so
  // the decision trail explains every interval the antagonist stayed put.
  if (in_flight_ >= params_.max_in_flight) {
    ++suppressed_budget_;
    if (sink_ != nullptr) sink_->bump_counter(source_, "policy_suppressed_budget");
    emit(now, "suppress_budget " + tag, static_cast<double>(in_flight_));
    return;
  }
  if (now - st.placed_at < params_.dwell_min_s) {
    ++suppressed_dwell_;
    if (sink_ != nullptr) sink_->bump_counter(source_, "policy_suppressed_dwell");
    emit(now, "suppress_dwell " + tag, now - st.placed_at);
    return;
  }
  if (now.seconds() - host_last_migration_s_[src.index] < params_.host_cooldown_s) {
    ++suppressed_cooldown_;
    if (sink_ != nullptr) sink_->bump_counter(source_, "policy_suppressed_cooldown");
    emit(now, "suppress_cooldown " + tag + " host=" + src.name,
         now.seconds() - host_last_migration_s_[src.index]);
    return;
  }

  // The antagonist must not land next to the application it is hurting:
  // collect the deviating protected apps on the source (the victims), then
  // refuse any destination hosting one of their VMs (VUPIC's complementary-
  // placement constraint applied to the interference verdict).
  victim_apps_.clear();
  const core::NodeManager& nm = view_.node_manager(src.index);
  const double threshold = core::deviation_threshold(cfg_, r);
  nm.for_each_protected_app([&](core::NodeManager::AppId app) {
    if (nm.latest_deviation(r, app) > threshold) victim_apps_.push_back(app);
  });

  virt::VmConfig shape;  // Admission math reads vcpus + memory only.
  shape.id = u.vm_id;
  shape.vcpus = u.vcpus;
  shape.memory = u.memory;
  shape.priority = u.priority;
  std::size_t best = ClusterView::npos;
  double best_score = 0.0;
  bool any_blacklisted = false;
  for (std::size_t j = 0; j < view_.host_count(); ++j) {
    if (j == src.index) continue;
    const HostView& d = view_.host(j);
    if (!d.up) continue;
    if (now.seconds() - host_last_migration_s_[j] < params_.host_cooldown_s) continue;
    if (pair_blacklisted(st, src.index, j, now)) {
      any_blacklisted = true;
      continue;
    }
    const bool hosts_victim = std::any_of(d.vms.begin(), d.vms.end(), [&](const VmUsage& v) {
      return std::find(victim_apps_.begin(), victim_apps_.end(), v.app) != victim_apps_.end();
    });
    if (hosts_victim) continue;
    if (!cloud_.has_capacity(d.name, shape)) continue;
    const double s = score(u, d);
    if (best == ClusterView::npos || s > best_score) {
      best = j;
      best_score = s;
    }
  }
  if (best == ClusterView::npos) {
    if (any_blacklisted) {
      ++suppressed_blacklist_;
      if (sink_ != nullptr) sink_->bump_counter(source_, "policy_suppressed_blacklist");
      emit(now, "suppress_blacklist " + tag, 0.0);
    } else {
      ++no_feasible_;
      if (sink_ != nullptr) sink_->bump_counter(source_, "policy_no_feasible");
      emit(now, "no_feasible " + tag, 0.0);
    }
    return;
  }

  const HostView& dst = view_.host(best);
  // Ping-pong detector: moving the VM straight back along its last policy
  // move is allowed ONCE (the cluster may genuinely have changed), but the
  // pair is blacklisted as it happens — a third bounce is suppressed above,
  // so an oscillation converges after one round trip.
  if (st.last_src == static_cast<std::int32_t>(best) &&
      st.last_dst == static_cast<std::int32_t>(src.index)) {
    st.bl_a = static_cast<std::int32_t>(std::min(best, src.index));
    st.bl_b = static_cast<std::int32_t>(std::max(best, src.index));
    st.bl_until = now + params_.blacklist_s;
    if (sink_ != nullptr) sink_->bump_counter(source_, "policy_pingpong_blacklisted");
    emit(now, "blacklist " + tag + " pair=" + src.name + "|" + dst.name, params_.blacklist_s);
  }
  st.last_src = static_cast<std::int32_t>(src.index);
  st.last_dst = static_cast<std::int32_t>(best);
  st.floor_streak[r] = 0;
  st.policy_in_flight = true;
  ++in_flight_;
  ++migrated_;
  if (sink_ != nullptr) sink_->bump_counter(source_, "policy_migrated");
  emit(now, "migrate " + tag + " src=" + src.name + " dst=" + dst.name, best_score);
  // May complete synchronously (instantaneous model): the kArrived listener
  // clears policy_in_flight and stamps cooldowns during this call, so all
  // bookkeeping above happens first and `st` is not touched again.
  cloud_.migrate_vm(u.vm_id, dst.name);
}

double MigrationPolicy::score(const VmUsage& u, const HostView& dst) const {
  switch (params_.scoring) {
    case Scoring::kFirstFit:
      return -static_cast<double>(dst.index);
    case Scoring::kComplementary: {
      // VUPIC-style complementary placement: prefer the destination whose
      // aggregate usage vector overlaps least with the VM's own (a disk-
      // heavy antagonist lands on a CPU-heavy host, not another disk-heavy
      // one). CPU and disk normalize by nameplate capacity; LLC miss rate
      // has no capacity, so it normalizes by the largest per-host aggregate
      // seen this refresh. Load breaks overlap ties toward emptier hosts.
      const double lnorm = std::max(view_.max_host_llc_rate(), 1.0);
      const double vm_cpu = u.cpu_cores / dst.cores;
      const double vm_io = u.io_bps / dst.disk_bw;
      const double vm_llc = u.llc_rate / lnorm;
      const double h_cpu = dst.cpu_cores_used / dst.cores;
      const double h_io = dst.io_bps / dst.disk_bw;
      const double h_llc = dst.llc_rate / lnorm;
      const double overlap = vm_cpu * h_cpu + vm_io * h_io + vm_llc * h_llc;
      const double load = h_cpu + h_io + h_llc;
      return -overlap - 1e-3 * load;
    }
  }
  return 0.0;
}

void MigrationPolicy::on_migration(const cloud::MigrationEvent& ev) {
  const sim::SimTime now = cloud_.engine().now();
  const auto stamp = [&](const std::string& host) {
    const std::size_t i = view_.index_of(host);
    if (i != ClusterView::npos) host_last_migration_s_[i] = now.seconds();
  };
  switch (ev.phase) {
    case cloud::MigrationPhase::kStarted:
      // Timed model: copy traffic starts now; both ends enter cooldown.
      stamp(ev.src);
      stamp(ev.dst);
      break;
    case cloud::MigrationPhase::kDeparting:
      break;
    case cloud::MigrationPhase::kArrived: {
      // ANY arrival (policy move or §IV-D escalation) restarts the dwell
      // clock and the endpoint cooldowns.
      VmState& st = *vm_state_.try_emplace(ev.vm_id).first;
      st.placed_known = true;
      st.placed_at = now;
      if (st.policy_in_flight) {
        st.policy_in_flight = false;
        --in_flight_;
      }
      stamp(ev.src);
      stamp(ev.dst);
      break;
    }
    case cloud::MigrationPhase::kAborted: {
      VmState* st = vm_state_.find(ev.vm_id);
      if (st != nullptr && st->policy_in_flight) {
        st->policy_in_flight = false;
        --in_flight_;
        ++aborted_;
        if (sink_ != nullptr) sink_->bump_counter(source_, "policy_migrations_aborted");
      }
      break;
    }
  }
}

}  // namespace perfcloud::policy
