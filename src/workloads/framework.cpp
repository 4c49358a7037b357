#include "workloads/framework.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <stdexcept>

namespace perfcloud::wl {

ScaleOutFramework::ScaleOutFramework(sim::Engine& engine, std::string app_id)
    : engine_(engine), app_id_(std::move(app_id)), rng_(engine.rng().split(0xf4a)) {}

ScaleOutWorker& ScaleOutFramework::add_worker(virt::Vm& vm, std::string host_name) {
  auto worker = std::make_unique<ScaleOutWorker>(vm.vcpus());
  ScaleOutWorker* raw = worker.get();
  vm.attach(std::move(worker));
  workers_.push_back(WorkerRef{&vm, raw, std::move(host_name), vm.id()});
  return *raw;
}

void ScaleOutFramework::on_worker_vms_lost(const std::vector<int>& vm_ids, sim::SimTime now) {
  for (WorkerRef& w : workers_) {
    if (w.dead() || std::find(vm_ids.begin(), vm_ids.end(), w.vm_id) == vm_ids.end()) continue;
    const auto widx = static_cast<int>(&w - workers_.data());
    // Kill the attempts while the old worker object is still alive; the
    // tasks become schedulable again and re-run elsewhere.
    for (const auto& j : jobs_) {
      if (j->finished()) continue;
      for (std::size_t s = 0; s < j->stage_count(); ++s) {
        for (TaskState& t : j->stage(s)) {
          for (AttemptRecord& a : t.attempts) {
            if (a.running && a.worker_index == widx) {
              kill_attempt(a, now);
              ++crash_lost_attempts_;
            }
          }
        }
      }
    }
    w.vm = nullptr;
    w.worker = nullptr;
  }
}

bool ScaleOutFramework::has_worker_vm(int vm_id) const {
  return std::any_of(workers_.begin(), workers_.end(),
                     [vm_id](const WorkerRef& w) { return w.vm_id == vm_id; });
}

ScaleOutWorker& ScaleOutFramework::rebind_worker(int old_vm_id, virt::Vm& vm,
                                                 std::string host_name) {
  for (WorkerRef& w : workers_) {
    if (w.vm_id != old_vm_id) continue;
    if (!w.dead()) {
      throw std::logic_error("rebind_worker: worker vm " + std::to_string(old_vm_id) +
                             " is still alive");
    }
    auto worker = std::make_unique<ScaleOutWorker>(vm.vcpus());
    ScaleOutWorker* raw = worker.get();
    vm.attach(std::move(worker));
    w.vm = &vm;
    w.worker = raw;
    w.host = std::move(host_name);
    w.vm_id = vm.id();
    return *raw;
  }
  throw std::invalid_argument("rebind_worker: no worker had vm id " + std::to_string(old_vm_id));
}

void ScaleOutFramework::start(double period) {
  if (started_) throw std::logic_error("framework already started");
  started_ = true;
  poll_period_ = period;
  engine_.every(period, [this](sim::SimTime now) { poll(now); });
}

JobId ScaleOutFramework::submit(const JobSpec& spec) {
  const JobId id = next_job_id_++;
  jobs_.push_back(std::make_unique<Job>(id, spec, engine_.now(), rng_));
  return id;
}

std::vector<JobId> ScaleOutFramework::submit_cloned(const JobSpec& spec, int clones) {
  assert(clones >= 1);
  const int group = next_clone_group_++;
  std::vector<JobId> ids;
  ids.reserve(static_cast<std::size_t>(clones));
  std::vector<Job*>& members = clone_groups_.emplace_back();
  for (int c = 0; c < clones; ++c) {
    const JobId id = submit(spec);
    jobs_.back()->clone_group = group;
    members.push_back(jobs_.back().get());
    ids.push_back(id);
  }
  return ids;
}

Job* ScaleOutFramework::find_job(JobId id) {
  for (const auto& j : jobs_) {
    if (j->id() == id) return j.get();
  }
  return nullptr;
}

const Job* ScaleOutFramework::find_job(JobId id) const {
  return const_cast<ScaleOutFramework*>(this)->find_job(id);
}

void ScaleOutFramework::kill_job(JobId id) {
  if (Job* job = find_job(id)) kill_job(*job, engine_.now());
}

void ScaleOutFramework::kill_job(Job& job, sim::SimTime now) {
  if (job.finished()) return;
  for (std::size_t s = 0; s < job.stage_count(); ++s) {
    for (TaskState& t : job.stage(s)) {
      for (AttemptRecord& a : t.attempts) {
        if (a.running) kill_attempt(a, now);
      }
    }
  }
  job.mark_killed(now);
}

bool ScaleOutFramework::all_done() const {
  return std::all_of(jobs_.begin(), jobs_.end(),
                     [](const auto& j) { return j->finished(); });
}

double ScaleOutFramework::group_jct(int clone_group) const {
  double best = -1.0;
  for (const auto& j : jobs_) {
    if (j->clone_group == clone_group && j->completed()) {
      const double jct = j->jct();
      if (best < 0.0 || jct < best) best = jct;
    }
  }
  return best;
}

double ScaleOutFramework::utilization_efficiency() const {
  double useful = 0.0;
  double total = 0.0;
  const sim::SimTime now = engine_.now();
  for (const auto& j : jobs_) {
    for (std::size_t s = 0; s < j->stage_count(); ++s) {
      for (const TaskState& t : j->stage(s)) {
        for (const AttemptRecord& a : t.attempts) {
          const sim::SimTime end = a.running ? now : a.end;
          const double dur = end - a.start;
          total += dur;
          if (a.finished_ok) useful += dur;
        }
      }
    }
  }
  return total > 0.0 ? useful / total : 1.0;
}

void ScaleOutFramework::poll(sim::SimTime now) {
  inject_failures(now);
  reap(now);
  schedule(now);
  speculate(now);
}

void ScaleOutFramework::inject_failures(sim::SimTime now) {
  if (failure_rate_ <= 0.0) return;
  const double p_fail = 1.0 - std::exp(-failure_rate_ * poll_period_);
  for (const auto& j : jobs_) {
    if (j->finished()) continue;
    for (std::size_t s = 0; s < j->stage_count(); ++s) {
      for (TaskState& t : j->stage(s)) {
        for (AttemptRecord& a : t.attempts) {
          if (a.running && rng_.bernoulli(p_fail)) {
            kill_attempt(a, now);
            ++failed_attempts_;
          }
        }
      }
    }
  }
}

void ScaleOutFramework::kill_attempt(AttemptRecord& rec, sim::SimTime now) {
  assert(rec.running);
  workers_[static_cast<std::size_t>(rec.worker_index)].worker->remove(rec.attempt.get());
  rec.running = false;
  rec.killed = true;
  rec.end = now;
}

void ScaleOutFramework::reap(sim::SimTime now) {
  for (const auto& j : jobs_) {
    if (j->finished()) continue;
    bool progressed = false;
    for (std::size_t s = 0; s < j->stage_count(); ++s) {
      for (TaskState& t : j->stage(s)) {
        if (t.completed) continue;
        // Find a finished attempt (the winner); kill the losers.
        for (AttemptRecord& a : t.attempts) {
          if (a.running && a.attempt->done()) {
            a.running = false;
            a.finished_ok = true;
            a.end = now;
            workers_[static_cast<std::size_t>(a.worker_index)].worker->remove(a.attempt.get());
            t.completed = true;
            t.completed_at = now;
            progressed = true;
            break;
          }
        }
        if (t.completed) {
          for (AttemptRecord& a : t.attempts) {
            if (a.running) kill_attempt(a, now);
          }
        }
      }
    }
    if (progressed) {
      j->advance_barrier(now);
      // Dolly: the instant a clone completes it wins its group — kill the
      // sibling clones before they get a chance to be reaped this round.
      if (j->completed() && j->clone_group >= 0) settle_clone_group(*j, now);
    }
  }
}

void ScaleOutFramework::settle_clone_group(const Job& winner, sim::SimTime now) {
  // A clone only completes here, in reap, so settling each winner on the
  // spot leaves no group with a completed member and unfinished siblings.
  for (Job* other : clone_groups_[static_cast<std::size_t>(winner.clone_group - 1)]) {
    if (other != &winner) kill_job(*other, now);
  }
}

int ScaleOutFramework::total_free_slots() const {
  int n = 0;
  for (const WorkerRef& w : workers_) {
    if (!w.dead()) n += w.worker->free_slots();
  }
  return n;
}

int ScaleOutFramework::pick_least_loaded_worker() const {
  // Scan from a rotating cursor so ties between equally-free workers spread
  // placements across the cluster instead of piling onto the first worker —
  // real schedulers randomize over data-local candidates, and Dolly's whole
  // benefit depends on clones landing on different machines.
  int best = -1;
  int best_free = 0;
  const std::size_t n = workers_.size();
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t i = (placement_cursor_ + k) % n;
    if (workers_[i].dead()) continue;
    const int f = workers_[i].worker->free_slots();
    if (f > best_free) {
      best_free = f;
      best = static_cast<int>(i);
    }
  }
  if (best >= 0) placement_cursor_ = (static_cast<std::size_t>(best) + 1) % n;
  return best;
}

void ScaleOutFramework::launch_attempt(Job& job, std::size_t stage, std::size_t task,
                                       bool speculative, sim::SimTime now) {
  const int widx = pick_least_loaded_worker();
  if (widx < 0) return;
  TaskState& t = job.stage(stage)[task];

  TaskSpec spec = t.spec;
  if (shared_memory_shuffle_ && stage > 0 && workers_.size() > 1) {
    // Shuffle inputs (stage > 0 reads) from colocated peers arrive via
    // shared memory; only the remote fraction touches the disk. With map
    // outputs spread evenly over the workers, the local fraction is the
    // share of peers on this worker's host.
    const std::string& host = workers_[static_cast<std::size_t>(widx)].host;
    if (!host.empty()) {
      std::size_t colocated = 0;
      for (const WorkerRef& w : workers_) {
        if (!w.dead() && w.host == host) ++colocated;
      }
      const double local = static_cast<double>(colocated - 1) /
                           static_cast<double>(workers_.size() - 1);
      for (PhaseSpec& p : spec.phases) {
        if (p.kind == PhaseKind::kRead) {
          p.io_bytes *= 1.0 - local;
          p.io_ops *= 1.0 - local;
        }
      }
    }
  }

  AttemptRecord rec;
  rec.attempt = std::make_unique<TaskAttempt>(std::move(spec), now);
  rec.worker_index = widx;
  rec.start = now;
  rec.running = true;
  rec.speculative = speculative;
  workers_[static_cast<std::size_t>(widx)].worker->place(rec.attempt.get());
  t.attempts.push_back(std::move(rec));
}

void ScaleOutFramework::schedule(sim::SimTime now) {
  // FIFO across jobs (by submission order), tasks in index order, placed on
  // the least-loaded worker for the even spread scale-out schedulers aim at.
  for (const auto& j : jobs_) {
    if (j->finished() || j->current_stage() >= j->stage_count()) continue;
    auto& tasks = j->stage(j->current_stage());
    for (std::size_t i = 0; i < tasks.size(); ++i) {
      if (!tasks[i].schedulable()) continue;
      if (total_free_slots() <= 0) return;
      launch_attempt(*j, j->current_stage(), i, /*speculative=*/false, now);
    }
  }
}

void ScaleOutFramework::speculate(sim::SimTime now) {
  if (!speculator_) return;
  const int free = total_free_slots();
  if (free <= 0) return;
  std::vector<const Job*> running;
  for (const auto& j : jobs_) {
    if (!j->finished()) running.push_back(j.get());
  }
  if (running.empty()) return;
  const std::vector<TaskRef> picks = speculator_->pick(running, now, free);
  int budget = free;
  for (const TaskRef& ref : picks) {
    if (budget <= 0) return;
    Job* job = find_job(ref.job);
    if (job == nullptr || job->finished()) continue;
    if (ref.stage != job->current_stage()) continue;
    TaskState& t = job->stage(ref.stage)[ref.task];
    if (t.completed) continue;
    launch_attempt(*job, ref.stage, ref.task, /*speculative=*/true, now);
    --budget;
  }
}

}  // namespace perfcloud::wl
