// Cluster-level scale-out framework: the JobTracker / Spark-master analogue.
//
// Owns jobs and their task attempts, schedules attempts onto worker-VM
// slots, enforces stage barriers, and supports the two application-level
// straggler mitigations the paper compares against:
//  - speculative execution via a pluggable Speculator (LATE), and
//  - job-level cloning with first-finisher-wins (Dolly).
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "sim/engine.hpp"
#include "virt/vm.hpp"
#include "workloads/job.hpp"
#include "workloads/worker.hpp"

namespace perfcloud::wl {

/// Reference to one task inside one job.
struct TaskRef {
  JobId job = -1;
  std::size_t stage = 0;
  std::size_t task = 0;
};

/// Speculative-execution policy. Called once per scheduling round with the
/// number of slots still free after normal scheduling; returns tasks to
/// launch an extra attempt for, best candidates first.
class Speculator {
 public:
  virtual ~Speculator() = default;
  [[nodiscard]] virtual std::vector<TaskRef> pick(const std::vector<const Job*>& running_jobs,
                                                  sim::SimTime now, int free_slots) = 0;
};

class ScaleOutFramework {
 public:
  /// `app_id` ties the framework's worker VMs together in the cloud
  /// registry; PerfCloud protects them as one high-priority application.
  ScaleOutFramework(sim::Engine& engine, std::string app_id);

  ScaleOutFramework(const ScaleOutFramework&) = delete;
  ScaleOutFramework& operator=(const ScaleOutFramework&) = delete;

  /// Register `vm` as a worker with one slot per vCPU; attaches a
  /// ScaleOutWorker guest to the VM. `host_name` tags the worker's physical
  /// host (used by the shared-memory shuffle optimization; may be empty).
  ScaleOutWorker& add_worker(virt::Vm& vm, std::string host_name = {});

  /// §IV-D extension: shuffle data between colocated worker VMs moves over
  /// shared memory instead of the disk. When enabled, a task's shuffle-read
  /// volume (stage > 0 reads) shrinks by the fraction of its peers that
  /// share its host.
  void set_shared_memory_shuffle(bool enabled) { shared_memory_shuffle_ = enabled; }
  [[nodiscard]] bool shared_memory_shuffle() const { return shared_memory_shuffle_; }

  /// Begin the periodic scheduling loop (reap, barrier, schedule,
  /// speculate) with the given period in seconds. Call after the cloud has
  /// started ticking so scheduling runs after arbitration at equal times.
  void start(double period);

  void set_speculator(std::unique_ptr<Speculator> s) { speculator_ = std::move(s); }

  /// Failure injection: every running attempt fails independently with this
  /// rate (per attempt-second). Failed attempts are reaped like killed ones
  /// (their runtime counts as waste) and the task becomes schedulable
  /// again — the retry loop every real framework has.
  ///
  /// This is the primitive actuator behind the faults subsystem's
  /// TaskFailure kind: a kTaskFailure spec injected at t=0 that never
  /// recovers is exactly this knob, and the FaultInjector drives the rate
  /// through this setter on inject/recover.
  void set_task_failure_rate(double per_second) { failure_rate_ = per_second; }
  [[nodiscard]] double task_failure_rate() const { return failure_rate_; }
  /// Total attempts that were failed by injection so far.
  [[nodiscard]] int failed_attempts() const { return failed_attempts_; }

  // --- Fault hooks (HostCrash) ---
  /// The given worker VMs are about to die with their host: kill every
  /// attempt running on them (the task becomes schedulable again — lost
  /// work is re-executed, as real frameworks do on node loss) and mark the
  /// workers dead so scheduling skips them. MUST be called while the VMs
  /// still exist — removing an attempt touches the old worker object.
  void on_worker_vms_lost(const std::vector<int>& vm_ids, sim::SimTime now);
  /// A replacement VM has been booted for a crashed worker: attach a fresh
  /// ScaleOutWorker guest to it and take over the dead worker's slot in the
  /// roster (same worker index, new VM id and host). Throws if `old_vm_id`
  /// does not name a dead worker.
  ScaleOutWorker& rebind_worker(int old_vm_id, virt::Vm& vm, std::string host_name);
  /// Attempts killed by host crashes so far (distinct from failed_attempts).
  [[nodiscard]] int crash_lost_attempts() const { return crash_lost_attempts_; }
  /// Whether `vm_id` names one of this framework's workers (alive or dead) —
  /// lets the fault injector tell worker victims from bystander VMs.
  [[nodiscard]] bool has_worker_vm(int vm_id) const;

  JobId submit(const JobSpec& spec);
  /// Dolly: submit `clones` identical copies as one clone group; the first
  /// copy to complete wins and the rest are killed (§IV-C).
  std::vector<JobId> submit_cloned(const JobSpec& spec, int clones);
  void kill_job(JobId id);

  [[nodiscard]] const Job* find_job(JobId id) const;
  [[nodiscard]] Job* find_job(JobId id);
  [[nodiscard]] const std::vector<std::unique_ptr<Job>>& jobs() const { return jobs_; }
  [[nodiscard]] const std::string& app_id() const { return app_id_; }
  [[nodiscard]] std::size_t worker_count() const { return workers_.size(); }

  /// True when every submitted job has completed or been killed.
  [[nodiscard]] bool all_done() const;

  /// Completion time of a clone group (or of a single job, for group -1
  /// jobs pass the job id): first completion minus submit time.
  [[nodiscard]] double group_jct(int clone_group) const;

  /// The paper's resource-utilization-efficiency metric (§IV-C, Fig 11c):
  /// sum of successful attempt durations over the sum of all attempt
  /// durations, including killed speculative copies and killed clones.
  [[nodiscard]] double utilization_efficiency() const;

  /// Run one scheduling round now (also called by the periodic loop;
  /// exposed for tests and for drivers that need immediate placement).
  void poll(sim::SimTime now);

 private:
  struct WorkerRef {
    virt::Vm* vm;             ///< nullptr while dead (host crashed).
    ScaleOutWorker* worker;   ///< nullptr while dead.
    std::string host;
    int vm_id = -1;           ///< Stable key for rebinding after a crash.
    [[nodiscard]] bool dead() const { return worker == nullptr; }
  };

  void reap(sim::SimTime now);
  void inject_failures(sim::SimTime now);
  /// Dolly: kill the unfinished clones of `winner`'s group, in submission
  /// order. Costs O(group size), once per completed clone.
  void settle_clone_group(const Job& winner, sim::SimTime now);
  void kill_job(Job& job, sim::SimTime now);
  void schedule(sim::SimTime now);
  void speculate(sim::SimTime now);
  void kill_attempt(AttemptRecord& rec, sim::SimTime now);
  void launch_attempt(Job& job, std::size_t stage, std::size_t task, bool speculative,
                      sim::SimTime now);
  [[nodiscard]] int total_free_slots() const;
  [[nodiscard]] int pick_least_loaded_worker() const;

  sim::Engine& engine_;
  std::string app_id_;
  std::vector<WorkerRef> workers_;
  std::vector<std::unique_ptr<Job>> jobs_;
  /// Members of each clone group in submission (= jobs_) order; group g is
  /// at index g - 1.
  std::vector<std::vector<Job*>> clone_groups_;
  std::unique_ptr<Speculator> speculator_;
  sim::Rng rng_;
  JobId next_job_id_ = 1;
  int next_clone_group_ = 1;
  bool started_ = false;
  bool shared_memory_shuffle_ = false;
  double failure_rate_ = 0.0;
  double poll_period_ = 1.0;
  int failed_attempts_ = 0;
  int crash_lost_attempts_ = 0;
  mutable std::size_t placement_cursor_ = 0;
};

}  // namespace perfcloud::wl
