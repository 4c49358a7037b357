// Simulator-core microbenchmark: the perf trajectory baseline for the
// engine hot paths rebuilt in the O(log n) overhaul.
//
// Two workloads, each measured against an in-file reimplementation of the
// *seed* data structures so before/after lives in one binary:
//  1. event/periodic throughput — 150 periodic activities plus a churning
//     population of 10k pending one-shot events (every fired event schedules
//     a successor; a slice gets cancelled and replaced, the clone-kill
//     pattern). Seed implementation: callbacks in a sorted vector with O(n)
//     erase per dispatch/cancel, periodics re-scanned linearly per event.
//  2. identifier ticks — one victim deviation signal correlated against a
//     suspect population every 5 s interval at correlation window 60.
//     Seed implementation: re-align + re-sum the window per suspect per tick
//     (the batch path, still in the tree); new implementation: the
//     incremental RollingCorrelation path.
//
// Results go to stdout and BENCH_engine.json.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <functional>
#include <iostream>
#include <vector>

#include "core/identifier.hpp"
#include "hw_context.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"
#include "sim/time_series.hpp"

using namespace perfcloud;

namespace {

double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// --- Seed-style event queue + engine (the "before" reference) -------------
//
// Faithful to the seed's asymptotics: a min-heap of (time, seq, id) entries
// over a sorted id->callback vector, erased by memmove on every dispatch and
// cancel; periodics stored in a plain vector and linearly scanned for the
// next due one on every step.
namespace legacy {

struct Handle {
  std::uint64_t id = 0;
};

class EventQueue {
 public:
  using Callback = std::function<void(sim::SimTime)>;

  Handle schedule(sim::SimTime t, Callback cb) {
    const std::uint64_t id = next_id_++;
    heap_.push_back(Entry{t, next_seq_++, id});
    std::push_heap(heap_.begin(), heap_.end(), Later{});
    callbacks_.emplace_back(id, std::move(cb));
    return Handle{id};
  }

  bool cancel(Handle h) {
    const auto it = find(h.id);
    if (it == callbacks_.end()) return false;
    callbacks_.erase(it);  // O(n) memmove — the seed's cancel cost
    return true;
  }

  [[nodiscard]] sim::SimTime next_time() {
    drop_cancelled();
    return heap_.empty() ? sim::SimTime::infinity() : heap_.front().t;
  }

  bool run_next() {
    drop_cancelled();
    if (heap_.empty()) return false;
    std::pop_heap(heap_.begin(), heap_.end(), Later{});
    const Entry top = heap_.back();
    heap_.pop_back();
    const auto it = find(top.id);
    Callback fn = std::move(it->second);
    callbacks_.erase(it);  // O(n) memmove — the seed's dispatch cost
    fn(top.t);
    return true;
  }

 private:
  struct Entry {
    sim::SimTime t;
    std::uint64_t seq;
    std::uint64_t id;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.t != b.t) return a.t > b.t;
      return a.seq > b.seq;
    }
  };

  std::vector<std::pair<std::uint64_t, Callback>>::iterator find(std::uint64_t id) {
    const auto it = std::lower_bound(callbacks_.begin(), callbacks_.end(), id,
                                     [](const auto& p, std::uint64_t v) { return p.first < v; });
    if (it == callbacks_.end() || it->first != id) return callbacks_.end();
    return it;
  }

  void drop_cancelled() {
    while (!heap_.empty()) {
      if (find(heap_.front().id) != callbacks_.end()) return;
      std::pop_heap(heap_.begin(), heap_.end(), Later{});
      heap_.pop_back();
    }
  }

  std::vector<Entry> heap_;
  std::vector<std::pair<std::uint64_t, Callback>> callbacks_;
  std::uint64_t next_id_ = 1;
  std::uint64_t next_seq_ = 0;
};

class Engine {
 public:
  using PeriodicFn = std::function<void(sim::SimTime)>;

  [[nodiscard]] sim::SimTime now() const { return now_; }
  Handle at(sim::SimTime t, EventQueue::Callback cb) { return queue_.schedule(t, std::move(cb)); }
  Handle after(double dt, EventQueue::Callback cb) {
    return queue_.schedule(now_ + dt, std::move(cb));
  }
  bool cancel(Handle h) { return queue_.cancel(h); }
  void every(double period, PeriodicFn fn, sim::SimTime start) {
    periodics_.push_back(Periodic{period, std::move(fn), start});
  }

  sim::SimTime run_until(sim::SimTime t_end) {
    for (;;) {
      sim::SimTime next_periodic = sim::SimTime::infinity();
      for (const Periodic& p : periodics_) next_periodic = std::min(next_periodic, p.next);
      const sim::SimTime next_event = queue_.next_time();
      const sim::SimTime next = std::min(next_periodic, next_event);
      if (next > t_end || next == sim::SimTime::infinity()) {
        now_ = t_end;
        return now_;
      }
      if (next_periodic <= next_event) {
        fire_due_periodics(next_periodic);
      } else {
        now_ = next_event;
        queue_.run_next();
      }
    }
  }

 private:
  struct Periodic {
    double period;
    PeriodicFn fn;
    sim::SimTime next;
  };

  void fire_due_periodics(sim::SimTime t) {
    for (;;) {
      std::size_t best = periodics_.size();
      sim::SimTime best_t = sim::SimTime::infinity();
      for (std::size_t i = 0; i < periodics_.size(); ++i) {
        if (periodics_[i].next <= t && periodics_[i].next < best_t) {
          best = i;
          best_t = periodics_[i].next;
        }
      }
      if (best == periodics_.size()) return;
      now_ = best_t;
      Periodic& p = periodics_[best];
      p.next = p.next + p.period;
      p.fn(now_);
    }
  }

  sim::SimTime now_{0.0};
  EventQueue queue_;
  std::vector<Periodic> periodics_;
};

}  // namespace legacy

// --- Workload 1: event/periodic churn -------------------------------------

constexpr int kPeriodics = 150;
constexpr int kPendingEvents = 10000;
constexpr double kHorizonS = 200.0;

/// Drives either engine through the same deterministic churn; returns
/// (events fired, wall seconds).
template <typename EngineT, typename HandleT>
std::pair<std::uint64_t, double> run_event_churn() {
  EngineT eng;
  sim::Rng rng(4242);
  std::uint64_t fired = 0;

  for (int i = 0; i < kPeriodics; ++i) {
    eng.every(1.0, [&fired](sim::SimTime) { ++fired; },
              sim::SimTime(rng.uniform(0.0, 1.0)));
  }

  // Self-renewing event population: each event schedules its successor, and
  // every 8th firing also cancels one pending victim and replaces it (the
  // speculative-clone kill pattern that exercises cancel).
  std::vector<HandleT> handles(static_cast<std::size_t>(kPendingEvents));
  std::function<void(std::size_t, sim::SimTime)> fire = [&](std::size_t slot, sim::SimTime t) {
    ++fired;
    const double dt = rng.uniform(0.5, 40.0);
    handles[slot] = eng.at(t + dt, [&fire, slot](sim::SimTime at) { fire(slot, at); });
    if (fired % 8 == 0) {
      const auto victim =
          static_cast<std::size_t>(rng.uniform_int(0, kPendingEvents - 1));
      if (victim != slot && eng.cancel(handles[victim])) {
        const double vdt = rng.uniform(0.5, 40.0);
        handles[victim] = eng.at(t + vdt, [&fire, victim](sim::SimTime at) { fire(victim, at); });
      }
    }
  };
  for (std::size_t i = 0; i < handles.size(); ++i) {
    const double t0 = rng.uniform(0.0, 40.0);
    handles[i] = eng.at(sim::SimTime(t0), [&fire, i](sim::SimTime at) { fire(i, at); });
  }

  const double t0 = now_seconds();
  eng.run_until(sim::SimTime(kHorizonS));
  const double dt = now_seconds() - t0;
  return {fired, dt};
}

// --- Workload 2: identifier ticks ------------------------------------------

constexpr std::size_t kWindow = 60;
constexpr int kSuspects = 30;
constexpr int kTicks = 4000;

/// One victim signal vs kSuspects gappy usage series, scored every tick.
/// `use_incremental` switches between the seed batch path and the rolling
/// path; returns (ns per tick, checksum of correlations for verification).
std::pair<double, double> run_identifier_ticks(bool use_incremental) {
  core::PerfCloudConfig cfg;
  cfg.correlation_window = kWindow;
  core::AntagonistIdentifier ident(cfg);

  sim::Rng rng(7);
  sim::TimeSeries victim("victim");
  std::vector<sim::TimeSeries> suspects;
  suspects.reserve(kSuspects);
  for (int i = 0; i < kSuspects; ++i) suspects.emplace_back("s" + std::to_string(i));
  std::vector<core::SuspectSignal> sig;
  for (int i = 0; i < kSuspects; ++i) sig.push_back(core::SuspectSignal{i, &suspects[i]});

  double checksum = 0.0;
  double elapsed = 0.0;
  for (int tick = 0; tick < kTicks; ++tick) {
    const sim::SimTime t(5.0 * tick);
    for (auto& s : suspects) {
      if (rng.uniform() < 0.7) s.add(t, rng.uniform());  // gappy: ~30 % missing
    }
    victim.add(t, rng.uniform());

    const double t0 = now_seconds();
    const std::vector<core::SuspectScore> scores =
        use_incremental ? ident.score_incremental(0, victim, sig) : ident.score(victim, sig);
    elapsed += now_seconds() - t0;
    for (const core::SuspectScore& s : scores) checksum += s.correlation;
  }
  return {elapsed / kTicks * 1e9, checksum};
}

}  // namespace

int main() {
  std::cout << "micro_engine: simulator hot-path before/after (seed-style vs current)\n\n";

  const auto [legacy_fired, legacy_s] = run_event_churn<legacy::Engine, legacy::Handle>();
  const auto [fired, cur_s] = run_event_churn<sim::Engine, sim::EventHandle>();
  const double legacy_eps = static_cast<double>(legacy_fired) / legacy_s;
  const double cur_eps = static_cast<double>(fired) / cur_s;
  const double event_speedup = cur_eps / legacy_eps;
  std::cout << "event churn (" << kPeriodics << " periodics, " << kPendingEvents
            << " pending events, " << kHorizonS << " s horizon):\n"
            << "  seed-style: " << static_cast<std::uint64_t>(legacy_eps) << " events/s ("
            << legacy_fired << " events in " << legacy_s << " s)\n"
            << "  current:    " << static_cast<std::uint64_t>(cur_eps) << " events/s (" << fired
            << " events in " << cur_s << " s)\n"
            << "  speedup:    " << event_speedup << "x\n\n";

  const auto [batch_ns, batch_sum] = run_identifier_ticks(false);
  const auto [incr_ns, incr_sum] = run_identifier_ticks(true);
  const double ident_speedup = batch_ns / incr_ns;
  std::cout << "identifier ticks (window " << kWindow << ", " << kSuspects << " suspects, "
            << kTicks << " ticks):\n"
            << "  batch (seed path): " << batch_ns << " ns/tick\n"
            << "  incremental:       " << incr_ns << " ns/tick\n"
            << "  speedup:           " << ident_speedup << "x\n"
            << "  correlation checksum delta (agreement check): " << (batch_sum - incr_sum)
            << "\n\n";

  std::ofstream json("BENCH_engine.json");
  json << "{\n"
       << "  \"hw_context\": " << bench::hw_context_json() << ",\n"
       << "  \"event_churn\": {\n"
       << "    \"periodics\": " << kPeriodics << ",\n"
       << "    \"pending_events\": " << kPendingEvents << ",\n"
       << "    \"events_per_sec_seed\": " << legacy_eps << ",\n"
       << "    \"events_per_sec\": " << cur_eps << ",\n"
       << "    \"speedup\": " << event_speedup << "\n"
       << "  },\n"
       << "  \"identifier\": {\n"
       << "    \"window\": " << kWindow << ",\n"
       << "    \"suspects\": " << kSuspects << ",\n"
       << "    \"ns_per_tick_batch\": " << batch_ns << ",\n"
       << "    \"ns_per_tick_incremental\": " << incr_ns << ",\n"
       << "    \"speedup\": " << ident_speedup << ",\n"
       << "    \"correlation_checksum_delta\": " << (batch_sum - incr_sum) << "\n"
       << "  }\n"
       << "}\n";
  std::cout << "\nwrote BENCH_engine.json\n";
  return 0;
}
