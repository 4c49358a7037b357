// Discrete-event queue: the heart of the simulation kernel.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

#include "sim/types.hpp"

namespace perfcloud::sim {

/// Handle returned when scheduling an event; can be used to cancel it.
///
/// A handle names a storage slot plus the generation the slot had when the
/// event was scheduled. Slots are recycled after an event fires or is
/// cancelled, but recycling bumps the generation, so a stale handle can
/// never cancel the wrong event (until a slot's 32-bit generation wraps,
/// i.e. after ~4 billion reuses of one slot).
struct EventHandle {
  std::uint32_t slot = 0;  ///< 1-based slot index; 0 = invalid.
  std::uint32_t generation = 0;
  [[nodiscard]] bool valid() const { return slot != 0; }
};

/// Timed callbacks with stable FIFO ordering for simultaneous events (ties
/// broken by insertion sequence, so behaviour is deterministic).
///
/// Callbacks live in a slot map: a free-list-indexed vector whose entries
/// are generation-tagged. Pending times are ordered by a min-heap of
/// (t, seq) entries: O(log n) schedule and dispatch, O(1) lazy cancellation
/// (cancel releases the slot; the stale heap entry no longer matches its
/// slot's generation and is skipped when it reaches the top). Nothing ever
/// searches or compacts a sorted callback array.
class EventQueue {
 public:
  using Callback = std::function<void(SimTime)>;

  /// Schedule `cb` to fire at absolute time `t`. `t` must not be in the past
  /// relative to the last popped event.
  EventHandle schedule(SimTime t, Callback cb);

  /// Cancel a scheduled event. Cancelling an already-fired or already-
  /// cancelled event is a harmless no-op. Returns true if the event was
  /// still pending.
  bool cancel(EventHandle h);

  [[nodiscard]] bool empty() const;
  [[nodiscard]] std::size_t pending() const { return live_; }

  /// Time of the next live event; SimTime::infinity() if none.
  [[nodiscard]] SimTime next_time() const;

  /// Pop and run the next live event; returns false if the queue is empty.
  bool run_next();

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Slot {
    Callback cb;
    std::uint32_t generation = 1;
    std::uint32_t next_free = kNoSlot;  ///< Free-list link; kNoSlot when live.
    bool live = false;
  };

  struct Entry {
    SimTime t;
    std::uint64_t seq;
    std::uint32_t slot;        ///< 0-based index into slots_.
    std::uint32_t generation;  ///< Slot generation at schedule time.
    // Heap invariant: earliest time first, then lowest sequence number.
    bool operator>(const Entry& other) const {
      if (t != other.t) return t > other.t;
      return seq > other.seq;
    }
  };

  /// Pop heap entries whose slot generation no longer matches (cancelled).
  void drop_cancelled() const;
  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);

  mutable std::priority_queue<Entry, std::vector<Entry>, std::greater<>> heap_;
  std::vector<Slot> slots_;
  std::uint32_t free_head_ = kNoSlot;
  std::uint64_t next_seq_ = 0;
  std::size_t live_ = 0;
};

}  // namespace perfcloud::sim
