#include "sim/event_queue.hpp"

#include <cassert>
#include <utility>

namespace perfcloud::sim {

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoSlot;
    slots_[index].live = true;
    return index;
  }
  slots_.push_back(Slot{});
  slots_.back().live = true;
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::release_slot(std::uint32_t index) {
  Slot& s = slots_[index];
  s.cb = nullptr;  // free captured state eagerly
  s.live = false;
  ++s.generation;  // stale heap entries and handles stop matching
  s.next_free = free_head_;
  free_head_ = index;
}

EventHandle EventQueue::schedule(SimTime t, Callback cb) {
  const std::uint32_t index = acquire_slot();
  Slot& s = slots_[index];
  s.cb = std::move(cb);
  heap_.push(Entry{t, next_seq_++, index, s.generation});
  ++live_;
  return EventHandle{index + 1, s.generation};
}

bool EventQueue::cancel(EventHandle h) {
  if (!h.valid() || h.slot > slots_.size()) return false;
  const std::uint32_t index = h.slot - 1;
  Slot& s = slots_[index];
  if (!s.live || s.generation != h.generation) return false;
  release_slot(index);
  --live_;
  return true;
}

void EventQueue::drop_cancelled() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    const Slot& s = slots_[top.slot];
    if (s.live && s.generation == top.generation) return;
    heap_.pop();
  }
}

bool EventQueue::empty() const {
  drop_cancelled();
  return heap_.empty();
}

SimTime EventQueue::next_time() const {
  drop_cancelled();
  return heap_.empty() ? SimTime::infinity() : heap_.top().t;
}

bool EventQueue::run_next() {
  drop_cancelled();
  if (heap_.empty()) return false;
  const Entry top = heap_.top();
  heap_.pop();
  Slot& s = slots_[top.slot];
  assert(s.live && s.generation == top.generation);
  Callback fn = std::move(s.cb);
  release_slot(top.slot);
  --live_;
  fn(top.t);
  return true;
}

}  // namespace perfcloud::sim
