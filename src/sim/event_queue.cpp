#include "sim/event_queue.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>

namespace hetflow::sim {

EventId EventQueue::schedule_at(SimTime when, Callback fn) {
  HETFLOW_REQUIRE_MSG(fn != nullptr, "cannot schedule a null callback");
  HETFLOW_REQUIRE_MSG(std::isfinite(when), "event time must be finite");
  if (when < now_) {
    // Accumulated floating-point error over ~10^6 `now + duration` hops
    // can land a deadline a few ulps below now(); clamp those to fire
    // immediately. A gap beyond rounding slack is a logic bug upstream.
    const SimTime slack = 1e-9 * std::max(1.0, std::abs(now_));
    HETFLOW_REQUIRE_MSG(when >= now_ - slack,
                        "cannot schedule an event in the past");
    assert(now_ - when <= slack && "schedule_at clamped an almost-past time");
    when = now_;
  }

  std::uint32_t index;
  if (free_head_ != kNil) {
    index = free_head_;
    free_head_ = slots_[index].next_free;
  } else {
    HETFLOW_REQUIRE_MSG(slots_.size() < kNil, "event slab exhausted");
    index = static_cast<std::uint32_t>(slots_.size());
    slots_.emplace_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  const EventId id =
      (static_cast<EventId>(index) << 32) | static_cast<EventId>(slot.gen);

  heap_.push_back(Event{when, next_seq_++, id});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_events_;
  peak_pending_ = std::max(peak_pending_, live_events_);
  return id;
}

void EventQueue::retire_slot(std::uint32_t index) noexcept {
  Slot& slot = slots_[index];
  ++slot.gen;
  if (slot.gen == 0) {
    slot.gen = 1;  // keep ids nonzero so 0 stays the "no event" sentinel
  }
  slot.next_free = free_head_;
  free_head_ = index;
}

bool EventQueue::cancel(EventId id) {
  if (!is_live(id)) {
    return false;
  }
  const std::uint32_t index = slot_index(id);
  slots_[index].fn = nullptr;
  retire_slot(index);
  --live_events_;
  ++carcasses_;
  // Keep the heap at most ~1.5x the live entries: a cancel-heavy run
  // (failure injection + retries) would otherwise pay O(cancelled) space
  // and log-factor time until drained.
  if (carcasses_ > live_events_ / 2 && carcasses_ > 8) {
    compact();
  }
  return true;
}

void EventQueue::compact() {
  std::erase_if(heap_,
                [this](const Event& event) { return !is_live(event.id); });
  std::make_heap(heap_.begin(), heap_.end(), Later{});
  carcasses_ = 0;
}

bool EventQueue::debug_consistent() const {
  std::size_t occupied = 0;
  for (const Slot& slot : slots_) {
    occupied += slot.fn != nullptr ? 1 : 0;
  }
  if (occupied != live_events_) {
    return false;
  }
  if (heap_.size() != live_events_ + carcasses_) {
    return false;
  }
  std::size_t live_in_heap = 0;
  for (const Event& event : heap_) {
    live_in_heap += is_live(event.id) ? 1 : 0;
  }
  if (live_in_heap != live_events_) {
    return false;
  }
  // The free list must thread exactly the unoccupied slots, acyclically.
  std::size_t free_len = 0;
  for (std::uint32_t walk = free_head_; walk != kNil;
       walk = slots_[walk].next_free) {
    if (walk >= slots_.size() || slots_[walk].fn != nullptr ||
        ++free_len > slots_.size()) {
      return false;
    }
  }
  return free_len == slots_.size() - occupied;
}

EventQueue::Callback EventQueue::take_callback(EventId id) noexcept {
  if (!is_live(id)) {
    return nullptr;  // cancelled
  }
  const std::uint32_t index = slot_index(id);
  Callback fn = std::move(slots_[index].fn);
  slots_[index].fn = nullptr;
  retire_slot(index);
  --live_events_;
  return fn;
}

EventQueue::Event EventQueue::pop_top() noexcept {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event event = heap_.back();
  heap_.pop_back();
  return event;
}

bool EventQueue::step() {
  while (!heap_.empty()) {
    const Event event = pop_top();
    Callback fn = take_callback(event.id);
    if (!fn) {
      assert(carcasses_ > 0 && "dead heap entry with no carcass counted");
      --carcasses_;  // lazily deleted
      continue;
    }
    now_ = event.when;
    ++executed_;
    fn();
    return true;
  }
  return false;
}

SimTime EventQueue::run() {
  while (step()) {
  }
  return now_;
}

SimTime EventQueue::run_until(SimTime limit) {
  HETFLOW_REQUIRE_MSG(limit >= now_, "run_until limit is in the past");
  while (!heap_.empty()) {
    // Skip cancelled carcasses at the head without advancing time.
    const Event event = heap_.front();
    if (!is_live(event.id)) {
      pop_top();
      assert(carcasses_ > 0 && "dead heap entry with no carcass counted");
      --carcasses_;
      continue;
    }
    if (event.when > limit) {
      break;
    }
    step();
  }
  now_ = std::max(now_, limit);
  return now_;
}

}  // namespace hetflow::sim
