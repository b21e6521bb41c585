#include "sim/event_queue.h"

#include <stdexcept>
#include <utility>

#include "core/check.h"
#include "obs/ledger.h"

namespace gametrace::sim {

std::uint32_t EventQueue::AcquireSlot() {
  if (!free_.empty()) {
    const std::uint32_t index = free_.back();
    free_.pop_back();
    GT_DCHECK_LT(index, slots_.size()) << "EventQueue free list holds an out-of-range slot";
    GT_DCHECK(!slots_[index].handler) << "EventQueue free list holds a live slot";
    return index;
  }
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void EventQueue::ReleaseSlot(std::uint32_t index) {
  GT_DCHECK_LT(index, slots_.size()) << "EventQueue::ReleaseSlot: out-of-range slot";
  Slot& slot = slots_[index];
  slot.handler = nullptr;
  slot.interval = 0.0;
  ++slot.gen;  // invalidates any heap entry or outstanding id for this arming
  free_.push_back(index);
}

std::uint64_t EventQueue::Arm(SimTime t, SimTime interval, Handler fn) {
  const std::uint32_t index = AcquireSlot();
  Slot& slot = slots_[index];
  slot.handler = std::move(fn);
  slot.interval = interval;
  heap_.push(Entry{t, next_seq_++, index, slot.gen});
  ++live_count_;
  if (live_count_ > high_water_) high_water_ = live_count_;
  return (std::uint64_t{index} << 32) | slot.gen;
}

std::uint64_t EventQueue::Schedule(SimTime t, Handler fn) {
  GT_CHECK(fn) << "EventQueue::Schedule: empty handler";
  return Arm(t, 0.0, std::move(fn));
}

std::uint64_t EventQueue::SchedulePeriodic(SimTime first, SimTime interval, Handler fn) {
  GT_CHECK(fn) << "EventQueue::SchedulePeriodic: empty handler";
  GT_CHECK(interval > 0.0) << "EventQueue::SchedulePeriodic: interval must be positive";
  return Arm(first, interval, std::move(fn));
}

bool EventQueue::Cancel(std::uint64_t id) {
  const auto index = static_cast<std::uint32_t>(id >> 32);
  const auto gen = static_cast<std::uint32_t>(id);
  if (index >= slots_.size()) return false;
  if (slots_[index].gen != gen) return false;  // already executed/cancelled/recycled
  ReleaseSlot(index);
  --live_count_;
  return true;
}

void EventQueue::SkipStale() const {
  while (!heap_.empty()) {
    const Entry& top = heap_.top();
    GT_DCHECK_LT(top.slot, slots_.size()) << "EventQueue heap entry points past the slot table";
    if (slots_[top.slot].gen == top.gen) break;
    heap_.pop();
  }
}

bool EventQueue::empty() const noexcept {
  SkipStale();
  return heap_.empty();
}

SimTime EventQueue::NextTime() const {
  SkipStale();
  GT_CHECK(!heap_.empty()) << "EventQueue::NextTime: empty queue";
  return heap_.top().time;
}

SimTime EventQueue::RunNext() {
  const obs::LayerScope scope(obs::Layer::kSimDispatch);
  SkipStale();
  GT_CHECK(!heap_.empty()) << "EventQueue::RunNext: empty queue";
  const Entry top = heap_.top();
  heap_.pop();
  Slot& slot = slots_[top.slot];
  GT_DCHECK(slot.handler) << "EventQueue::RunNext: live heap entry with an empty handler";
  if (slot.interval > 0.0) {
    const SimTime interval = slot.interval;
    // Run out of a local so a handler that schedules (growing slots_) or
    // cancels itself cannot invalidate the callable mid-invocation.
    Handler handler = std::move(slot.handler);
    handler(top.time);
    Slot& current = slots_[top.slot];  // re-fetch: slots_ may have grown
    if (current.gen == top.gen) {      // not cancelled during the firing
      current.handler = std::move(handler);
      heap_.push(Entry{top.time + interval, next_seq_++, top.slot, top.gen});
    }
  } else {
    Handler handler = std::move(slot.handler);
    ReleaseSlot(top.slot);
    --live_count_;
    handler(top.time);
  }
  return top.time;
}

EventQueue::PoppedEvent EventQueue::Pop() {
  SkipStale();
  GT_CHECK(!heap_.empty()) << "EventQueue::Pop: empty queue";
  const Entry top = heap_.top();
  Slot& slot = slots_[top.slot];
  GT_CHECK_LE(slot.interval, 0.0) << "EventQueue::Pop: periodic event; use RunNext()";
  GT_DCHECK(slot.handler) << "EventQueue::Pop: live heap entry with an empty handler";
  heap_.pop();
  PoppedEvent out{top.time, std::move(slot.handler)};
  ReleaseSlot(top.slot);
  --live_count_;
  return out;
}

}  // namespace gametrace::sim
