#include "sim/simulator.h"

#include <cassert>
#include <utility>

namespace biopera {

EventId Simulator::Schedule(Duration delay, std::function<void()> fn) {
  if (delay < Duration::Zero()) delay = Duration::Zero();
  return ScheduleInternal(now_ + delay, std::move(fn), /*daemon=*/false);
}

EventId Simulator::ScheduleAt(TimePoint t, std::function<void()> fn) {
  return ScheduleInternal(t, std::move(fn), /*daemon=*/false);
}

EventId Simulator::ScheduleDaemon(Duration delay, std::function<void()> fn) {
  if (delay < Duration::Zero()) delay = Duration::Zero();
  return ScheduleInternal(now_ + delay, std::move(fn), /*daemon=*/true);
}

EventId Simulator::ScheduleInternal(TimePoint t, std::function<void()> fn,
                                    bool daemon) {
  if (t < now_) t = now_;
  uint32_t index;
  if (free_slots_.empty()) {
    index = static_cast<uint32_t>(slots_.size());
    slots_.emplace_back();
  } else {
    index = free_slots_.back();
    free_slots_.pop_back();
  }
  Slot& slot = slots_[index];
  slot.fn = std::move(fn);
  slot.daemon = daemon;
  if (!daemon) ++regular_pending_;
  heap_.push_back(Key{t, next_seq_++, index});
  SiftUp(heap_.size() - 1);
  // The low half is slot + 1, so no valid id is kInvalidEventId.
  return (static_cast<EventId>(slot.generation) << 32) | (index + 1);
}

bool Simulator::Cancel(EventId id) {
  const uint64_t index = id & 0xffffffffu;
  if (index == 0 || index > slots_.size()) return false;
  const Slot& slot = slots_[index - 1];
  if (slot.generation != (id >> 32) || slot.heap_pos == kNotQueued) {
    return false;
  }
  Remove(slot.heap_pos);  // the callable dies here, not at a later pop
  return true;
}

std::function<void()> Simulator::Remove(size_t pos) {
  const uint32_t index = heap_[pos].slot;
  Slot& slot = slots_[index];
  std::function<void()> fn = std::move(slot.fn);
  slot.fn = nullptr;
  if (!slot.daemon) --regular_pending_;
  slot.heap_pos = kNotQueued;
  ++slot.generation;  // retires every id issued for this slot so far
  free_slots_.push_back(index);
  // Fill the hole with the last key, then restore the heap order around
  // it: it may belong above the hole (a cancel deep in the heap) or below.
  const Key last = heap_.back();
  heap_.pop_back();
  if (pos < heap_.size()) {
    Place(pos, last);
    if (pos > 0 && Before(last, heap_[(pos - 1) / 2])) {
      SiftUp(pos);
    } else {
      SiftDown(pos);
    }
  }
  return fn;
}

void Simulator::SiftUp(size_t pos) {
  const Key key = heap_[pos];
  while (pos > 0) {
    const size_t parent = (pos - 1) / 2;
    if (!Before(key, heap_[parent])) break;
    Place(pos, heap_[parent]);
    pos = parent;
  }
  Place(pos, key);
}

void Simulator::SiftDown(size_t pos) {
  const Key key = heap_[pos];
  const size_t n = heap_.size();
  while (true) {
    size_t child = 2 * pos + 1;
    if (child >= n) break;
    if (child + 1 < n && Before(heap_[child + 1], heap_[child])) ++child;
    if (!Before(heap_[child], key)) break;
    Place(pos, heap_[child]);
    pos = child;
  }
  Place(pos, key);
}

bool Simulator::NextEventTime(TimePoint* t) const {
  if (heap_.empty()) return false;
  *t = heap_.front().time;
  return true;
}

void Simulator::FireNext() {
  const TimePoint time = heap_.front().time;
  // The slot is freed before the callable runs, so the callable may
  // schedule into it and a Cancel of its own id returns false.
  std::function<void()> fn = Remove(0);
  assert(time >= now_);
  now_ = time;
  ++executed_;
  fn();
}

bool Simulator::Step() {
  if (heap_.empty()) return false;
  FireNext();
  return true;
}

void Simulator::Run() {
  while (regular_pending_ > 0 && Step()) {
  }
}

void Simulator::RunUntil(TimePoint t) {
  while (!heap_.empty() && heap_.front().time <= t) FireNext();
  if (t > now_) now_ = t;
}

}  // namespace biopera
