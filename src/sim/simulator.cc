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
  EventId id = next_id_++;
  queue_.push(Entry{t, id, std::move(fn)});
  live_.emplace(id, daemon);
  if (!daemon) ++regular_pending_;
  return id;
}

bool Simulator::Cancel(EventId id) {
  // Only events that are still pending can be cancelled; erase from the
  // live map and let PopNext drop the stale heap entry lazily.
  auto it = live_.find(id);
  if (it == live_.end()) return false;
  if (!it->second) --regular_pending_;
  live_.erase(it);
  return true;
}

bool Simulator::NextEventTime(TimePoint* t) {
  while (!queue_.empty() && live_.find(queue_.top().id) == live_.end()) {
    queue_.pop();  // cancelled; drop the stale heap entry
  }
  if (queue_.empty()) return false;
  *t = queue_.top().time;
  return true;
}

bool Simulator::PopNext(Entry* out, bool* daemon) {
  while (!queue_.empty()) {
    Entry e = std::move(const_cast<Entry&>(queue_.top()));
    queue_.pop();
    auto it = live_.find(e.id);
    if (it == live_.end()) continue;  // cancelled
    *daemon = it->second;
    if (!it->second) --regular_pending_;
    live_.erase(it);
    *out = std::move(e);
    return true;
  }
  return false;
}

bool Simulator::Step() {
  Entry e;
  bool daemon = false;
  if (!PopNext(&e, &daemon)) return false;
  assert(e.time >= now_);
  now_ = e.time;
  ++executed_;
  e.fn();
  return true;
}

void Simulator::Run() {
  while (regular_pending_ > 0 && Step()) {
  }
}

void Simulator::RunUntil(TimePoint t) {
  while (true) {
    Entry e;
    bool daemon = false;
    if (!PopNext(&e, &daemon)) break;
    if (e.time > t) {
      // Fires after the horizon; re-insert (the id becomes live again).
      live_.emplace(e.id, daemon);
      if (!daemon) ++regular_pending_;
      queue_.push(std::move(e));
      break;
    }
    now_ = e.time;
    ++executed_;
    e.fn();
  }
  if (t > now_) now_ = t;
}

}  // namespace biopera
