#ifndef BIOPERA_SIM_SIMULATOR_H_
#define BIOPERA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <limits>
#include <vector>

#include "common/time.h"

namespace biopera {

/// Identifies a scheduled event; valid ids are non-zero.
using EventId = uint64_t;
inline constexpr EventId kInvalidEventId = 0;

/// Deterministic discrete-event simulator.
///
/// The simulator is the spine of every experiment: the cluster model, the
/// failure injector, and the BioOpera engine all schedule callbacks on it
/// and observe its virtual clock. Events with equal timestamps fire in
/// scheduling order, which makes whole experiments bit-reproducible given
/// fixed RNG seeds.
///
/// Events come in two kinds: regular events keep Run() alive; *daemon*
/// events (periodic monitors, background load generators — anything that
/// reschedules itself forever) execute normally but do not prevent Run()
/// from returning once all regular work has drained.
///
/// Each pending event owns a slot of a slab (its callable, daemon flag and
/// heap position) and one key in an indexed binary heap ordered by (time,
/// scheduling order). Cancel removes the key at once, so the heap holds
/// exactly the pending events. An id names a slot and the slot's
/// generation, which moves on whenever the slot's event fires or is
/// cancelled: a stale id never matches the slot's next event.
class Simulator : public Clock {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  TimePoint Now() const override { return now_; }

  /// Schedules `fn` to run `delay` from now (negative delays are clamped to
  /// zero). Returns an id usable with Cancel().
  EventId Schedule(Duration delay, std::function<void()> fn);

  /// Schedules `fn` at absolute time `t` (clamped to Now()).
  EventId ScheduleAt(TimePoint t, std::function<void()> fn);

  /// Daemon variants: the event fires normally but does not keep Run()
  /// alive on its own.
  EventId ScheduleDaemon(Duration delay, std::function<void()> fn);

  /// Cancels a pending event in O(log n) and destroys its callable.
  /// Returns false if it already ran (or is running), was already
  /// cancelled, or never existed.
  bool Cancel(EventId id);

  /// Runs the next pending event, advancing the clock. Returns false when
  /// no events remain (daemon or not).
  bool Step();

  /// Runs until no *regular* events remain (pending daemons are left
  /// scheduled; they will fire if more regular work appears later).
  void Run();

  /// Runs all events with time <= t, then sets the clock to exactly t.
  void RunUntil(TimePoint t);

  /// Runs for `d` of virtual time from now.
  void RunFor(Duration d) { RunUntil(now_ + d); }

  /// Time of the earliest pending event (daemons included). Returns false
  /// when nothing is scheduled. The sharded service uses it to pick
  /// lockstep barrier targets.
  bool NextEventTime(TimePoint* t) const;

  /// Number of pending events, daemons included.
  size_t NumPending() const { return heap_.size(); }
  /// Pending regular (non-daemon) events.
  size_t NumPendingRegular() const { return regular_pending_; }

  /// Total events executed since construction.
  uint64_t NumExecuted() const { return executed_; }

 private:
  /// Heap key. `seq` is the scheduling order, so equal times fire in the
  /// order they were scheduled.
  struct Key {
    TimePoint time;
    uint64_t seq;
    uint32_t slot;
  };
  static constexpr uint32_t kNotQueued = std::numeric_limits<uint32_t>::max();
  struct Slot {
    std::function<void()> fn;
    uint32_t generation = 0;
    /// Index of the slot's key in heap_, kNotQueued while the slot is free.
    uint32_t heap_pos = kNotQueued;
    bool daemon = false;
  };

  static bool Before(const Key& a, const Key& b) {
    if (a.time != b.time) return a.time < b.time;
    return a.seq < b.seq;
  }

  EventId ScheduleInternal(TimePoint t, std::function<void()> fn,
                           bool daemon);
  /// Takes the key at heap position `pos` out of the heap, frees its slot
  /// and hands back the callable.
  std::function<void()> Remove(size_t pos);
  /// Fires the earliest pending event.
  void FireNext();
  void Place(size_t pos, const Key& key) {
    heap_[pos] = key;
    slots_[key.slot].heap_pos = static_cast<uint32_t>(pos);
  }
  void SiftUp(size_t pos);
  void SiftDown(size_t pos);

  TimePoint now_;
  uint64_t next_seq_ = 0;
  uint64_t executed_ = 0;
  size_t regular_pending_ = 0;
  std::vector<Key> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
};

}  // namespace biopera

#endif  // BIOPERA_SIM_SIMULATOR_H_
