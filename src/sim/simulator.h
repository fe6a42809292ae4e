#ifndef BIOPERA_SIM_SIMULATOR_H_
#define BIOPERA_SIM_SIMULATOR_H_

#include <cstdint>
#include <functional>
#include <queue>
#include <string>
#include <unordered_map>
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

  /// Cancels a pending event. Returns false if it already ran, was already
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
  /// when nothing is scheduled. Prunes cancelled entries off the heap
  /// head, so it is not const; it never executes or reorders anything.
  /// The sharded service uses it to pick lockstep barrier targets.
  bool NextEventTime(TimePoint* t);

  /// Number of pending (non-cancelled) events, daemons included.
  size_t NumPending() const { return live_.size(); }
  /// Pending regular (non-daemon) events.
  size_t NumPendingRegular() const { return regular_pending_; }

  /// Total events executed since construction.
  uint64_t NumExecuted() const { return executed_; }

 private:
  struct Entry {
    TimePoint time;
    EventId id;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.time != b.time) return a.time > b.time;
      return a.id > b.id;
    }
  };

  EventId ScheduleInternal(TimePoint t, std::function<void()> fn,
                           bool daemon);
  // Pops the next non-cancelled event, or returns false. `*daemon`
  // receives the event's daemon flag.
  bool PopNext(Entry* out, bool* daemon);

  TimePoint now_;
  EventId next_id_ = 1;
  uint64_t executed_ = 0;
  size_t regular_pending_ = 0;
  std::priority_queue<Entry, std::vector<Entry>, Later> queue_;
  /// Live (pending) events: id -> is_daemon.
  std::unordered_map<EventId, bool> live_;
};

}  // namespace biopera

#endif  // BIOPERA_SIM_SIMULATOR_H_
