// Unit tests for the discrete-event simulator kernel, and a model test
// that runs seeded random schedules, cancels and runs against a reference
// that fires in (time, scheduling order) by linear search.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "sim/simulator.h"

namespace biopera {
namespace {

TEST(SimulatorTest, StartsAtTimeZero) {
  Simulator sim;
  EXPECT_EQ(sim.Now(), TimePoint::Zero());
  EXPECT_EQ(sim.NumPending(), 0u);
}

TEST(SimulatorTest, EventsFireInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.Schedule(Duration::Seconds(30), [&] { order.push_back(3); });
  sim.Schedule(Duration::Seconds(10), [&] { order.push_back(1); });
  sim.Schedule(Duration::Seconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now().SinceEpoch().ToSeconds(), 30);
  EXPECT_EQ(sim.NumExecuted(), 3u);
}

TEST(SimulatorTest, TiesBreakInSchedulingOrder) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    sim.Schedule(Duration::Seconds(1), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(SimulatorTest, ClockAdvancesToEventTime) {
  Simulator sim;
  double seen = -1;
  sim.Schedule(Duration::Minutes(5),
               [&] { seen = sim.Now().SinceEpoch().ToMinutes(); });
  sim.Run();
  EXPECT_DOUBLE_EQ(seen, 5);
}

TEST(SimulatorTest, EventsScheduledDuringEventsRun) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Seconds(1), [&] {
    sim.Schedule(Duration::Seconds(1), [&] { ++fired; });
  });
  sim.Run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now().SinceEpoch().ToSeconds(), 2);
}

TEST(SimulatorTest, NegativeDelayClampsToNow) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Duration::Seconds(10), [&] {
    sim.Schedule(Duration::Seconds(-5), [&] {
      fired = true;
      EXPECT_EQ(sim.Now().SinceEpoch().ToSeconds(), 10);
    });
  });
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelPreventsExecution) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.Schedule(Duration::Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  EXPECT_FALSE(sim.Cancel(id));  // double cancel
  sim.Run();
  EXPECT_FALSE(fired);
  EXPECT_EQ(sim.NumExecuted(), 0u);
}

TEST(SimulatorTest, CancelAfterExecutionReturnsFalse) {
  Simulator sim;
  EventId id = sim.Schedule(Duration::Seconds(1), [] {});
  sim.Run();
  EXPECT_FALSE(sim.Cancel(id));
}

TEST(SimulatorTest, CancelInvalidIdReturnsFalse) {
  Simulator sim;
  EXPECT_FALSE(sim.Cancel(kInvalidEventId));
  EXPECT_FALSE(sim.Cancel(9999));
}

TEST(SimulatorTest, RunUntilStopsAtHorizon) {
  Simulator sim;
  int fired = 0;
  sim.Schedule(Duration::Seconds(5), [&] { ++fired; });
  sim.Schedule(Duration::Seconds(15), [&] { ++fired; });
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.Now().SinceEpoch().ToSeconds(), 10);
  // The later event is still pending and fires on the next Run.
  EXPECT_EQ(sim.NumPending(), 1u);
  sim.Run();
  EXPECT_EQ(fired, 2);
}

TEST(SimulatorTest, RunUntilAdvancesClockEvenWithoutEvents) {
  Simulator sim;
  sim.RunFor(Duration::Hours(3));
  EXPECT_EQ(sim.Now().SinceEpoch().ToHours(), 3);
}

TEST(SimulatorTest, EventAtExactHorizonRuns) {
  Simulator sim;
  bool fired = false;
  sim.Schedule(Duration::Seconds(10), [&] { fired = true; });
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(10));
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, DaemonEventsDoNotKeepRunAlive) {
  Simulator sim;
  int daemon_fires = 0;
  // A self-rescheduling daemon (like a load monitor).
  std::function<void()> tick = [&] {
    ++daemon_fires;
    sim.ScheduleDaemon(Duration::Seconds(10), tick);
  };
  sim.ScheduleDaemon(Duration::Seconds(10), tick);
  sim.Schedule(Duration::Seconds(35), [] {});
  sim.Run();  // must terminate despite the perpetual daemon
  EXPECT_EQ(sim.Now().SinceEpoch().ToSeconds(), 35);
  EXPECT_EQ(daemon_fires, 3);  // daemons at 10, 20, 30 ran before 35
  EXPECT_GE(sim.NumPending(), 1u);  // the next daemon tick remains queued
}

TEST(SimulatorTest, DaemonsExecuteWhileRegularWorkRemains) {
  Simulator sim;
  std::vector<std::string> order;
  sim.ScheduleDaemon(Duration::Seconds(1),
                     [&] { order.push_back("daemon"); });
  sim.Schedule(Duration::Seconds(2), [&] { order.push_back("regular"); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<std::string>{"daemon", "regular"}));
}

TEST(SimulatorTest, RunUntilPreservesDaemonFlagAcrossHorizon) {
  Simulator sim;
  int fires = 0;
  sim.ScheduleDaemon(Duration::Seconds(100), [&] { ++fires; });
  // The daemon lies beyond this horizon, so RunUntil stops before it and
  // leaves it queued as it was.
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(50));
  EXPECT_EQ(sim.NumPendingRegular(), 0u);
  // Run() must still terminate immediately (the event kept daemon status).
  sim.Run();
  EXPECT_EQ(fires, 0);
  // But RunUntil past its time executes it.
  sim.RunUntil(TimePoint::Zero() + Duration::Seconds(150));
  EXPECT_EQ(fires, 1);
}

TEST(SimulatorTest, CancelDaemonEvent) {
  Simulator sim;
  bool fired = false;
  EventId id = sim.ScheduleDaemon(Duration::Seconds(1), [&] { fired = true; });
  EXPECT_TRUE(sim.Cancel(id));
  sim.RunFor(Duration::Seconds(5));
  EXPECT_FALSE(fired);
}

TEST(SimulatorTest, StepReturnsFalseWhenEmpty) {
  Simulator sim;
  EXPECT_FALSE(sim.Step());
  sim.Schedule(Duration::Zero(), [] {});
  EXPECT_TRUE(sim.Step());
  EXPECT_FALSE(sim.Step());
}

TEST(SimulatorTest, ManyEventsStressOrdering) {
  Simulator sim;
  TimePoint last = TimePoint::Zero();
  bool monotone = true;
  for (int i = 0; i < 2000; ++i) {
    // Pseudo-random but deterministic delays.
    int64_t delay_us = (i * 7919) % 100000;
    sim.Schedule(Duration::Micros(delay_us), [&, delay_us] {
      if (sim.Now() < last) monotone = false;
      last = sim.Now();
    });
  }
  sim.Run();
  EXPECT_TRUE(monotone);
  EXPECT_EQ(sim.NumExecuted(), 2000u);
}

TEST(SimulatorTest, StaleIdDoesNotCancelTheSlotsNextEvent) {
  Simulator sim;
  EventId first = sim.Schedule(Duration::Seconds(1), [] {});
  sim.Run();
  bool fired = false;
  EventId second = sim.Schedule(Duration::Seconds(1), [&] { fired = true; });
  // The second event reuses the first one's slot under a new generation.
  EXPECT_EQ(first & 0xffffffffu, second & 0xffffffffu);
  EXPECT_NE(first, second);
  EXPECT_FALSE(sim.Cancel(first));
  EXPECT_EQ(sim.NumPending(), 1u);
  sim.Run();
  EXPECT_TRUE(fired);
}

TEST(SimulatorTest, CancelOfTheRunningEventReturnsFalse) {
  Simulator sim;
  EventId self = kInvalidEventId;
  bool cancelled = true;
  bool child_fired = false;
  self = sim.Schedule(Duration::Seconds(1), [&] {
    cancelled = sim.Cancel(self);
    // A child scheduled from the callback may take the running event's
    // slot; the running event's id still must not reach it.
    sim.Schedule(Duration::Seconds(1), [&] { child_fired = true; });
    EXPECT_FALSE(sim.Cancel(self));
  });
  sim.Run();
  EXPECT_FALSE(cancelled);
  EXPECT_TRUE(child_fired);
}

TEST(SimulatorTest, CancelRemovesTheEventAtOnce) {
  Simulator sim;
  std::vector<EventId> ids;
  for (int i = 0; i < 100; ++i) {
    ids.push_back(sim.Schedule(Duration::Seconds(100 - i), [] {}));
  }
  for (int i = 0; i < 100; i += 2) EXPECT_TRUE(sim.Cancel(ids[i]));
  EXPECT_EQ(sim.NumPending(), 50u);
  EXPECT_EQ(sim.NumPendingRegular(), 50u);
  TimePoint next;
  ASSERT_TRUE(sim.NextEventTime(&next));
  EXPECT_EQ(next.SinceEpoch().ToSeconds(), 1);  // ids[99], never cancelled
  sim.Run();
  EXPECT_EQ(sim.NumExecuted(), 50u);
}

// --- Model test ------------------------------------------------------------

/// Reference event loop: pending events in a vector, the next one found by
/// a linear search for the least (time, scheduling order). Ids are never
/// reused.
class ReferenceSim {
 public:
  TimePoint Now() const { return now_; }
  EventId Schedule(Duration delay, std::function<void()> fn) {
    return Add(now_ + std::max(delay, Duration::Zero()), std::move(fn),
               false);
  }
  EventId ScheduleAt(TimePoint t, std::function<void()> fn) {
    return Add(t, std::move(fn), false);
  }
  EventId ScheduleDaemon(Duration delay, std::function<void()> fn) {
    return Add(now_ + std::max(delay, Duration::Zero()), std::move(fn),
               true);
  }
  bool Cancel(EventId id) {
    auto it = std::find_if(pending_.begin(), pending_.end(),
                           [&](const Event& e) { return e.id == id; });
    if (it == pending_.end()) return false;
    pending_.erase(it);
    return true;
  }
  bool Step() {
    if (pending_.empty()) return false;
    Fire();
    return true;
  }
  void Run() {
    while (NumPendingRegular() > 0 && Step()) {
    }
  }
  void RunUntil(TimePoint t) {
    while (!pending_.empty() && Earliest()->time <= t) Fire();
    if (t > now_) now_ = t;
  }
  size_t NumPending() const { return pending_.size(); }
  size_t NumPendingRegular() const {
    return static_cast<size_t>(
        std::count_if(pending_.begin(), pending_.end(),
                      [](const Event& e) { return !e.daemon; }));
  }

 private:
  struct Event {
    TimePoint time;
    EventId id;  // also the scheduling order
    bool daemon;
    std::function<void()> fn;
  };
  EventId Add(TimePoint t, std::function<void()> fn, bool daemon) {
    pending_.push_back(Event{std::max(t, now_), next_id_, daemon,
                             std::move(fn)});
    return next_id_++;
  }
  std::vector<Event>::iterator Earliest() {
    return std::min_element(pending_.begin(), pending_.end(),
                            [](const Event& a, const Event& b) {
                              if (a.time != b.time) return a.time < b.time;
                              return a.id < b.id;
                            });
  }
  void Fire() {
    auto it = Earliest();
    Event e = std::move(*it);
    pending_.erase(it);
    now_ = e.time;
    e.fn();
  }

  TimePoint now_;
  EventId next_id_ = 1;
  std::vector<Event> pending_;
};

/// Drives one event loop through a random program and logs everything
/// observable: each firing with its time, each Cancel's result, and the
/// pending counts after every call. Events are named by tags in
/// scheduling order, so the two loops' logs compare although their ids
/// differ. What a callback does is a function of (seed, tag) alone.
template <typename Sim>
class Harness {
 public:
  explicit Harness(uint64_t seed) : seed_(seed) {}

  enum class Kind { kRegular, kAt, kDaemon };
  void Add(Kind kind, int64_t seconds) {
    const size_t tag = ids_.size();
    ids_.push_back(kInvalidEventId);
    auto fn = [this, tag] { Fire(tag); };
    switch (kind) {
      case Kind::kRegular:
        ids_[tag] = sim_.Schedule(Duration::Seconds(seconds), fn);
        break;
      case Kind::kAt:
        ids_[tag] = sim_.ScheduleAt(
            sim_.Now() + Duration::Seconds(seconds), fn);
        break;
      case Kind::kDaemon:
        ids_[tag] = sim_.ScheduleDaemon(Duration::Seconds(seconds), fn);
        break;
    }
    LogCounts("add");
  }
  /// Cancels the event scheduled `tag`-th (pending, fired, cancelled or,
  /// with the real loop's slot reuse, since superseded in its slot).
  void CancelTag(size_t tag) {
    log_.push_back(StrFormat("cancel %zu -> %d", tag,
                             sim_.Cancel(ids_[tag]) ? 1 : 0));
    LogCounts("cancel");
  }
  void CancelInvalid() {
    log_.push_back(StrFormat("cancel invalid -> %d",
                             sim_.Cancel(kInvalidEventId) ? 1 : 0));
  }
  void Step() {
    log_.push_back(StrFormat("step -> %d", sim_.Step() ? 1 : 0));
    LogCounts("step");
  }
  void RunUntil(int64_t seconds) {
    sim_.RunUntil(sim_.Now() + Duration::Seconds(seconds));
    LogCounts("run_until");
  }
  void Run() {
    sim_.Run();
    LogCounts("run");
  }

  size_t num_tags() const { return ids_.size(); }
  /// Tag of the last event fired, SIZE_MAX before the first.
  size_t last_fired() const { return last_fired_; }
  const std::vector<std::string>& log() const { return log_; }

 private:
  void Fire(size_t tag) {
    last_fired_ = tag;
    log_.push_back(StrFormat(
        "fire %zu @%lld", tag,
        static_cast<long long>(sim_.Now().SinceEpoch().micros())));
    LogCounts("in");
    Rng rng(seed_ * 0x9e3779b97f4a7c15ULL + tag);
    switch (rng.NextUint64(10)) {
      case 0:  // its own id: it is running, not pending
        CancelTag(tag);
        break;
      case 1:
        Add(Kind::kRegular, rng.UniformInt(0, 4));
        break;
      case 2:
        Add(Kind::kDaemon, rng.UniformInt(0, 4));
        break;
      case 3:
        CancelTag(rng.NextUint64(ids_.size()));
        break;
      case 4:  // a child that takes this event's freed slot, then a
               // cancel through this event's (stale) id
        Add(Kind::kRegular, rng.UniformInt(0, 4));
        CancelTag(tag);
        break;
      default:
        break;
    }
  }
  void LogCounts(const char* what) {
    log_.push_back(StrFormat("%s: pending %zu regular %zu now %lld", what,
                             sim_.NumPending(), sim_.NumPendingRegular(),
                             static_cast<long long>(
                                 sim_.Now().SinceEpoch().micros())));
  }

  const uint64_t seed_;
  Sim sim_;
  std::vector<EventId> ids_;
  size_t last_fired_ = SIZE_MAX;
  std::vector<std::string> log_;
};

TEST(SimulatorModelTest, RandomProgramsMatchTheReference) {
  for (uint64_t seed = 1; seed <= 60; ++seed) {
    Harness<Simulator> real(seed);
    Harness<ReferenceSim> model(seed);
    Rng rng(seed);
    size_t compared = 0;
    for (int op = 0; op < 300; ++op) {
      const uint64_t choice = rng.NextUint64(20);
      const int64_t seconds = rng.UniformInt(-3, 12);
      const size_t tags = real.num_tags();
      if (choice < 6) {
        real.Add(Harness<Simulator>::Kind::kRegular, seconds);
        model.Add(Harness<ReferenceSim>::Kind::kRegular, seconds);
      } else if (choice < 8) {
        real.Add(Harness<Simulator>::Kind::kAt, seconds);
        model.Add(Harness<ReferenceSim>::Kind::kAt, seconds);
      } else if (choice < 10) {
        real.Add(Harness<Simulator>::Kind::kDaemon, seconds);
        model.Add(Harness<ReferenceSim>::Kind::kDaemon, seconds);
      } else if (choice < 12 && tags > 0) {
        const size_t tag = rng.NextUint64(tags);
        real.CancelTag(tag);
        model.CancelTag(tag);
      } else if (choice < 13 && real.last_fired() < tags) {
        // The last fired event's slot is the likeliest to be reused.
        const size_t tag = real.last_fired();
        real.CancelTag(tag);
        model.CancelTag(tag);
      } else if (choice < 14) {
        real.CancelInvalid();
        model.CancelInvalid();
      } else if (choice < 17) {
        real.Step();
        model.Step();
      } else if (choice < 19) {
        real.RunUntil(std::max<int64_t>(seconds, 0));
        model.RunUntil(std::max<int64_t>(seconds, 0));
      } else {
        real.Run();
        model.Run();
      }
      ASSERT_EQ(real.log().size(), model.log().size())
          << "seed " << seed << " op " << op;
      for (; compared < real.log().size(); ++compared) {
        ASSERT_EQ(real.log()[compared], model.log()[compared])
            << "seed " << seed << " op " << op << " line " << compared;
      }
    }
  }
}

}  // namespace
}  // namespace biopera
