// Microbenchmark of the discrete-event simulator under the two event
// patterns that dominate the figure runs:
//  - BM_SimulatorReschedule/k: k jobs share one node. Each completion
//    starts a replacement job, then cancels and re-posts every other
//    job's completion at its new ETA — ClusterSim::Reschedule's pattern
//    at every load change.
//  - BM_SimulatorDaemonTicks/k: k self-rescheduling daemons with
//    staggered periods, the pattern of the load monitors and lease-mode
//    heartbeats.
// Each benchmark iteration fires one event, so the reported time is the
// wall time per executed event. `ns_per_event` repeats it as a counter,
// and `pending` is the simulator's NumPending() at the end (the heap
// size: it must stay at k, however many events were cancelled).
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <vector>

#include "bench/bench_main.h"
#include "common/rng.h"
#include "sim/simulator.h"

namespace biopera {
namespace {

/// One node with `k` equal-share jobs at reference speed 1.0 on one CPU,
/// kept full: a finished job is replaced at once.
class SharedNode {
 public:
  SharedNode(Simulator* sim, int k) : sim_(sim), rng_(38), jobs_(k) {
    for (Job& job : jobs_) job.remaining = NewWork();
    Reschedule();
  }

 private:
  struct Job {
    double remaining = 0;  // reference-CPU seconds
    EventId completion = kInvalidEventId;
  };

  double NewWork() { return rng_.Uniform(60, 3600); }

  void Complete(size_t index) {
    const double elapsed = (sim_->Now() - last_update_).ToSeconds();
    const double rate = 1.0 / static_cast<double>(jobs_.size());
    for (Job& job : jobs_) job.remaining -= elapsed * rate;
    last_update_ = sim_->Now();
    jobs_[index].completion = kInvalidEventId;
    jobs_[index].remaining = NewWork();
    Reschedule();
  }

  void Reschedule() {
    const double rate = 1.0 / static_cast<double>(jobs_.size());
    for (size_t i = 0; i < jobs_.size(); ++i) {
      Job& job = jobs_[i];
      if (job.completion != kInvalidEventId) sim_->Cancel(job.completion);
      const Duration eta =
          Duration::Seconds(job.remaining > 0 ? job.remaining / rate : 0);
      job.completion = sim_->Schedule(eta, [this, i] { Complete(i); });
    }
  }

  Simulator* sim_;
  Rng rng_;
  std::vector<Job> jobs_;
  TimePoint last_update_;
};

/// Fires one event per benchmark iteration and reports the counters.
void StepAndReport(benchmark::State& state, Simulator* sim) {
  const auto start = std::chrono::steady_clock::now();
  for (auto _ : state) {
    if (!sim->Step()) std::abort();
  }
  const double ns = std::chrono::duration<double, std::nano>(
                        std::chrono::steady_clock::now() - start)
                        .count();
  const uint64_t events = sim->NumExecuted();
  state.SetItemsProcessed(static_cast<int64_t>(events));
  state.counters["ns_per_event"] =
      events == 0 ? 0.0 : ns / static_cast<double>(events);
  state.counters["pending"] = static_cast<double>(sim->NumPending());
}

void BM_SimulatorReschedule(benchmark::State& state) {
  Simulator sim;
  SharedNode node(&sim, static_cast<int>(state.range(0)));
  StepAndReport(state, &sim);
}
BENCHMARK(BM_SimulatorReschedule)->Arg(16)->Arg(256);

/// `k` daemons with periods of 60..60+k-1 seconds, each re-arming itself
/// from its own callback.
class DaemonTicks {
 public:
  DaemonTicks(Simulator* sim, int k) : sim_(sim) {
    for (int i = 0; i < k; ++i) Arm(i);
  }

 private:
  void Arm(int i) {
    sim_->ScheduleDaemon(Duration::Seconds(60 + i), [this, i] { Arm(i); });
  }

  Simulator* sim_;
};

void BM_SimulatorDaemonTicks(benchmark::State& state) {
  Simulator sim;
  DaemonTicks ticks(&sim, static_cast<int>(state.range(0)));
  StepAndReport(state, &sim);
}
BENCHMARK(BM_SimulatorDaemonTicks)->Arg(64);

}  // namespace
}  // namespace biopera

int main(int argc, char** argv) {
  return biopera::bench::RunBenchmarkMain(argc, argv, "BENCH_sim.json");
}
