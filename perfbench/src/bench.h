// Shared types of the benchmark driver: run options, the tracing probe a
// traced run hands to a workload, per-layer accumulators, and what one
// batch of a workload reports back.
#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "obs/barrier_profile.h"
#include "src/tracer.h"

namespace perfbench {

/// The seed every pin in pins.cc was recorded with. Any other seed runs
/// with the invariant and ground-truth checks only.
inline constexpr uint64_t kPinnedSeed = 38;

struct Options {
  std::string workload;
  uint64_t seed = kPinnedSeed;
  double seconds = 10;
  bool trace = false;
  /// Store directories and trace exports live under this directory.
  std::string work_dir = ".bench_build/work";
  /// Where a traced run writes its spans (JSONL and Chrome trace).
  std::string trace_dir = ".bench_build/traces";
  /// Shrinks every workload to a few-second smoke size (self-tests).
  bool small = false;
  /// Shifts every pin by one so the pin checks must fail (proves the
  /// oracle is live).
  bool corrupt_pins = false;
};

/// Counters read from public getters and timings of the benchmark's own
/// calls, accumulated over a run's batches. Filled in traced and untraced
/// runs alike (they cost nothing); printed only by traced runs.
struct Layers {
  // sim
  uint64_t sim_events = 0;
  // core
  uint64_t dispatched = 0;
  uint64_t pump_runs = 0;
  uint64_t entries_scanned = 0;
  std::vector<double> startup_ms;
  uint64_t recovered_tasks = 0;
  // store
  uint64_t store_commits = 0;
  uint64_t store_checkpoints = 0;
  std::vector<double> open_ms;
  // darwin (lineage params of real-mode kernels)
  uint64_t sw_cells = 0;
  uint64_t sw_rescored = 0;
  uint64_t sw_pairs = 0;
  // exec
  uint64_t activities_completed = 0;
  uint64_t preexec_batches = 0;
  uint64_t preexec_activities = 0;
  uint64_t preexec_lookahead = 0;
  // service
  std::vector<double> submit_us;
  std::vector<double> barrier_ms;
  uint64_t service_barriers = 0;
  uint64_t service_overhead_ns = 0;
  uint64_t service_pump_ns = 0;
  uint64_t service_kernel_ns = 0;
  uint64_t service_store_ns = 0;
  uint64_t service_idle_ns = 0;
  uint64_t service_wait_ns = 0;
  std::vector<double> step_skew;
  uint64_t service_store_commits = 0;
  // obs
  uint64_t obs_spans = 0;
  uint64_t export_ns = 0;
  uint64_t export_bytes = 0;
  uint64_t trace_dropped = 0;
  // monitor
  uint64_t monitor_samples = 0;
  uint64_t monitor_reports = 0;
  // comms
  uint64_t comms_messages = 0;
  uint64_t comms_faults = 0;
  uint64_t comms_suspected = 0;
  uint64_t comms_condemned = 0;
  uint64_t comms_kill_retries = 0;
};

/// The tracing instruments of a traced run; every pointer is null in an
/// untraced run, which then runs the program exactly as a user would.
struct Probe {
  Tracer* tracer = nullptr;
  FsCounters* fs = nullptr;
  ActivityStats* activities = nullptr;
  biopera::obs::WallProfile* wall = nullptr;
};

/// What one batch of a workload did: set-up samples, the measured phase,
/// operation accounting and the restart samples behind recovery_ms_*.
struct Batch {
  std::vector<double> setup_s;
  double phase_s = 0;
  uint64_t tasks_done = 0;
  /// Operations: submitted process instances, plus each restart.
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> restart_ms;
  /// The program's own exports per operation (spans and lineage), kept
  /// only when the caller asks for them (observe-never-steer self-test).
  std::vector<std::string> exports;

  void Fail(std::string what) {
    ++failed;
    errors.push_back(std::move(what));
  }
};

/// Every workload implements one batch: set up, run the measured phase,
/// check, measure restarts, tear down.
struct BatchRequest {
  const Options* options = nullptr;
  Probe* probe = nullptr;
  Layers* layers = nullptr;
  /// Keep the program's exports in Batch::exports.
  bool keep_exports = false;
  /// Position of the batch in its run. Batch 0 generates its inputs from
  /// the run's seed itself, batch b > 0 from SubSeed(seed, b), so a run
  /// averages over several inputs and pins apply to batch 0 only.
  int index = 0;

  uint64_t seed() const;
  /// The pins apply: batch 0 of a full-size run at kPinnedSeed.
  bool pinned() const;
};

/// The input seed of batch `index` of a run seeded with `seed`.
uint64_t SubSeed(uint64_t seed, int index);

Batch RunLifecycleBatch(const BatchRequest& request);
Batch RunFleetBatch(const BatchRequest& request);
Batch RunAlignBatch(const BatchRequest& request);
Batch RunRecoveryBatch(const BatchRequest& request);

/// Set-up alone (then tear-down), for extra setup_s samples; returns the
/// set-up seconds.
double LifecycleSetupOnly(const Options& options);
double FleetSetupOnly(const Options& options);
double AlignSetupOnly(const Options& options);
double RecoverySetupOnly(const Options& options);

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string>& WorkloadNames();
bool IsWorkload(const std::string& name);
/// Dispatch on request.options->workload (which must be a workload name).
Batch RunBatch(const BatchRequest& request);
double SetupOnly(const Options& options);

/// Runs a whole benchmark invocation: batches until `seconds` of measured
/// phase, the end-to-end metrics (untraced) or the per-layer metrics
/// (traced), the checks, and the final JSON line. Returns the exit code.
int RunDriver(const Options& options);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
