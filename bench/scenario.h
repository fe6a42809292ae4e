#ifndef BIOPERA_BENCH_SCENARIO_H_
#define BIOPERA_BENCH_SCENARIO_H_

#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/stats.h"
#include "core/engine.h"
#include "obs/critical_path.h"

namespace biopera::bench {

/// Control-plane accounting for a partition-storm run: what the lossy
/// channel injected and how the lease detector / exactly-once protocol
/// absorbed it. All zero (enabled=false) in the default fault-free mode.
struct CommsStats {
  bool enabled = false;
  uint64_t faults_injected = 0;   // drops/dups/delays/reorders armed+hit
  double nodes_suspected = 0;     // lease misses crossed the threshold
  double nodes_condemned = 0;     // grace expired; jobs rescheduled
  double nodes_reconciled = 0;    // suspected/condemned node rejoined
  double reports_fenced = 0;      // stale-epoch reports rejected
  double reports_duplicate = 0;   // redelivered reports deduplicated
  double kill_retries = 0;        // kill commands retried with backoff
  double kills_abandoned = 0;     // kill retries exhausted (node condemned)
};

/// Outcome of one full all-vs-all lifecycle run (used by the Table 1,
/// Figure 5 and Figure 6 benches).
struct ScenarioResult {
  core::InstanceSummary summary;
  /// CPUs available / effectively computing over time (x in days).
  StepSeries availability;
  StepSeries utilization;
  std::vector<cluster::TraceEvent> events;
  int max_cpus = 0;
  double wall_days = 0;
  bool completed = false;
  /// Adaptive-monitoring overhead during the run (samples vs reports).
  uint64_t monitor_samples = 0;
  uint64_t monitor_reports = 0;
  /// Manual operator interventions performed by the scenario script
  /// (suspend/resume/restart), mirroring §5.4's accounting of how much
  /// human attention the run needed.
  int manual_interventions = 0;
  /// End-of-run metrics-registry snapshot (text form).
  std::string metrics_text;
  /// The all-nodes timeline CSV (the job spans as per-node intervals).
  /// Byte-deterministic for a given seed, so it doubles as the A/B
  /// fixture proving scheduling order survives dispatcher refactors.
  std::string timeline_csv;
  /// Span exports (same determinism guarantee): the raw span log, the
  /// Chrome-trace JSON (load in chrome://tracing or Perfetto), and the
  /// console-style run report with the critical-path breakdown.
  std::string spans_jsonl;
  std::string chrome_json;
  std::string report_text;
  /// Provenance export (JSONL header + one line per attempt): which
  /// inputs produced which match sets, through which attempts/retries.
  /// Byte-deterministic for a given seed; pairs with spans_jsonl as the
  /// input to run differencing (obs::ParseRunExports + obs::DiffRuns).
  std::string lineage_jsonl;
  /// Critical-path analysis of the scenario's instance: where the
  /// makespan went (compute / queue / recovery / migration / store_stall).
  obs::CriticalPathReport critical_path;
  /// Lossy-control-plane accounting (--partition-storm runs only).
  CommsStats comms;
};

/// First run (§5.4): the full synthetic-SP38 all-vs-all on the *shared*
/// linneus + ik-sun clusters, BioOpera jobs at lowest priority, with the
/// ten numbered disturbance events of Figure 5 scripted onto the timeline.
/// `cluster_outage_shift` moves event 3 (the whole-cluster hardware
/// failure at day 10) — the run-differencing checks use it to produce an
/// outage-schedule-perturbed run that is otherwise identical.
///
/// With `partition_storm` the engine additionally runs in lease mode over
/// a FaultChannel while a seeded adversary drops/duplicates/delays/
/// reorders control-plane messages and cuts random asymmetric per-link
/// partitions and link flaps for the whole run; the run must still
/// converge via the exactly-once protocol, and `result.comms` reports the
/// detector/protocol accounting.
ScenarioResult RunSharedClusterScenario(
    uint64_t seed, Duration cluster_outage_shift = Duration::Zero(),
    bool partition_storm = false);

/// Second run (§5.5): same computation on the dedicated ik-linux cluster;
/// two planned network outages and the mid-run CPU doubling of Figure 6.
/// `partition_storm` behaves as for RunSharedClusterScenario.
ScenarioResult RunNonSharedClusterScenario(uint64_t seed,
                                           bool partition_storm = false);

/// Renders a Figure 5/6-style lifecycle report (ASCII area chart plus the
/// event legend).
std::string RenderLifecycle(const ScenarioResult& result, int height);

/// Renders the partition-storm accounting block ("" when the run was not
/// a storm run).
std::string RenderCommsStats(const ScenarioResult& result);

/// Writes the storm accounting as a BENCH json file (one row named
/// "partition_storm" under `bench_name`); returns false on I/O error or
/// when the run was not a storm run.
bool WriteCommsJson(const ScenarioResult& result,
                    const std::string& bench_name, const std::string& path);

}  // namespace biopera::bench

#endif  // BIOPERA_BENCH_SCENARIO_H_
