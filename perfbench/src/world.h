// A single-engine world for the benchmark's workloads, plus the helpers
// every single-engine workload shares: harvesting public counters into
// Layers, timing the end-of-run exports, and the run-level checks.
#ifndef PERFBENCH_WORLD_H_
#define PERFBENCH_WORLD_H_

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "src/bench.h"
#include "store/fs.h"
#include "store/record_store.h"
#include "workloads/allvsall.h"

namespace perfbench {

/// Simulator, cluster, store, registry, observability context and engine,
/// built in the same order as the repo's bench::BenchWorld so a workload
/// replaying a bench scenario reproduces its exports byte for byte. The
/// store lives in `dir` behind a FaultFs; in a traced run the probe's
/// ObservedFs sits under the FaultFs and its wall profile is attached to
/// the engine and the store.
struct World {
  /// Opens the store in `dir` (created if missing) on a simulator whose
  /// clock starts at `start`, then constructs the engine. The store open
  /// and engine construction times land in open_ms / construct_ms.
  World(const std::string& dir, const biopera::core::EngineOptions& options,
        Probe* probe, bool fault_channel = false,
        biopera::TimePoint start = biopera::TimePoint());
  ~World();
  World(const World&) = delete;
  World& operator=(const World&) = delete;

  bool ok() const { return engine != nullptr; }
  /// Engine::Startup, timed into startup_ms (and spanned as core).
  biopera::Status Startup();
  /// open + construct + startup: one server restart.
  double RestartMs() const { return open_ms + construct_ms + startup_ms; }

  Probe* probe;
  biopera::Simulator sim;
  std::string dir;
  biopera::obs::Observability obs;
  std::unique_ptr<biopera::comms::FaultChannel> channel;
  std::unique_ptr<ObservedFs> observed_fs;
  std::unique_ptr<biopera::FaultFs> fault_fs;
  std::unique_ptr<biopera::RecordStore> store;
  std::unique_ptr<biopera::cluster::ClusterSim> cluster;
  biopera::core::ActivityRegistry registry;
  std::unique_ptr<biopera::core::Engine> engine;
  double open_ms = 0;
  double construct_ms = 0;
  double startup_ms = 0;
};

/// Registers the all-vs-all activities bound to `context` in the world's
/// registry, wrapped when the world's probe records activity calls.
biopera::Status RegisterAllVsAll(
    World* world, std::shared_ptr<biopera::workloads::AllVsAllContext> context);
/// Registers the all_vs_all and align_partition templates (after Startup).
biopera::Status RegisterAllVsAllTemplates(World* world);

/// Adds the world's public counters (dispatch stats, store and engine
/// metrics, monitor and comms accounting) to `layers`.
void HarvestCounters(World& world, Layers* layers);
/// Adds the activity executions the world's instances completed (read
/// once per run: the count survives restarts).
void HarvestCompleted(World& world, Layers* layers);

/// Reads the real-mode kernel lineage params (sw_cells, sw_rescored) of
/// `instance` into `layers`.
void HarvestKernelLineage(World& world, const std::string& instance,
                          Layers* layers);

/// The end-of-run exports a user of the lab asks for (span JSONL, Chrome
/// trace, lineage JSONL, run report), timed and sized into `layers` and
/// spanned as obs. Returns spans + lineage, the byte-identity fixture.
std::string ExportRun(World& world, const std::string& instance,
                      Layers* layers);

/// Run-level invariants: the instance reached kDone, critical-path
/// attribution equals the makespan, and (when `exactly_once`) no task's
/// output was applied twice. Each violation is appended to `batch`'s
/// errors; returns false if any failed.
bool CheckRun(World& world, const std::string& instance, bool exactly_once,
              Batch* batch);

/// Σ SyntheticMatchCount over the instance's own TEU partition: the
/// ground-truth match total of a synthetic all-vs-all, computed by the
/// benchmark independently of the engine's merge.
biopera::Result<int64_t> SyntheticGroundTruth(
    const World& world, const std::string& instance,
    const biopera::workloads::AllVsAllContext& context);

/// A directory under the run's work dir, emptied first.
std::string FreshDir(const Options& options, const std::string& tag);
void RemoveDir(const std::string& dir);

}  // namespace perfbench

#endif  // PERFBENCH_WORLD_H_
