#ifndef BIOPERA_SERVICE_SHARD_H_
#define BIOPERA_SERVICE_SHARD_H_

#include <memory>
#include <string>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "core/console.h"
#include "core/engine.h"
#include "obs/barrier_profile.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "store/fs.h"
#include "store/record_store.h"

namespace biopera::service {

/// One engine shard: a complete single-engine world — simulator, cluster,
/// record store (in its own directory, so WAL, checkpoints and writer-
/// epoch fencing stay per-shard), observability sinks, optional fault
/// channel, engine and admin console. The sharded service partitions
/// process instances across these worlds and pumps them in lockstep
/// (docs/SHARDING.md); a shard shares nothing mutable with its siblings,
/// which is what makes concurrent pumping on real threads deterministic
/// per shard.
///
/// Like bench::BenchWorld this is a plumbing aggregate, not an
/// abstraction boundary: members are public and declared in destruction-
/// safe order (the engine dies before the store, channel and cluster it
/// references).
class EngineShard {
 public:
  struct Options {
    /// Template for the engine; `seed` is replaced by ShardSeed(seed,
    /// index) so every shard draws from its own deterministic stream,
    /// and `observability`/`channel` are replaced by the shard's own.
    core::EngineOptions engine;
    /// Give the shard a comms::FaultChannel so chaos runs can inject
    /// message faults and per-link partitions independently per shard.
    bool fault_channel = false;
    size_t span_capacity = 1 << 20;
  };

  /// Opens (or creates) the store in `dir` on `fs` (null: the real
  /// disk) and builds the world. The registry is shared across shards and
  /// must be fully populated before concurrent pumping starts (engines
  /// only read it).
  EngineShard(int index, std::string dir, core::ActivityRegistry* registry,
              const Options& options, Fs* fs = nullptr);
  ~EngineShard();
  EngineShard(const EngineShard&) = delete;
  EngineShard& operator=(const EngineShard&) = delete;

  /// True when the store opened and the engine was constructed.
  bool ok() const { return engine != nullptr; }

  /// Non-terminal instances hosted by this shard.
  size_t LiveInstances() const;

  int index = 0;
  std::string dir;
  Simulator sim;
  obs::Observability obs;
  /// Wall-clock self-time buckets (pump / kernel / store) the engine and
  /// store charge while this shard steps; the service drains them once per
  /// barrier for the barrier-stall profiler. Declared before `engine` so
  /// the engine (which holds a pointer) dies first.
  obs::WallProfile wall_profile;
  /// Streaming per-job virtual compute-time quantiles (P²), fed by the
  /// engine on every job completion. Deterministic for a deterministic run.
  obs::QuantileSensor job_cost_sensor;
  /// Per-shard control-plane fault injector (null unless requested).
  std::unique_ptr<comms::FaultChannel> channel;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  std::unique_ptr<core::Engine> engine;
  std::unique_ptr<core::AdminConsole> console;
};

}  // namespace biopera::service

#endif  // BIOPERA_SERVICE_SHARD_H_
