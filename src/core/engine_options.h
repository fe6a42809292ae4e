#ifndef BIOPERA_CORE_ENGINE_OPTIONS_H_
#define BIOPERA_CORE_ENGINE_OPTIONS_H_

#include <cstdint>
#include <string>

#include "common/time.h"

namespace biopera::comms { class Channel; }
namespace biopera::exec { class ThreadPool; }
namespace biopera::obs {
struct Observability;
class WallProfile;
struct QuantileSensor;
}  // namespace biopera::obs

namespace biopera::core {

/// Engine configuration.
struct EngineOptions {
  /// Scheduling policy name (see sched::MakePolicy).
  std::string policy = "least_loaded";
  /// Enable the §5.4 kill-and-restart load-balancing strategy: jobs whose
  /// node became saturated by external users are aborted and re-queued.
  bool migration_enabled = false;
  /// How often to re-try dispatching when no placement was possible.
  Duration dispatch_retry = Duration::Minutes(5);
  /// Checkpoint the store after this many commits (snapshot + WAL trim).
  /// Enforced by the store itself (RecordStore::CheckpointPolicy), so
  /// non-engine commits cannot skew the cadence. 0 disables.
  uint64_t checkpoint_every_commits = 2000;
  /// Additionally checkpoint once the live WAL exceeds this many bytes.
  /// 0 disables the size trigger.
  uint64_t checkpoint_wal_bytes = 4ull << 20;
  /// Use per-node adaptive monitors to maintain the awareness model. When
  /// false, raw PEC load pushes are consumed directly (no sampling error,
  /// but full network overhead; used by the monitoring ablation).
  bool adaptive_monitoring = true;
  /// Automatic lost-report detection: a job whose completion has not been
  /// reported after `job_timeout_factor` x its estimated cost (plus
  /// `job_timeout_slack`) is declared lost, killed, and re-scheduled —
  /// the paper's event 10 ("TEUs failed to report") without the manual
  /// restart. 0 disables the watchdog.
  double job_timeout_factor = 0;
  Duration job_timeout_slack = Duration::Hours(1);
  /// Control-plane channel between the engine and the PECs. When null the
  /// engine uses the cluster's channel (ClusterSim::channel(): by default
  /// the cluster's own plain comms::Channel, lossless and synchronous), so
  /// link state set on the cluster outlives any one engine. Pass a
  /// comms::FaultChannel to subject every launch/kill command and every
  /// completion/heartbeat report to drops, delays, duplicates, reorders
  /// and asymmetric partitions (see docs/COMMS.md). Must outlive the
  /// engine.
  comms::Channel* channel = nullptr;
  /// Lease-based failure detection. When non-zero, PECs heartbeat at this
  /// interval, which also silences the cluster's direct crash/repair
  /// notifications (ClusterSim::EnableHeartbeats), and the engine runs the
  /// suspected/condemned state machine of docs/COMMS.md: a node missing
  /// `lease_misses_to_suspect` consecutive heartbeats is *suspected*
  /// (scheduler stops placing on it; a probe is sent); if silence persists
  /// for `lease_condemn_grace` more it is *condemned* and its jobs are
  /// re-queued. A heartbeat at any point reconciles the node without
  /// losing running jobs. Zero keeps the legacy instant-notification mode.
  Duration heartbeat_interval = Duration::Zero();
  int lease_misses_to_suspect = 3;
  Duration lease_condemn_grace = Duration::Minutes(2);
  /// Deterministic seed for engine-internal randomness (random policy).
  uint64_t seed = 1;
  /// Optional observability context. When set, the engine emits spans
  /// and metrics for its hot paths (dispatch, completion, failure,
  /// watchdog, migration, recovery) and propagates the context to the
  /// cluster, the record store, and the per-node adaptive monitors, so one
  /// field instruments the whole stack. Without one the engine keeps its
  /// metrics in a registry of its own (GetDispatchStats reads them). Must
  /// outlive the engine.
  obs::Observability* observability = nullptr;
  /// Optional real-thread executor. When set, each dispatch pump first
  /// runs the activity kernels of all ready entries concurrently on this
  /// pool and joins, then the scan consumes the results in its usual
  /// deterministic order, so virtual time, spans and lineage stay
  /// byte-identical (see docs/KERNELS.md). The wall-clock gain is bounded
  /// by how many activities are ready at once, not by the core count:
  /// perfbench `align` reads `exec.parallelism` 2.0 on its 2-worker pool,
  /// because only the 16-way fixed-PAM fan-out is ready together. Activity
  /// implementations must be pure functions of their input (already
  /// required for crash re-execution). Must outlive the engine.
  exec::ThreadPool* executor = nullptr;
  /// Optional wall-clock self-time profile (obs::WallProfile): the engine
  /// scopes its dispatch pumps as `pump` and its kernel executions
  /// (inline and thread-pool batches) as `kernel`; the store adds `store`
  /// via RecordStore::SetWallProfile. Feeds only the sharded service's
  /// barrier-stall profiler — never virtual time. Null-check-only when
  /// unset. Must outlive the engine.
  obs::WallProfile* wall_profile = nullptr;
  /// Optional streaming sensor fed every completed job's virtual compute
  /// cost in seconds (obs::QuantileSensor) — the per-job half of the
  /// sharded service's straggler sensors. Null-check-only when unset.
  /// Must outlive the engine.
  obs::QuantileSensor* job_cost_sensor = nullptr;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_ENGINE_OPTIONS_H_
