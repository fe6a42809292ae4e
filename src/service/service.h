#ifndef BIOPERA_SERVICE_SERVICE_H_
#define BIOPERA_SERVICE_SERVICE_H_

#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "core/engine.h"
#include "obs/barrier_profile.h"
#include "obs/fleet.h"
#include "obs/quantile.h"
#include "ocr/model.h"
#include "service/router.h"
#include "service/shard.h"
#include "service/slo.h"

namespace biopera::exec {
class ThreadPool;
}

namespace biopera::service {

/// Configuration of the sharded multi-engine service (docs/SHARDING.md).
struct ServiceOptions {
  /// Engine shards that receive *new* placements. A reopen additionally
  /// hosts every pre-existing shard directory beyond this count (so a
  /// shrink drains old shards instead of orphaning their instances).
  int shards = 1;
  /// Service-wide seed; shard i's engine runs on ShardSeed(seed, i).
  uint64_t seed = 1;
  /// Lockstep barrier quantum: every barrier advances all shards to
  /// (earliest pending event across shards with regular work) + quantum.
  /// Larger quanta amortize barrier overhead; any value yields the same
  /// per-shard execution (shards share no state between barriers).
  Duration barrier_quantum = Duration::Minutes(1);
  /// Admission control, all "0 = unlimited": global live-instance cap,
  /// per-tenant live cap, and the bounded backlog that absorbs
  /// over-quota submissions until capacity frees (beyond it, submissions
  /// are rejected with Unavailable).
  size_t max_live_instances = 0;
  size_t max_live_per_tenant = 0;
  size_t max_backlog = 0;
  /// Pumps shard barriers concurrently (one RunUntil task per shard).
  /// Because the pool is consumed here, hosted engines must not also use
  /// it as their executor: Startup() nulls shard.engine.executor when it
  /// equals this pool. Must outlive the service.
  exec::ThreadPool* pool = nullptr;
  /// Per-shard world options (engine template, fault channel, sink
  /// capacities). shard.engine.seed is the template seed replaced per
  /// shard; see EngineShard::Options.
  EngineShard::Options shard;
  /// Builds shard `index`'s cluster (required: a shard without nodes can
  /// dispatch nothing). Must be deterministic per index.
  std::function<void(int index, cluster::ClusterSim*)> configure_cluster;
  /// Fleet observability span-sink capacity (the front door's own sink;
  /// per-shard sinks are sized via `shard`).
  size_t fleet_span_capacity = 1 << 20;
  /// Declarative health rules evaluated against the fleet SLO sensors at
  /// every barrier; empty installs DefaultSloRules().
  std::vector<SloRule> slo_rules;
  /// Per-barrier stall records kept for the Chrome export (totals and
  /// histograms accumulate beyond it).
  size_t barrier_profile_records = 4096;
  /// The filesystem under the service: the shards' stores, the service
  /// MANIFEST and the directory checks. Null means the real disk; a set
  /// one must outlive the service.
  Fs* fs = nullptr;
};

/// One unit of work at the front door.
struct Submission {
  std::string tenant = "default";
  std::string template_name;
  ocr::Value::Map args;
  int priority = 0;
  /// Placement affinity key; empty uses the assigned global id (spreads
  /// uniformly). Submissions sharing a key land on the same shard.
  std::string key;
};

/// Admission outcome: the service-wide handle plus, once started, the
/// owning shard and its engine-local instance id.
struct Ticket {
  std::string global_id;
  int shard = -1;           // -1 while backlogged
  std::string instance_id;  // empty while backlogged
  bool backlogged = false;
};

/// Aggregate service counters (console STATS / bench output): a snapshot
/// of the fleet registry's service_*_total counters, the front door's
/// backlog and live counts, and the shards' dispatch stats.
struct ServiceStats {
  uint64_t submitted = 0;
  uint64_t admitted = 0;
  uint64_t rejected = 0;
  uint64_t barriers = 0;
  uint64_t barrier_wall_ns = 0;  // wall time inside StepBarrier advances
  size_t backlog_depth = 0;
  size_t live = 0;
  // Aggregated engine dispatch stats across hosted shards.
  uint64_t pump_runs = 0;
  uint64_t dispatched = 0;
  uint64_t running_jobs = 0;
  uint64_t queue_depth = 0;
};

/// The virtual laboratory: N single-engine shards behind an admission/
/// routing front door. Instances are partitioned across shards by
/// consistent hashing (or round-robin), each shard owns its own store and
/// deterministic RNG stream, and virtual time advances in lockstep
/// barriers — concurrently on a thread pool when one is provided — so
/// same-seed runs stay byte-identical per shard regardless of shard
/// interleaving, pool size, or barrier quantum. See docs/SHARDING.md.
class ShardedService {
 public:
  /// `root_dir` holds one subdirectory per shard ("shard-000", ...) plus
  /// the service MANIFEST (instance -> shard placements, so lookups and
  /// reopens with a different shard count stay correct). The registry is
  /// shared by all shard engines and must outlive the service.
  ShardedService(std::string root_dir, core::ActivityRegistry* registry,
                 ServiceOptions options);
  ~ShardedService();
  ShardedService(const ShardedService&) = delete;
  ShardedService& operator=(const ShardedService&) = delete;

  /// Creates/reopens every shard world, starts the engines (each
  /// acquires a fresh writer epoch on its own store, fencing any earlier
  /// service generation per shard), loads the manifest and reconciles it
  /// against the recovered instances. Hosted shard count =
  /// max(options.shards, existing shard directories).
  Status Startup();

  /// Registers the template on every hosted shard.
  Status RegisterTemplate(const ocr::ProcessDef& def);

  /// Admission: starts the instance on its routed shard if the quotas
  /// allow, queues it in the bounded backlog otherwise, rejects with
  /// Unavailable when the backlog is full. Backlogged work is
  /// admitted (round-robin across tenants, FIFO within one) as capacity
  /// frees at barrier boundaries. The backlog is in-memory: work queued
  /// but not yet started does not survive a service restart.
  Result<Ticket> Submit(const Submission& submission);

  /// One lockstep barrier: drains admissions, advances every hosted
  /// shard to the common target time (concurrently when a pool is set),
  /// then applies the instance state changes the shards reported during
  /// the advance (RefreshLiveness) and drains again. The front-door work
  /// after the join scales with the instances that changed state, not
  /// with the instances held. Returns false when fully quiescent (no
  /// regular events anywhere and an un-admittable or empty backlog).
  bool StepBarrier();
  /// Barriers until quiescent. `max_barriers` bounds runaway loops
  /// (0 = unbounded).
  void RunUntilQuiescent(size_t max_barriers = 0);
  /// Single barrier to exactly `t` on every shard (chaos scripting).
  void AdvanceUntil(TimePoint t);

  /// The lockstep clock: every hosted shard's virtual now after a
  /// barrier (the max across shards between barriers).
  TimePoint VirtualNow() const;

  // --- Queries --------------------------------------------------------------
  Result<Ticket> Find(const std::string& global_id) const;
  Result<core::InstanceState> GetState(const std::string& global_id) const;
  Result<ocr::Value> GetWhiteboardValue(const std::string& global_id,
                                        const std::string& var) const;

  int hosted_shards() const { return static_cast<int>(shards_.size()); }
  int routed_shards() const { return options_.shards; }
  /// Hosted shard world (0 <= i < hosted_shards()); null before Startup.
  EngineShard* shard(int i) { return shards_[i].get(); }
  const EngineShard* shard(int i) const { return shards_[i].get(); }

  /// Admitted instances that are running or suspended, as of the last
  /// barrier (or Startup). Exact after every barrier: it equals a count
  /// of GetState() over every admitted id, including instances that an
  /// ABORT/RESTART, a shard crash and recovery, or a reopen moved in or
  /// out of the live set. A state change made between barriers (console
  /// command, direct engine call) counts at the next one.
  size_t LiveInstances() const;
  ServiceStats GetStats() const;

  struct TenantStats {
    uint64_t admitted = 0;
    uint64_t rejected = 0;
    size_t live = 0;
    size_t backlog = 0;
  };
  std::map<std::string, TenantStats> GetTenantStats() const;

  /// Merged cross-shard run report: service totals, per-shard and
  /// per-tenant tables. Deterministic for same-seed runs.
  std::string BuildCrossShardReport() const;

  // --- Fleet observability (docs/OBSERVABILITY.md) --------------------------
  /// The front door's own observability context: fleet metric registry
  /// (admission/SLO counters and histograms, barrier-stall histograms),
  /// admission + barrier spans, SLO transition instants. Stamped from the
  /// lockstep clock (max shard virtual now).
  obs::Observability& fleet_obs() { return *fleet_obs_; }
  const obs::Observability& fleet_obs() const { return *fleet_obs_; }

  /// Wall-clock barrier-stall attribution; null before Startup().
  const obs::BarrierProfiler* barrier_profiler() const {
    return barrier_profiler_.get();
  }
  /// Virtual end time of every barrier so far, ascending (feeds the
  /// fleet critical path's barrier_wait attribution).
  const std::vector<TimePoint>& barrier_bounds() const {
    return barrier_bounds_;
  }

  /// The scalar SLO sensor sample the health rules read: backlog_depth,
  /// rejection_ratio, admission_wait_p99_hours, shard_busy_skew. All
  /// virtual-time or count quantities — deterministic for same seeds.
  std::map<std::string, double> CollectSloSensors() const;
  /// Evaluates the SLO rules, emits a kSloTransition instant span for
  /// every rule whose health state changed, and returns the report.
  /// Called automatically at every barrier; console HEALTH calls it too.
  HealthReport EvaluateHealth();

  /// Deterministic fleet report (console FLEETREPORT): service totals,
  /// per-tenant admission-wait percentiles, streaming straggler sensors
  /// and the SLO verdicts. No wall-clock quantities.
  std::string BuildFleetReport() const;

  // --- Fleet export fan-in ---------------------------------------------------
  /// Federated span timeline across the front door + every shard, JSONL
  /// with fleet-global ids. Byte-identical for same-seed runs.
  std::string ExportFleetSpans() const;
  /// Same federation as one Chrome/Perfetto document (one process per
  /// shard plus the front door).
  std::string ExportFleetChrome() const;
  /// Every hosted instance's lineage export, tagged `"shard":<k>` per
  /// line and ordered by (shard, engine instance id). Byte-identical for
  /// same-seed runs.
  std::string ExportFleetLineage() const;
  /// The barrier-stall profile as a Chrome document (one track per
  /// shard). Wall-clock: values vary run to run; only the tiling
  /// invariant is stable.
  std::string ExportBarrierProfile() const;
  /// Fleet critical path of one submission: the shard-local critical
  /// path extended back to Submit() time with barrier_wait/backlog_wait.
  Result<obs::CriticalPathReport> FleetCriticalPath(
      const std::string& global_id) const;

  // --- Per-shard export fan-in (byte-identity checks, artifacts) ------------
  std::string ExportShardSpans(int shard) const;

 private:
  struct InstanceRec {
    std::string global_id;
    std::string tenant;
    std::string instance_id;
    int shard = -1;
    bool terminal = false;      // not running or suspended (not live)
    TimePoint submitted;        // front-door Submit() virtual time
    bool submit_known = false;  // false for manifest-recovered instances
  };

  /// Cached per-tenant metric handles in the fleet registry.
  struct TenantMetrics {
    obs::Counter* admitted = nullptr;
    obs::Counter* rejected = nullptr;
    obs::Gauge* backlog = nullptr;
    obs::Gauge* live = nullptr;
    obs::Histogram* admission_wait = nullptr;  // virtual hours
  };
  TenantMetrics& TenantMetricsFor(const std::string& tenant);
  /// Mirrors backlog/live totals into the fleet gauges.
  void UpdateGauges();

  Result<Ticket> Admit(const Submission& submission,
                       const std::string& global_id, TimePoint submitted,
                       uint64_t admission_span);
  bool WithinQuota(const std::string& tenant) const;
  /// Admits backlogged submissions round-robin across tenants while the
  /// quotas allow.
  void DrainBacklog();
  /// Drains every shard's state-change list (Engine::TakeStateChanges)
  /// and re-reads the state of each reported instance this service
  /// admitted: running or suspended is live; any other state, or an
  /// instance the engine no longer holds, is not. Counts change only
  /// when an instance's liveness flips. Called after the barrier join,
  /// so no shard is running while the lists are drained.
  void RefreshLiveness();
  void AdvanceAll(TimePoint target);

  Status LoadManifest();
  /// Appends one admission line to the MANIFEST through the handle
  /// Startup opened, and flushes it (page cache, no fsync).
  Status AppendManifest(const InstanceRec& rec);
  std::string ManifestPath() const;
  std::string ShardDir(int index) const;

  /// The lockstep clock as a Clock: stamps the front door's span sink
  /// with max shard virtual now.
  class FleetClock : public Clock {
   public:
    explicit FleetClock(const ShardedService* service) : service_(service) {}
    TimePoint Now() const override { return service_->VirtualNow(); }

   private:
    const ShardedService* service_;
  };

  std::string root_dir_;
  core::ActivityRegistry* registry_;
  ServiceOptions options_;
  Fs* fs_;  // options_.fs, or the real disk
  std::unique_ptr<WritableFile> manifest_;
  /// The MANIFEST ended in a torn line: the next append starts a new one.
  bool manifest_torn_ = false;
  std::unique_ptr<Router> router_;
  std::vector<std::unique_ptr<EngineShard>> shards_;

  std::map<std::string, InstanceRec> instances_;  // by global id
  /// Per hosted shard: engine-local instance id -> global id, for every
  /// instance this service admitted or found in the manifest.
  std::vector<std::map<std::string, std::string>> local_to_global_;
  size_t live_ = 0;  // instances_ entries with terminal == false
  std::map<std::string, TenantStats> tenants_;
  /// One backlogged submission: handle, payload, and the front-door
  /// context (submit time, open admission span) the admission metrics
  /// need when it finally starts.
  struct BacklogEntry {
    std::string global_id;
    Submission submission;
    TimePoint submitted;
    uint64_t span = 0;  // open kAdmission span in the fleet sink
  };
  /// Backlog: FIFO per tenant + rotation cursor for fairness.
  std::map<std::string, std::deque<BacklogEntry>> backlog_;
  std::string backlog_cursor_;  // tenant after which the next drain starts
  size_t backlog_depth_ = 0;
  uint64_t next_seq_ = 1;
  /// Wall time inside StepBarrier advances, exact in ns (the
  /// service_barrier_wall_seconds_total gauge holds it as a double).
  uint64_t barrier_wall_ns_ = 0;
  bool started_ = false;

  // --- Fleet observability state ---------------------------------------------
  std::unique_ptr<FleetClock> fleet_clock_;
  std::unique_ptr<obs::Observability> fleet_obs_;
  std::unique_ptr<obs::BarrierProfiler> barrier_profiler_;
  std::vector<TimePoint> barrier_bounds_;
  /// Per-shard streaming step sensor: virtual seconds of engine busy time
  /// per barrier (the deterministic straggler signal), fed from
  /// DispatchStats::busy_virtual_us deltas.
  struct ShardStepSensor {
    obs::QuantileSensor step;
    uint64_t last_busy_us = 0;
  };
  std::vector<ShardStepSensor> step_sensors_;
  std::vector<SloRule> slo_rules_;
  /// Last health state per rule name (transition detection for
  /// kSloStateChanged events).
  std::map<std::string, HealthState> rule_state_;
  HealthState overall_health_ = HealthState::kOk;
  std::map<std::string, TenantMetrics> tenant_metrics_;
  obs::Counter* submitted_metric_ = nullptr;
  obs::Counter* admitted_metric_ = nullptr;
  obs::Counter* rejected_metric_ = nullptr;
  obs::Counter* barriers_metric_ = nullptr;
  obs::Counter* backlog_drained_metric_ = nullptr;
  obs::Gauge* backlog_gauge_ = nullptr;
  obs::Gauge* live_gauge_ = nullptr;
  /// Cumulative StepBarrier advance wall time in seconds. The *key* is
  /// registered deterministically; the value is wall clock.
  obs::Gauge* barrier_wall_gauge_ = nullptr;
  std::vector<obs::Counter*> placement_metrics_;  // per routed shard
};

}  // namespace biopera::service

#endif  // BIOPERA_SERVICE_SERVICE_H_
