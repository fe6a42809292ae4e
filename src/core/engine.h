#ifndef BIOPERA_CORE_ENGINE_H_
#define BIOPERA_CORE_ENGINE_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "common/result.h"
#include "core/activity.h"
#include "core/instance.h"
#include "monitor/adaptive_monitor.h"
#include "monitor/awareness.h"
#include "obs/lineage.h"
#include "obs/rundiff.h"
#include "obs/trace.h"
#include "ocr/model.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "store/spaces.h"

namespace biopera::exec {
class ThreadPool;
}

namespace biopera::obs {
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
  /// Coalesce every store commit inside one engine action (an entry
  /// point, cluster callback, or timer lambda) into a single WAL
  /// append+flush, with a flush barrier before any externally visible
  /// action (job dispatch, console reply, checkpoint). Recovered state is
  /// byte-identical with or without coalescing; see docs/STORE.md.
  bool group_commit = true;
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
  /// Degraded-mode retry backoff (store IOError survival): the first
  /// retry of the failed commit fires after `degraded_retry_initial`,
  /// doubling up to `degraded_retry_max` until the disk accepts writes.
  Duration degraded_retry_initial = Duration::Seconds(1);
  Duration degraded_retry_max = Duration::Minutes(5);
  monitor::AdaptiveMonitorOptions monitor_options;
  /// Control-plane channel between the engine and the PECs. When null the
  /// engine creates and owns a plain comms::Channel (lossless, synchronous
  /// delivery — byte-identical to the pre-seam direct calls). Pass a
  /// comms::FaultChannel to subject every launch/kill command and every
  /// completion/heartbeat report to drops, delays, duplicates, reorders
  /// and asymmetric partitions (see docs/COMMS.md). Must outlive the
  /// engine.
  comms::Channel* channel = nullptr;
  /// Lease-based failure detection. When non-zero, PECs heartbeat at this
  /// interval, direct crash/repair notifications are disabled
  /// (ClusterSim::SetSilentCrashes), and the engine runs the
  /// suspected/condemned state machine of docs/COMMS.md: a node missing
  /// `lease_misses_to_suspect` consecutive heartbeats is *suspected*
  /// (scheduler stops placing on it; a probe is sent); if silence persists
  /// for `lease_condemn_grace` more it is *condemned* and its jobs are
  /// re-queued. A heartbeat at any point reconciles the node without
  /// losing running jobs. Zero keeps the legacy instant-notification mode.
  Duration heartbeat_interval = Duration::Zero();
  int lease_misses_to_suspect = 3;
  Duration lease_condemn_grace = Duration::Minutes(2);
  /// Kill-command retry policy: a kKill that cannot be delivered (link
  /// down, injected drop) is retried with exponential backoff
  /// (`kill_retry_base` doubling to `kill_retry_max`, plus deterministic
  /// per-(node,job,attempt) jitter — comms::RetryBackoff) at most
  /// `kill_retry_limit` times; undeliverable kills are also flushed
  /// immediately when the command link comes back.
  Duration kill_retry_base = Duration::Seconds(2);
  Duration kill_retry_max = Duration::Minutes(4);
  int kill_retry_limit = 8;
  /// Deterministic seed for engine-internal randomness (random policy).
  uint64_t seed = 1;
  /// Optional observability context. When set, the engine emits spans
  /// and metrics for its hot paths (dispatch, completion, failure,
  /// watchdog, migration, recovery) and propagates the context to the
  /// cluster, the record store, and the per-node adaptive monitors, so one
  /// field instruments the whole stack. Must outlive the engine.
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

/// A summary row for one instance (monitoring queries, examples, benches).
struct InstanceSummary {
  std::string id;
  std::string template_name;
  InstanceState state = InstanceState::kRunning;
  InstanceStats stats;
  size_t tasks_total = 0;
  size_t tasks_done = 0;
  size_t tasks_running = 0;
  size_t tasks_ready = 0;
  size_t tasks_failed = 0;
};

/// The BioOpera server: navigator + dispatcher + recovery manager over the
/// persistent spaces, driving processes across the simulated cluster
/// (paper §3.2, Figure 2).
///
/// Every state transition is committed to the record store *before* it
/// takes effect in memory, so Crash() + Startup() at any point resumes the
/// computation without losing completed activities — the paper's central
/// dependability property.
class Engine : public cluster::ClusterListener, public comms::ReportHandler {
 public:
  Engine(Simulator* sim, cluster::ClusterSim* cluster, RecordStore* store,
         ActivityRegistry* registry, const EngineOptions& options = {});
  ~Engine() override;

  // --- Server lifecycle -----------------------------------------------------
  /// Boots the server: registers the cluster topology in the awareness
  /// model and configuration space, then recovers every instance found in
  /// the instance space (re-queueing activities that were running when the
  /// server last stopped).
  Status Startup();
  /// Simulates a server crash: in-memory state is dropped and all cluster
  /// jobs are killed ("when the BioOpera server fails, ongoing processes
  /// are stopped"). Call Startup() to recover.
  void Crash();
  bool IsUp() const { return up_; }

  /// Degraded mode (paper Fig. 5, event 5): when a store flush fails with
  /// an I/O error the engine stops dispatching, keeps its in-memory state,
  /// and retries the commit with exponential backoff; dispatch resumes as
  /// soon as a write goes through. Completed transitions are never lost —
  /// they stay in the image and the retained commit group.
  bool IsDegraded() const { return degraded_; }

  /// The writer epoch this engine acquired at Startup (0 before). Another
  /// engine starting on the same store acquires a newer epoch and this
  /// one's commits are fenced off (split-brain protection).
  uint64_t writer_epoch() const { return spaces_.epoch(); }

  /// Runs the store self-check (console SCRUB): CRC-verifies segments and
  /// WAL, quarantines corrupt segments, rebuilds from the live image.
  Result<std::string> ScrubStore();

  // --- Template space ------------------------------------------------------
  /// Validates and stores a process definition (as OCR text).
  Status RegisterTemplate(const ocr::ProcessDef& def);
  std::vector<std::string> ListTemplates() const;

  // --- Instance control ------------------------------------------------------
  /// Starts a process from a stored template. `args` overlays the
  /// whiteboard defaults (the paper's user input parameters). Returns the
  /// new instance id.
  Result<std::string> StartProcess(const std::string& template_name,
                                   const ocr::Value::Map& args = {},
                                   int priority = 0);
  /// Stops dispatching new activities; running ones finish (paper event 1).
  Status Suspend(const std::string& instance_id);
  Status Resume(const std::string& instance_id);
  /// Kills running jobs and marks the instance aborted.
  Status Abort(const std::string& instance_id);
  /// Re-queues failed/stuck tasks of a failed or running instance (paper
  /// event 10: restart re-schedules TEUs that never reported).
  Status Restart(const std::string& instance_id);
  /// OCR event handling (§3.1): delivers `event` to the instance. Tasks
  /// gated with ON_EVENT on it become dispatchable (the paper's
  /// user-triggered activities, e.g. visualization checks, §3.4).
  /// Idempotent; the raised-event set is persisted with the instance.
  Status RaiseEvent(const std::string& instance_id, const std::string& event);
  /// Recompute support (paper conclusions: "the system [can] recompute
  /// processes as data inputs or algorithms change"): discards the named
  /// top-level task and everything control-flow downstream of it, then
  /// re-runs navigation — upstream results are reused from their
  /// checkpoints, only the invalidated tail re-executes (against the
  /// *current* activity registry and templates, so upgraded algorithms
  /// take effect).
  Status Invalidate(const std::string& instance_id,
                    const std::string& task_name);
  /// Housekeeping on a long-lived server: removes a *terminal* instance's
  /// records from the instance space and drops it from memory. Its
  /// execution history remains queryable in the history space.
  Status Archive(const std::string& instance_id);

  // --- Queries ---------------------------------------------------------------
  Result<InstanceSummary> Summary(const std::string& instance_id) const;
  std::vector<InstanceSummary> ListInstances() const;
  Result<InstanceState> GetInstanceState(const std::string& instance_id) const;
  /// Whiteboard value of a (running or finished) instance.
  Result<ocr::Value> GetWhiteboardValue(const std::string& instance_id,
                                        const std::string& var) const;
  /// Path of the task that last wrote `var` (automatic lineage tracking).
  Result<std::string> GetLineage(const std::string& instance_id,
                                 const std::string& var) const;
  /// Execution history records of an instance, oldest first.
  std::vector<std::string> GetHistory(const std::string& instance_id) const;

  // --- Provenance / lineage --------------------------------------------------
  /// All lineage records of an instance, read back from the provenance
  /// space (so they survive crashes and are recovered with the instance),
  /// ordered by (task path, attempt). Records exist only for dispatches
  /// made while an Observability context was attached.
  Result<std::vector<obs::LineageRecord>> GetTaskLineage(
      const std::string& instance_id) const;
  /// The instance's full lineage export: one header line plus one line
  /// per attempt, flat JSONL (see docs/PROVENANCE.md). Byte-identical
  /// across same-seed runs.
  Result<std::string> ExportLineageJsonl(const std::string& instance_id) const;
  /// In-memory run view for differencing two instances of this engine
  /// (console DIFF). Outage windows come from the span sink when present.
  Result<obs::RunLineage> BuildRunLineage(const std::string& instance_id,
                                          std::string label) const;
  /// Content digest of the configuration space (node rows), recomputed at
  /// Startup and on every cluster config change. Two runs with different
  /// versions ran against different declared resources.
  const std::string& config_version() const { return config_version_; }

  const monitor::AwarenessModel& awareness() const { return awareness_; }

  /// The observability context from EngineOptions (nullptr if not set).
  obs::Observability* observability() const { return options_.observability; }

  /// Aggregate adaptive-monitoring statistics across all per-node
  /// monitors since the last Startup (paper §3.4: the scheme "helps to
  /// considerably reduce the sampling and network overheads").
  struct MonitoringStats {
    uint64_t samples_taken = 0;
    uint64_t reports_sent = 0;
    double DiscardRate() const {
      return samples_taken == 0
                 ? 0.0
                 : 1.0 - static_cast<double>(reports_sent) /
                             static_cast<double>(samples_taken);
    }
  };
  MonitoringStats GetMonitoringStats() const;
  ProcessInstance* FindInstance(const std::string& instance_id);
  const ProcessInstance* FindInstance(const std::string& instance_id) const;

  /// Estimated reference-CPU work remaining in an instance: queued/ready
  /// activities at the mean completed-activity cost plus the outstanding
  /// jobs' full costs. Part of the §3.4 awareness/monitoring view.
  Result<Duration> EstimateRemainingWork(const std::string& instance_id) const;

  /// Per-task status rows (path, state, node if running, timings) —
  /// the monitoring drill-down behind the console's TASKS command.
  struct TaskRow {
    std::string path;
    TaskState state;
    std::string node;  // when running
    TimePoint started;
    TimePoint finished;
    Duration cost;
    int attempts;
  };
  Result<std::vector<TaskRow>> ListTasks(const std::string& instance_id) const;

  /// Jobs currently dispatched: (instance, task path, node).
  struct RunningJob {
    cluster::JobId job;
    std::string instance_id;
    std::string path;
    std::string node;
    Duration cost;
  };
  std::vector<RunningJob> GetRunningJobs() const;
  /// Entries awaiting dispatch: the ready queue plus every parked entry
  /// (starved classes and suspended instances).
  size_t QueueDepth() const;

  /// Dispatcher internals for monitoring (console STATS).
  struct DispatchStats {
    size_t ready = 0;             // dispatchable at the next pump
    size_t parked_starved = 0;    // waiting for capacity in their class
    size_t parked_suspended = 0;  // waiting for their instance to resume
    size_t running_jobs = 0;
    uint64_t pump_runs = 0;        // engine_pump_runs_total
    uint64_t entries_scanned = 0;  // engine_pump_entries_scanned_total
    uint64_t dispatched = 0;       // engine_tasks_dispatched_total
    /// Virtual microseconds this engine had at least one job in flight —
    /// a deterministic utilization clock. The sharded service takes
    /// per-barrier deltas of it to feed the straggler step sensors.
    uint64_t busy_virtual_us = 0;
  };
  DispatchStats GetDispatchStats() const;

  // --- ClusterListener -------------------------------------------------------
  void OnJobFinished(cluster::JobId id, const std::string& node) override;
  void OnJobFailed(cluster::JobId id, const std::string& node,
                   const std::string& reason) override;
  void OnNodeDown(const std::string& node) override;
  void OnNodeUp(const std::string& node) override;
  void OnLoadReport(const std::string& node, double load) override;
  void OnConfigChanged(const cluster::NodeConfig& config) override;
  void OnLinkChanged(const std::string& node) override;

  // --- comms::ReportHandler --------------------------------------------------
  /// Report-plane entry point: every heartbeat / completion / failure /
  /// load message from the PECs arrives here (possibly dropped, delayed,
  /// duplicated or reordered by a FaultChannel). Completion and failure
  /// reports are fenced: a report whose (job, fence) does not match the
  /// engine's outstanding attempt is a duplicate or a zombie from a
  /// condemned attempt and is dropped idempotently.
  void HandleReport(const comms::Message& msg) override;

  /// Lease-detector state of a node (legacy mode reports kUp for known
  /// nodes). See docs/COMMS.md.
  enum class LeaseState { kUp, kSuspected, kCondemned, kUnknown };
  LeaseState GetLeaseState(const std::string& node) const;

  /// The control-plane channel in use (owned default or the one from
  /// EngineOptions).
  comms::Channel* channel() const { return channel_; }

 private:
  friend class OutagePlanner;

  /// Dispatch order: priority descending, then enqueue sequence (FIFO).
  /// Used as the key of the ready map and the parked queues, so a parked
  /// entry re-enters the scan exactly where the old sort-every-pump deque
  /// would have placed it.
  using ReadyKey = std::pair<int, uint64_t>;  // (-priority, seq)

  /// Captured state of one speculative activity execution on the
  /// options.executor pool (defined in engine.cc).
  struct PreExecState;

  struct ReadyEntry {
    std::string instance_id;
    std::string path;
    /// Cached execution result when a previous placement attempt declined.
    std::optional<ActivityOutput> cached;
    /// Node to avoid if any alternative exists (set by the lost-report
    /// watchdog: the node may be silently partitioned).
    std::string avoid_node;
    /// Instance priority and enqueue sequence, frozen at enqueue time
    /// (instance priority is immutable after creation).
    int priority = 0;
    uint64_t seq = 0;
    /// Resolved handles, validated by the generation counters below; on
    /// mismatch the pump falls back to FindInstance/FindByPath once and
    /// re-caches.
    ProcessInstance* inst_hint = nullptr;
    TaskNode* node_hint = nullptr;
    uint64_t engine_gen = 0;     // vs Engine::instance_generation_
    uint64_t structure_gen = 0;  // vs ProcessInstance::structure_generation()
    /// The activity's resource class, cached so parking/waking never needs
    /// to resolve the node.
    std::string resource_class;
    /// Span covering this attempt from enqueue to its terminal outcome
    /// (0 when spans are not enabled).
    uint64_t attempt_span = 0;
    /// Input descriptors captured when the activity first executed (empty
    /// until then, and always empty when spans are not enabled).
    std::vector<std::pair<std::string, std::string>> input_desc;
    /// Speculative execution handed back by the thread pool, consumed by
    /// the scan only if the freshly built input still matches the one it
    /// ran with (activities are pure, so equal input implies the result
    /// the inline path would have computed). Null when not pre-executed.
    std::shared_ptr<PreExecState> pre_exec;

    ReadyKey key() const { return {-priority, seq}; }
  };
  struct PendingJob {
    std::string instance_id;
    std::string path;
    ocr::Value::Map outputs;
    Duration cost;
    std::string node;
    /// Attempt-epoch fencing token stamped on the launch command. A
    /// completion/failure report is applied only if its fence matches —
    /// duplicated, reordered, and zombie (post-condemnation) reports of
    /// older attempts are dropped idempotently. 0 only before dispatch.
    uint64_t fence = 0;
    /// Lost-report watchdog event, cancelled when the job reports in time
    /// (kInvalidEventId when the watchdog is disabled).
    EventId watchdog = kInvalidEventId;
    /// Spans (0 when not enabled): the enclosing attempt, and the
    /// execution slice opened at dispatch.
    uint64_t attempt_span = 0;
    uint64_t job_span = 0;
    /// Lineage carry-through: the attempt number this dispatch persisted
    /// under, plus the input/parameter descriptors so a timeout or
    /// migration re-queue keeps them for the next attempt's record.
    int attempt = 0;
    std::vector<std::pair<std::string, std::string>> input_desc;
    std::vector<std::pair<std::string, std::string>> params;
  };

  // -- Navigation --
  /// Builds children of a composite node when it activates.
  Status ExpandComposite(ProcessInstance* inst, TaskNode* node,
                         WriteBatch* batch);
  /// Runs connector evaluation in `scope` until fixpoint, activating and
  /// skipping children; checks scope completion.
  Status EvaluateScope(ProcessInstance* inst, TaskNode* scope,
                       WriteBatch* batch);
  Status ActivateTask(ProcessInstance* inst, TaskNode* node,
                      WriteBatch* batch);
  Status SkipTask(ProcessInstance* inst, TaskNode* node, WriteBatch* batch);
  /// Marks a task done, applies the mapping phase, bubbles completion
  /// upward and re-evaluates the surrounding scope.
  Status CompleteTask(ProcessInstance* inst, TaskNode* node,
                      ocr::Value::Map outputs, Duration cost,
                      WriteBatch* batch);
  Status HandleTaskFailure(ProcessInstance* inst, TaskNode* node,
                           const std::string& reason, WriteBatch* batch);
  /// Checks whether all children of `scope` are terminal and finishes the
  /// composite (collection, output mapping, instance completion).
  Status MaybeCompleteScope(ProcessInstance* inst, TaskNode* scope,
                            WriteBatch* batch);
  /// Applies output mappings of `node` into its scope whiteboard.
  Status ApplyOutputMappings(ProcessInstance* inst, TaskNode* node,
                             WriteBatch* batch);
  /// Re-runs navigation over all active scopes (after Restart resets).
  Status ReevaluateAll(ProcessInstance* inst, WriteBatch* batch);
  /// Sphere-of-atomicity failure handling: run compensation bindings of
  /// completed activities in reverse completion order, discard the
  /// sphere's state, and re-run it (bounded by its failure policy).
  Status CompensateSphere(ProcessInstance* inst, TaskNode* scope,
                          WriteBatch* batch);
  /// Deletes a node's children (records, index entries and nodes); kills
  /// outstanding jobs and queue entries under it.
  void DiscardSubtree(ProcessInstance* inst, TaskNode* node,
                      WriteBatch* batch);
  /// Assembles the ActivityInput of a task from its input mappings.
  Result<ActivityInput> BuildInput(TaskNode* node);

  // -- Dispatching --
  void EnqueueReady(ProcessInstance* inst, TaskNode* node);
  /// Routes an entry into the ready map — or, during a pump, into the
  /// pump-local overflow queue (scanned at the tail of the running pump,
  /// in enqueue order, mirroring the old deque's mid-pump appends).
  void PushEntry(ReadyEntry entry);
  /// Runs the activity kernels of all executable ready entries as one
  /// batch on options.executor (no-op without one), so the scan below
  /// finds their results precomputed. Purely a wall-clock optimization:
  /// input assembly, validation, ordering, failure handling and all
  /// observability stay on the engine thread.
  void PreExecuteReady();
  void PumpDispatch();
  void SchedulePumpRetry();
  /// Arms the lost-report watchdog; returns its event id (kInvalidEventId
  /// when disabled) for cancellation on timely completion.
  EventId ArmJobWatchdog(cluster::JobId job_id, Duration cost);
  /// Kill-and-restart migration check (see EngineOptions).
  void CheckMigrations();
  /// Re-queues a job taken from the job table as a fresh attempt
  /// (watchdog timeouts and lease condemnations share this path).
  /// `outcome` labels the lineage record and attempt span; `avoid_node`
  /// steers the next placement away from the possibly-partitioned node.
  void RequeueLostJob(PendingJob pending, std::string_view outcome);

  // -- Control plane (comms seam) --
  /// Applies a verified completion/failure (fence already checked).
  void ApplyJobFinished(cluster::JobId id, const std::string& node);
  void ApplyJobFailed(cluster::JobId id, const std::string& node,
                      const std::string& reason);
  /// Sends a kKill for (node, job, fence); an undeliverable kill enters
  /// the bounded-retry registry instead of being lost.
  void SendKill(const std::string& node, cluster::JobId job, uint64_t fence);
  void ScheduleKillRetry(cluster::JobId job);
  /// Command link to `node` came back: re-send its queued kills now.
  void FlushPendingKills(const std::string& node);
  void CancelPendingKills();

  // -- Lease detector (heartbeat mode only) --
  void ArmLeaseCheck();
  void CheckLeases();
  void HandleHeartbeat(const std::string& node);
  void SuspectNode(const std::string& node);
  void CondemnNode(const std::string& node);
  /// A suspected (not yet condemned) node heartbeated: false suspicion —
  /// restore it without touching its still-running jobs.
  void ReconcileNode(const std::string& node);

  // -- Parked-entry wakeups --
  /// Marks a parked resource class dispatch-eligible again; the next pump
  /// scans its head. Mid-pump, also un-freezes the class so entries later
  /// in the scan get a fresh placement attempt (capacity just changed).
  void MarkClassWoken(const std::string& resource_class);
  /// Capacity appeared on `node_name`: wake every parked class it serves.
  void WakeClassesForNode(const std::string& node_name);
  void WakeAllClasses();
  /// Re-queues entries parked while `instance_id` was suspended (RESUME /
  /// RESTART).
  void WakeInstance(const std::string& instance_id);
  void DropParkedForInstance(const std::string& instance_id);
  size_t NumParkedStarved() const;
  size_t NumParkedSuspended() const;

  // -- Job table --
  void IndexJob(cluster::JobId job_id, const PendingJob& pending);
  /// Busy-clock transitions (DispatchStats::busy_virtual_us): call after
  /// inserting into jobs_ / before or after removing from it.
  void NoteJobsNonEmpty();
  void NoteJobsMaybeDrained();
  /// Removes a job from the table and the per-node / per-instance
  /// indices, cancels its watchdog, releases its awareness slot, wakes
  /// the classes its node serves and closes the job span with `outcome`
  /// ("completed", "failed", "timed_out", "migrated", "killed"). Every
  /// jobs_ removal goes through here.
  PendingJob TakeJob(std::map<cluster::JobId, PendingJob>::iterator it,
                     bool failed, std::string_view outcome);
  PendingJob TakeJob(cluster::JobId job_id, bool failed,
                     std::string_view outcome);

  // -- Persistence --
  void PersistTask(ProcessInstance* inst, const TaskNode* node,
                   WriteBatch* batch);
  void PersistWhiteboard(ProcessInstance* inst, const TaskNode* scope_owner,
                         WriteBatch* batch);
  void PersistHeader(ProcessInstance* inst, WriteBatch* batch);
  Status Commit(WriteBatch* batch);
  /// Store to group commits on: the record store when group commit is
  /// enabled, nullptr (a no-op CommitScope) otherwise.
  RecordStore* GroupTarget();
  void AppendHistory(const std::string& instance_id, const std::string& event);
  /// Rebuilds one instance from its records (key order, "<id>/" prefix
  /// stripped, as Spaces::ScanInstances groups them); re-queues
  /// interrupted work.
  Status RecoverInstance(const std::string& instance_id,
                         std::vector<std::pair<std::string, std::string>> rows);

  Result<const ocr::ProcessDef*> ResolveTemplate(const std::string& name);

  // -- Degraded mode & fencing --
  /// Store flush failed at a commit barrier: decide between fencing
  /// (another engine took over the store) and degraded mode (disk error).
  void OnStoreFlushFailure(const Status& cause);
  void EnterDegraded(const Status& cause);
  void ScheduleDegradedRetry();
  /// Backoff retry: flush the retained group and probe with a fresh
  /// config write; on success leave degraded mode and resume dispatch.
  void RetryDegradedCommit();
  /// If `st` is the store's fencing rejection, schedules the engine's
  /// step-down (at the current virtual time, outside the failing call
  /// stack) and returns true.
  bool MaybeHandleFenced(const Status& st);
  /// Fenced step-down: drop in-memory state and stop, but do NOT kill
  /// cluster jobs — they now belong to the engine that took over.
  void TearDownFenced();

  // -- Observability --
  /// Refreshes the queue-depth / running-jobs gauges.
  void SyncObsGauges();

  // -- Span instrumentation (all no-ops when spans_ == nullptr) --
  /// The instance's span id, opening (first start) or re-attaching
  /// (recovery after a crash dropped the in-memory handle) as needed.
  uint64_t InstanceSpanId(ProcessInstance* inst);
  /// Opens the attempt span for a freshly queued entry; a retry links to
  /// the attempt it replaces through the task's last_attempt_span.
  void BeginAttemptSpan(ReadyEntry* entry, ProcessInstance* inst,
                        TaskNode* node);
  /// Closes an attempt span with its terminal outcome.
  void EndAttemptSpan(uint64_t attempt_span, std::string_view outcome);

  // -- Provenance (all no-ops when spans_ == nullptr) --
  /// Writes the attempt's in-row (inputs, params, node, binding, dispatch
  /// time) into the dispatch commit's batch.
  void RecordLineageDispatch(const ReadyEntry& entry, const TaskNode* node,
                             const std::string& target, int attempt,
                             WriteBatch* batch);
  /// Writes the attempt's out-row (outcome, finish time, cost, output
  /// descriptors) into the outcome commit's batch.
  void RecordLineageOutcome(const PendingJob& pending, std::string_view outcome,
                            bool with_outputs, WriteBatch* batch);
  /// Recomputes config_version_ from the config space's node rows.
  void RefreshConfigVersion();

  Simulator* sim_;
  cluster::ClusterSim* cluster_;
  Spaces spaces_;
  ActivityRegistry* registry_;
  EngineOptions options_;
  Rng rng_;

  bool up_ = false;
  bool degraded_ = false;
  bool fenced_pending_ = false;
  Duration degraded_backoff_;
  EventId degraded_event_ = kInvalidEventId;
  monitor::AwarenessModel awareness_;
  std::unique_ptr<sched::SchedulingPolicy> policy_;
  std::map<std::string, std::unique_ptr<monitor::AdaptiveMonitor>> monitors_;

  /// Parsed template cache; pointers into it stay valid for the engine's
  /// life (recovered instances reference these definitions).
  std::map<std::string, std::unique_ptr<ocr::ProcessDef>> template_cache_;
  /// Superseded parses kept alive because instances may still point at them.
  std::vector<std::unique_ptr<ocr::ProcessDef>> retired_defs_;

  std::map<std::string, std::unique_ptr<ProcessInstance>> instances_;
  /// Bumped whenever instances_ loses an element (Archive, Crash, fenced
  /// step-down); validates ReadyEntry::inst_hint.
  uint64_t instance_generation_ = 0;

  /// Entries the next pump scans, in dispatch order. Fresh enqueues land
  /// here; entries that decline placement or hit a suspended instance
  /// move to the parked maps below and are skipped by later pumps until a
  /// wake event readmits them — per-pump work tracks what can actually
  /// dispatch, not total queue depth.
  std::map<ReadyKey, ReadyEntry> ready_;
  /// Starved entries, per resource class, in dispatch order.
  std::map<std::string, std::map<ReadyKey, ReadyEntry>, std::less<>>
      parked_by_class_;
  /// Classes re-admitted to the pump scan by a capacity event.
  std::set<std::string, std::less<>> woken_classes_;
  /// Entries of suspended instances, re-queued on RESUME/RESTART.
  std::map<std::string, std::map<ReadyKey, ReadyEntry>> parked_by_instance_;
  uint64_t next_ready_seq_ = 1;
  /// Pump re-entrancy: enqueues from navigation running inside a pump go
  /// to the overflow queue; classes declining this pump freeze until the
  /// pump ends (or capacity frees mid-pump).
  bool pumping_ = false;
  std::deque<ReadyEntry> pump_overflow_;
  std::set<std::string, std::less<>> pump_frozen_;

  // -- Control plane state --
  /// Owned default channel (used when EngineOptions.channel is null).
  std::unique_ptr<comms::Channel> owned_channel_;
  /// The channel the cluster is attached through (never null after the
  /// constructor).
  comms::Channel* channel_ = nullptr;
  /// Per-Startup fence counter; fences are writer_epoch << 20 | counter,
  /// so attempts of different server incarnations never collide.
  uint64_t next_fence_seq_ = 0;
  /// Undeliverable kKill commands awaiting retry/backoff or a link-up
  /// flush. Keyed by job id; a job's entry is dropped once the kill
  /// delivers, the retry budget is exhausted, or the attempt resolves.
  struct PendingKill {
    std::string node;
    uint64_t fence = 0;
    int attempts = 0;
    EventId retry = kInvalidEventId;
  };
  std::map<cluster::JobId, PendingKill> pending_kills_;
  /// Lease table (heartbeat mode only; empty in legacy mode).
  struct NodeLease {
    TimePoint last_heartbeat;
    LeaseState state = LeaseState::kUp;
    TimePoint suspected_at;
    /// Suspicion span (0 when spans are off or node not suspected).
    uint64_t suspicion_span = 0;
  };
  std::map<std::string, NodeLease> leases_;
  EventId lease_check_ = kInvalidEventId;

  std::map<cluster::JobId, PendingJob> jobs_;
  /// Busy-clock state for DispatchStats::busy_virtual_us: closed busy
  /// windows accumulate here; a window opens when jobs_ becomes non-empty
  /// (busy_since_) and closes when it drains. Maintained by
  /// NoteJobsNonEmpty / NoteJobsMaybeDrained around every jobs_ mutation.
  uint64_t busy_virtual_us_ = 0;
  TimePoint busy_since_;
  bool busy_open_ = false;
  /// Secondary indices over jobs_ (deterministic JobId order inside each
  /// bucket) so Abort/Restart/DiscardSubtree/EstimateRemainingWork/
  /// ListTasks and the migration scan touch only their own jobs.
  std::map<std::string, std::set<cluster::JobId>> jobs_by_instance_;
  std::map<std::string, std::set<cluster::JobId>> jobs_by_node_;
  cluster::JobId next_job_id_ = 1;
  uint64_t next_instance_seq_ = 1;
  bool pump_scheduled_ = false;
  EventId pump_event_ = kInvalidEventId;

  // Span sink (null without an Observability context) and the open
  // overlay spans it tracks for the engine: the server-down window
  // between Crash() and the next Startup(), and the store-degraded
  // window. The critical-path analyzer uses these windows to classify
  // waiting time as recovery / store stall.
  obs::SpanSink* spans_ = nullptr;
  uint64_t server_down_span_ = 0;
  uint64_t degraded_span_ = 0;
  /// See config_version(). Empty until Startup.
  std::string config_version_;

  // Resolved metric handles (null without an Observability context).
  obs::Counter* dispatched_metric_ = nullptr;
  obs::Counter* pump_runs_metric_ = nullptr;
  obs::Counter* pump_scanned_metric_ = nullptr;
  obs::Counter* preexec_batches_metric_ = nullptr;
  obs::Counter* preexec_tasks_metric_ = nullptr;
  obs::Counter* completed_metric_ = nullptr;
  obs::Counter* failed_metric_ = nullptr;
  obs::Counter* timed_out_metric_ = nullptr;
  obs::Counter* migrations_metric_ = nullptr;
  obs::Counter* recovered_metric_ = nullptr;
  obs::Counter* degraded_total_metric_ = nullptr;
  obs::Counter* degraded_retries_metric_ = nullptr;
  obs::Gauge* degraded_gauge_ = nullptr;
  obs::Gauge* queue_depth_gauge_ = nullptr;
  obs::Gauge* parked_starved_gauge_ = nullptr;
  obs::Gauge* parked_suspended_gauge_ = nullptr;
  obs::Gauge* running_jobs_gauge_ = nullptr;
  obs::Histogram* task_cost_metric_ = nullptr;
  // Control-plane metrics.
  obs::Counter* suspected_metric_ = nullptr;
  obs::Counter* condemned_metric_ = nullptr;
  obs::Counter* reconciled_metric_ = nullptr;
  obs::Counter* fenced_reports_metric_ = nullptr;
  obs::Counter* dup_reports_metric_ = nullptr;
  obs::Counter* kill_retries_metric_ = nullptr;
  obs::Counter* kill_gave_up_metric_ = nullptr;
  obs::Gauge* suspected_gauge_ = nullptr;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_ENGINE_H_
