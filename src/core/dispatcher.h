#ifndef BIOPERA_CORE_DISPATCHER_H_
#define BIOPERA_CORE_DISPATCHER_H_

#include <deque>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "core/activity.h"
#include "core/engine_options.h"
#include "core/instance.h"
#include "core/navigator.h"
#include "core/provenance.h"
#include "monitor/awareness.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sched/policy.h"
#include "sim/simulator.h"
#include "store/spaces.h"

namespace biopera::core {

/// See Engine::GetDispatchStats, GetRunningJobs and ListTasks.
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
struct RunningJob {
  cluster::JobId job;
  std::string instance_id;
  std::string path;
  std::string node;
  Duration cost;
};
struct TaskRow {
  std::string path;
  TaskState state;
  std::string node;  // when running
  TimePoint started;
  TimePoint finished;
  Duration cost;
  int attempts;
};

/// What outlives one Dispatcher, which the engine recreates at every
/// Startup: job ids appear in the span exports (renumbering them after a
/// restart would break their identity), the sharded service diffs the busy
/// clock per barrier, and the dispatcher's metrics (the counters behind
/// DispatchStats among them) are cumulative. The handles are resolved once.
struct DispatchLedger {
  explicit DispatchLedger(obs::Registry* registry);
  /// The counters and the busy clock up to `now`, with empty queues.
  DispatchStats Stats(TimePoint now) const;

  cluster::JobId next_job_id = 1;
  /// Closed windows with at least one job in flight, plus the open one
  /// since `busy_since` while `busy_open`.
  uint64_t busy_us = 0;
  TimePoint busy_since;
  bool busy_open = false;

  obs::Counter* dispatched;
  obs::Counter* pump_runs;
  obs::Counter* entries_scanned;
  obs::Counter* preexec_batches;
  obs::Counter* preexec_activities;
  obs::Counter* completed;
  obs::Counter* timed_out;
  obs::Counter* migrations;
  obs::Gauge* queue_depth;
  obs::Gauge* parked_starved;
  obs::Gauge* parked_suspended;
  obs::Gauge* running_jobs;
  obs::Histogram* task_cost;
};

/// What the dispatcher needs from the engine; every call acts at once.
class DispatcherHost {
 public:
  virtual ~DispatcherHost() = default;
  /// The loaded instance `instance_id`, or null.
  virtual ProcessInstance* FindInstance(const std::string& instance_id) = 0;
  /// Applies `batch` to the store; a failure has been acted on (fenced
  /// step-down scheduled, or degraded mode entered) when this returns.
  virtual Status Commit(WriteBatch* batch) = 0;
  /// Makes the commits so far durable (the barrier before a launch), with
  /// Commit's failure handling.
  virtual Status Flush() = 0;
  /// While the store is degraded nothing dispatches.
  virtual bool StoreDegraded() const = 0;
  virtual void InstanceStateWritten(ProcessInstance* inst) = 0;
  virtual void AppendHistory(const std::string& instance_id,
                             const std::string& event) = 0;
  /// A kill of attempt `fence` of `job` on `node`, retried until delivered.
  virtual void SendKill(const std::string& node, cluster::JobId job,
                        uint64_t fence) = 0;
};

/// The dispatcher of the paper's Figure 2: places ready activities on the
/// cluster and tracks them until they report. It owns the ready map and the
/// parked entries, the job table with its indices, the scheduling policy,
/// pre-execution on options.executor, and the timers of that work (pump
/// retry, lost-report watchdogs, retry backoffs). The engine creates one at
/// Startup and destroys it when the server goes down.
///
/// Dispatch order is priority descending, then enqueue order. An entry that
/// cannot be placed parks under its resource class until a capacity event
/// wakes the class; one of a suspended instance parks under the instance
/// until RESUME, so each pump scans only what can dispatch (docs/SCHEDULER.md).
class Dispatcher {
 public:
  /// Everything passed in must outlive the dispatcher.
  Dispatcher(Simulator* sim, Spaces* spaces, Navigator* navigator,
             const ActivityRegistry* registry,
             monitor::AwarenessModel* awareness, comms::Channel* channel,
             const EngineOptions& options,
             std::unique_ptr<sched::SchedulingPolicy> policy,
             obs::SpanSink* spans, DispatchLedger* ledger,
             DispatcherHost* host);
  /// Cancels every event it armed, closes the busy window, zeroes the
  /// gauges.
  ~Dispatcher();
  Dispatcher(const Dispatcher&) = delete;
  Dispatcher& operator=(const Dispatcher&) = delete;

  // The NavigatorHost calls (core/navigator.h) that act on the queue.
  void TaskReady(ProcessInstance* inst, TaskNode* node);
  void RetryDue(ProcessInstance* inst, TaskNode* node, Duration backoff);
  /// In JobId order.
  void KillJobs(ProcessInstance* inst, const TaskNode* subtree);

  /// One pass over what can dispatch: execute, place, launch. Runs nothing
  /// while the store is degraded.
  void Pump();
  /// Capacity appeared on `node`: the classes it serves may dispatch again.
  void WakeClassesForNode(const std::string& node);
  void WakeAllClasses();
  /// Re-queues the entries parked while `instance_id` was suspended.
  void WakeInstance(const std::string& instance_id);
  void DropParkedForInstance(const std::string& instance_id);
  /// Drops the instance's ready and overflow entries now (a start that
  /// failed after its navigation queued work).
  void DropQueuedForInstance(const std::string& instance_id);

  /// The fence of `job`'s outstanding attempt; nullopt when it has none.
  std::optional<uint64_t> OutstandingFence(cluster::JobId job) const;
  /// Applies a completion or failure report that passed the fence check.
  void ApplyOutcome(cluster::JobId job, bool failed, const std::string& reason);
  /// Takes, kills, notes and re-queues each job of a condemned node.
  void RequeueNodeJobs(const std::string& node);
  /// Kill-and-restart migration off saturated nodes (see EngineOptions).
  void CheckMigrations();

  /// Ends, with `outcome`, the spans of every queued entry and running job.
  void EndWorkSpans(std::string_view outcome);
  void SyncGauges();
  DispatchStats Stats() const;
  std::vector<RunningJob> RunningJobs() const;
  /// Outstanding jobs at their costs, waiting activities at the mean
  /// completed cost.
  Duration EstimateRemainingWork(const ProcessInstance& inst) const;
  std::vector<TaskRow> ListTasks(const ProcessInstance& inst) const;

 private:
  /// (-priority, enqueue sequence): the key of the ready map and the parked
  /// queues, so a parked entry re-enters the scan in dispatch order.
  using ReadyKey = std::pair<int, uint64_t>;
  /// One speculative activity execution on options.executor.
  struct PreExecState;

  struct ReadyEntry {
    std::string instance_id;
    std::string path;
    /// The execution result, once the activity ran.
    std::optional<ActivityOutput> cached;
    /// Node to avoid if any alternative exists (a lost job's node may be
    /// silently partitioned).
    std::string avoid_node;
    int priority = 0;
    uint64_t seq = 0;
    /// The attempt's span, from enqueue to its outcome (0 without spans).
    uint64_t attempt_span = 0;
    /// Input descriptors captured when the activity first executed.
    Descriptors input_desc;
    /// A pool execution, used only if the input is still the one it ran
    /// with (activities are pure).
    std::shared_ptr<PreExecState> pre_exec;

    ReadyKey key() const { return {-priority, seq}; }
  };
  using EntryMap = std::map<ReadyKey, ReadyEntry>;

  struct PendingJob {
    std::string instance_id;
    std::string path;
    ocr::Value::Map outputs;
    Duration cost;
    std::string node;
    /// Attempt-epoch fencing token: a report applies only if it echoes it.
    uint64_t fence = 0;
    EventId watchdog = kInvalidEventId;
    /// The enclosing attempt's span and the job's (0 without spans).
    uint64_t attempt_span = 0;
    uint64_t job_span = 0;
    /// The dispatch's attempt number, and the descriptors a re-queue keeps
    /// for the next attempt's lineage record.
    int attempt = 0;
    Descriptors input_desc;
    Descriptors params;
  };
  using JobMap = std::map<cluster::JobId, PendingJob>;

  /// Queues `entry` (possibly with a cached result, input descriptors and
  /// a node to avoid) as a fresh attempt of `node`.
  void EnqueueReady(ProcessInstance* inst, TaskNode* node, ReadyEntry entry);
  /// Runs the kernels of the executable ready entries as one batch on
  /// options.executor (no-op without one); wall clock only.
  void PreExecuteReady();
  void SchedulePumpRetry();
  void MarkClassWoken(const std::string& resource_class);

  /// Arms the lost-report watchdog (kInvalidEventId when disabled).
  EventId ArmJobWatchdog(cluster::JobId job_id, Duration cost);
  /// Re-queues a job taken from the table as a fresh attempt with its
  /// output cached: MarkReady, the outcome row, one commit, the enqueue.
  /// `lost` (watchdog, condemnation) steers the attempt away from the
  /// job's node and pumps at once. Nothing is queued when the commit
  /// fails: inside a commit scope that means the store is fenced and the
  /// engine is stepping down.
  void Requeue(PendingJob pending, std::string_view outcome, bool lost);
  /// Removes a job from the table and its indices, cancels its watchdog,
  /// releases its awareness slot, wakes the classes its node serves and
  /// closes its spans with `outcome`. Every removal goes through here.
  PendingJob TakeJob(JobMap::iterator it, bool failed,
                     std::string_view outcome);
  PendingJob TakeJob(cluster::JobId job_id, bool failed,
                     std::string_view outcome);
  /// Opens or closes the busy window after the job table changed.
  void UpdateBusyClock();

  void BeginAttemptSpan(ReadyEntry* entry, ProcessInstance* inst,
                        TaskNode* node);
  void EndAttemptSpan(uint64_t attempt_span, std::string_view outcome);
  /// The out-row of `pending`'s attempt.
  void PutOutcomeRow(const PendingJob& pending, std::string_view outcome,
                     bool with_outputs, WriteBatch* batch);

  Simulator* sim_;
  Spaces* spaces_;
  Navigator* navigator_;
  const ActivityRegistry* registry_;
  monitor::AwarenessModel* awareness_;
  comms::Channel* channel_;
  const EngineOptions& options_;
  std::unique_ptr<sched::SchedulingPolicy> policy_;
  obs::SpanSink* spans_;
  DispatchLedger* ledger_;
  DispatcherHost* host_;

  /// Entries the next pump scans, in dispatch order.
  EntryMap ready_;
  /// Starved entries per resource class, and the classes a capacity event
  /// re-admitted to the scan.
  std::map<std::string, EntryMap, std::less<>> parked_by_class_;
  std::set<std::string, std::less<>> woken_classes_;
  /// Entries of suspended instances, re-queued on RESUME/RESTART.
  std::map<std::string, EntryMap> parked_by_instance_;
  uint64_t next_ready_seq_ = 1;
  /// Pump re-entrancy: enqueues from navigation inside a pump go to the
  /// overflow; classes that declined this pump freeze until it ends (or
  /// capacity frees mid-pump).
  bool pumping_ = false;
  std::deque<ReadyEntry> pump_overflow_;
  std::set<std::string, std::less<>> pump_frozen_;
  EventId pump_event_ = kInvalidEventId;
  /// Pending retry backoffs, one per task: (instance id, task path).
  using RetryKey = std::pair<std::string, std::string>;
  std::map<RetryKey, EventId> retry_timers_;

  JobMap jobs_;
  /// Indices over jobs_ (JobId order inside each bucket), so the kills,
  /// estimates, task rows and the migration scan touch only their jobs.
  std::map<std::string, std::set<cluster::JobId>> jobs_by_instance_;
  std::map<std::string, std::set<cluster::JobId>> jobs_by_node_;
  /// This incarnation's fence counter; fences are writer_epoch << 20 |
  /// counter, so attempts of different incarnations never collide.
  uint64_t next_fence_seq_ = 0;
};

/// The instance's span id in `spans` (not null), re-attaching after a crash
/// to the span left open before it, or opening one: one instance keeps one
/// makespan span.
uint64_t InstanceSpanId(obs::SpanSink* spans, ProcessInstance* inst);

}  // namespace biopera::core

#endif  // BIOPERA_CORE_DISPATCHER_H_
