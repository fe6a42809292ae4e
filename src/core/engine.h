#ifndef BIOPERA_CORE_ENGINE_H_
#define BIOPERA_CORE_ENGINE_H_

#include <map>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "common/result.h"
#include "core/activity.h"
#include "core/control_plane.h"
#include "core/dispatcher.h"
#include "core/engine_options.h"
#include "core/instance.h"
#include "core/navigator.h"
#include "monitor/adaptive_monitor.h"
#include "monitor/awareness.h"
#include "obs/lineage.h"
#include "obs/rundiff.h"
#include "obs/trace.h"
#include "ocr/model.h"
#include "sim/simulator.h"
#include "store/spaces.h"

namespace biopera::core {

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

/// The BioOpera server over the persistent spaces, driving processes across
/// the simulated cluster (paper §3.2, Figure 2). Its parts: the navigator
/// (core/navigator.h) moves each instance's OCR graph forward, the
/// dispatcher (core/dispatcher.h) places and tracks the activities it
/// makes ready, and the control plane (core/control_plane.h) carries
/// reports, kills and leases between them and the PECs. The engine keeps
/// the server's lifecycle and recovery, degraded mode and fencing, the
/// controls and the provenance reads, and routes the cluster's callbacks.
///
/// Every state transition is committed to the record store *before* it
/// takes effect in memory, so Crash() + Startup() at any point resumes the
/// computation without losing completed activities — the paper's central
/// dependability property. Each engine action (entry point, cluster
/// callback, timer) runs inside one RecordStore::CommitScope, so its
/// commits reach the WAL as one record, flushed before any externally
/// visible action such as a job dispatch (docs/STORE.md).
class Engine : public cluster::ClusterListener,
               public comms::ReportHandler,
               private NavigatorHost,
               private DispatcherHost,
               private ControlPlaneHost {
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
  /// Ids of the instances whose state this engine wrote (start of a
  /// recovery included) or dropped from memory (Archive, Crash, fenced
  /// step-down) since the last call, in order, possibly repeated; the
  /// list is cleared. The sharded service reads it once per barrier to
  /// keep its live counts without polling every instance.
  std::vector<std::string> TakeStateChanges();
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
  /// ordered by (task path, attempt). Every dispatch and outcome writes
  /// its record, with or without an Observability context.
  Result<std::vector<obs::LineageRecord>> GetTaskLineage(
      const std::string& instance_id) const;
  /// The instance's full lineage export: one header line plus one line
  /// per attempt, flat JSONL (see docs/PROVENANCE.md). Byte-identical
  /// across same-seed runs.
  Result<std::string> ExportLineageJsonl(const std::string& instance_id) const;
  /// ExportLineageJsonl of every instance in memory, concatenated in id
  /// order (instances whose export fails are left out), from one scan of
  /// the provenance space: O(rows), where one call per id is
  /// O(instances x rows).
  std::string ExportAllLineageJsonl() const;
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
  ProcessInstance* FindInstance(const std::string& instance_id) override;
  const ProcessInstance* FindInstance(const std::string& instance_id) const;

  /// Estimated reference-CPU work remaining in an instance: queued/ready
  /// activities at the mean completed-activity cost plus the outstanding
  /// jobs' full costs. Part of the §3.4 awareness/monitoring view.
  Result<Duration> EstimateRemainingWork(const std::string& instance_id) const;

  /// Per-task status rows (path, state, node if running, timings) —
  /// the monitoring drill-down behind the console's TASKS command.
  using TaskRow = core::TaskRow;
  Result<std::vector<TaskRow>> ListTasks(const std::string& instance_id) const;

  /// Jobs currently dispatched: (instance, task path, node).
  using RunningJob = core::RunningJob;
  std::vector<RunningJob> GetRunningJobs() const {
    return dispatcher_ != nullptr ? dispatcher_->RunningJobs()
                                  : std::vector<RunningJob>();
  }
  /// Entries awaiting dispatch: the ready queue plus every parked entry
  /// (starved classes and suspended instances).
  size_t QueueDepth() const {
    const DispatchStats stats = GetDispatchStats();
    return stats.ready + stats.parked_starved + stats.parked_suspended;
  }

  /// Dispatcher internals for monitoring (console STATS). Counted with or
  /// without an Observability context.
  using DispatchStats = core::DispatchStats;
  DispatchStats GetDispatchStats() const {
    return dispatcher_ != nullptr ? dispatcher_->Stats()
                                  : dispatch_ledger_.Stats(sim_->Now());
  }

  // --- ClusterListener -------------------------------------------------------
  void OnJobFailed(cluster::JobId id, const std::string& node,
                   const std::string& reason) override;
  void OnNodeDown(const std::string& node) override;
  /// Also the control plane's: a suspected or condemned node heartbeated.
  void OnNodeUp(const std::string& node) override;
  void OnConfigChanged(const cluster::NodeConfig& config) override;
  void OnLinkChanged(const std::string& node) override;

  /// A PEC's external-load sample (a kLoad report). Ignored while adaptive
  /// monitors poll the nodes instead.
  void OnLoadReport(const std::string& node, double load) override;

  // --- comms::ReportHandler --------------------------------------------------
  /// Report-plane entry point: every heartbeat / completion / failure /
  /// load message from the PECs arrives here (possibly dropped, delayed,
  /// duplicated or reordered by a FaultChannel). Completion and failure
  /// reports are fenced: a report whose (job, fence) does not match the
  /// engine's outstanding attempt is a duplicate or a zombie from a
  /// condemned attempt and is dropped idempotently.
  void HandleReport(const comms::Message& msg) override {
    if (up_) control_plane_.HandleReport(msg);
  }

  /// Lease-detector state of a node (legacy mode reports kUp for known
  /// nodes). See docs/COMMS.md.
  using LeaseState = core::LeaseState;
  LeaseState GetLeaseState(const std::string& node) const;

  /// The control-plane channel in use (the cluster's, or the one from
  /// EngineOptions).
  comms::Channel* channel() const { return channel_; }

 private:
  struct Metrics;  // the engine's own metric handles

  // -- NavigatorHost: navigation's queue, timer and kill effects go to the
  // dispatcher --
  void TaskReady(ProcessInstance* inst, TaskNode* node) override {
    dispatcher_->TaskReady(inst, node);
  }
  void RetryDue(ProcessInstance* inst, TaskNode* node,
                Duration backoff) override {
    dispatcher_->RetryDue(inst, node, backoff);
  }
  void KillJobs(ProcessInstance* inst, const TaskNode* subtree) override {
    dispatcher_->KillJobs(inst, subtree);
  }
  void InstanceStateWritten(ProcessInstance* inst) override;
  void AppendHistory(const std::string& instance_id,
                     const std::string& event) override;
  void TaskFailed(ProcessInstance* inst, TaskNode* node) override;

  // -- DispatcherHost (and FindInstance above) --
  Status Commit(WriteBatch* batch) override;
  Status Flush() override {
    Status st = spaces_.store()->Flush();
    if (!st.ok()) OnStoreFlushFailure(st);
    return st;
  }
  bool StoreDegraded() const override { return degraded_; }
  void SendKill(const std::string& node, cluster::JobId job,
                uint64_t fence) override {
    control_plane_.SendKill(node, job, fence);
  }

  // -- ControlPlaneHost (and OnLoadReport, OnNodeUp above) --
  std::optional<uint64_t> OutstandingFence(cluster::JobId job) override {
    return dispatcher_->OutstandingFence(job);
  }
  void JobReported(cluster::JobId job, bool failed,
                   const std::string& reason) override {
    dispatcher_->ApplyOutcome(job, failed, reason);
  }
  void NodeSuspected(const std::string& node) override {
    awareness_.NodeDown(node, sim_->Now());
  }
  void NodeCondemned(const std::string& node) override {
    monitors_.erase(node);
    dispatcher_->RequeueNodeJobs(node);
  }

  /// Header line plus one line per attempt.
  Result<std::string> LineageJsonl(
      const std::string& instance_id,
      const std::vector<obs::LineageRecord>& records) const;
  /// Rebuilds one instance from its records (key order, "<id>/" prefix
  /// stripped, as Spaces::ScanInstances groups them), then re-queues
  /// interrupted work. The commit that re-queues it writes only the
  /// instance's own rows, after the rebuild has read them, so the views of
  /// the instances not yet recovered stay valid.
  Status RecoverInstance(std::string_view instance_id,
                         std::span<const RecordStore::RowView> rows);

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
  /// Startup's fallible part: registers the topology, renews the leases,
  /// restores the instance-id counter and recovers every instance.
  Status Recover();
  /// The teardown of Crash(), a failed Startup() and TearDownFenced():
  /// drops the leases (ending suspicion spans with `outcome`), the
  /// dispatcher, every instance (reporting its id as a state change),
  /// monitor and awareness entry, and degraded mode.
  void DropVolatileState(std::string_view outcome);
  /// Every instance state write goes through here, so the id lands in
  /// the list TakeStateChanges() drains.
  void SetInstanceState(ProcessInstance* inst, InstanceState state);
  /// Recomputes config_version_ from the config space's node rows.
  void RefreshConfigVersion();

  Simulator* sim_;
  cluster::ClusterSim* cluster_;
  Spaces spaces_;
  ActivityRegistry* registry_;
  EngineOptions options_;
  Rng rng_;
  Navigator navigator_;
  /// EngineOptions::channel, else the cluster's.
  comms::Channel* channel_;
  obs::SpanSink* spans_;  // null without an Observability context
  /// Every metric of the engine and its parts, without a context.
  obs::Registry own_metrics_;
  std::unique_ptr<const Metrics> metrics_;

  bool up_ = false;
  bool degraded_ = false;
  Duration degraded_backoff_;
  EventId degraded_event_ = kInvalidEventId;
  EventId step_down_event_ = kInvalidEventId;  // the fenced step-down
  monitor::AwarenessModel awareness_;
  std::map<std::string, std::unique_ptr<monitor::AdaptiveMonitor>> monitors_;

  std::map<std::string, std::unique_ptr<ProcessInstance>> instances_;
  /// Instance ids whose state was written or dropped since the last
  /// TakeStateChanges().
  std::vector<std::string> state_changes_;
  uint64_t next_instance_seq_ = 1;

  // The open overlay spans the engine tracks: the server-down window
  // between Crash() and the next Startup(), and the store-degraded window.
  // The critical-path analyzer uses these windows to classify waiting
  // time as recovery / store stall.
  uint64_t server_down_span_ = 0;
  uint64_t degraded_span_ = 0;
  /// See config_version(). Empty until Startup.
  std::string config_version_;

  DispatchLedger dispatch_ledger_;
  ControlPlane control_plane_;
  /// Exists while the server is up (from Startup to the teardown).
  std::unique_ptr<Dispatcher> dispatcher_;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_ENGINE_H_
