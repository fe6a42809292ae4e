#include "core/engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "core/provenance.h"
#include "obs/json.h"
#include "store/codec.h"

namespace biopera::core {

using ocr::ProcessDef;
using ocr::Value;

namespace {

/// Degraded-mode retry backoff (store IOError survival): the first retry
/// of the failed commit fires after the initial delay, doubling up to the
/// maximum until the disk accepts writes.
constexpr Duration kDegradedRetryInitial = Duration::Seconds(1);
constexpr Duration kDegradedRetryMax = Duration::Minutes(5);

/// A node's hardware characteristics as its configuration-space row.
std::string NodeConfigRow(const cluster::NodeConfig& node) {
  Value::Map cfg;
  cfg["cpus"] = Value(static_cast<int64_t>(node.num_cpus));
  cfg["speed"] = Value(node.speed);
  cfg["os"] = Value(node.os);
  cfg["classes"] = Value(node.resource_classes);
  return Value(std::move(cfg)).ToText();
}

/// The registry every metric of the engine and its parts lives in.
obs::Registry* MetricRegistry(const EngineOptions& options,
                              obs::Registry* own) {
  return options.observability != nullptr ? &options.observability->metrics
                                          : own;
}

}  // namespace

/// The engine's own metric handles, resolved once at construction.
struct Engine::Metrics {
  explicit Metrics(obs::Registry* registry)
      : failed(registry->GetCounter("engine_tasks_failed_total")),
        recovered(registry->GetCounter("engine_recovered_tasks_total")),
        degraded_total(registry->GetCounter("engine_store_degraded_total")),
        degraded_retries(
            registry->GetCounter("engine_store_degraded_retries_total")),
        degraded(registry->GetGauge("engine_store_degraded")) {}
  obs::Counter* failed;
  obs::Counter* recovered;
  obs::Counter* degraded_total;
  obs::Counter* degraded_retries;
  obs::Gauge* degraded;
};

// ---------------------------------------------------------------------------
// Construction / lifecycle
// ---------------------------------------------------------------------------

Engine::Engine(Simulator* sim, cluster::ClusterSim* cluster,
               RecordStore* store, ActivityRegistry* registry,
               const EngineOptions& options)
    : sim_(sim),
      cluster_(cluster),
      spaces_(store),
      registry_(registry),
      options_(options),
      rng_(options.seed),
      navigator_(sim, &spaces_, registry, this),
      // All engine<->PEC traffic goes through the comms seam. Without an
      // explicit channel the engine shares the cluster's (by default its
      // own plain one: synchronous and lossless), link state included.
      channel_(options.channel != nullptr ? options.channel
                                          : cluster->channel()),
      spans_(options.observability != nullptr ? &options.observability->spans
                                              : nullptr),
      metrics_(std::make_unique<Metrics>(
          MetricRegistry(options, &own_metrics_))),
      dispatch_ledger_(MetricRegistry(options, &own_metrics_)),
      control_plane_(sim, channel_, options_, spans_,
                     MetricRegistry(options, &own_metrics_), this) {
  cluster_->SetListener(this);
  channel_->SetReportHandler(this);
  cluster_->AttachChannel(channel_);
  if (options_.heartbeat_interval > Duration::Zero()) {
    // Lease mode: failure detection runs on heartbeats alone — the
    // cluster stops telling the listener about crashes/repairs directly.
    cluster_->EnableHeartbeats(options_.heartbeat_interval);
  }
  RecordStore::CheckpointPolicy checkpoint_policy;
  checkpoint_policy.wal_bytes = options_.checkpoint_wal_bytes;
  checkpoint_policy.every_commits = options_.checkpoint_every_commits;
  store->SetCheckpointPolicy(checkpoint_policy);
  if (obs::Observability* obs = options_.observability; obs != nullptr) {
    obs->SetClock(sim_);
    // One EngineOptions field instruments the whole stack.
    cluster_->SetObservability(obs);
    store->SetObservability(obs);
  }
}

Engine::~Engine() {
  // Another engine (a promoted backup) may have registered after us.
  if (cluster_->listener() == this) cluster_->SetListener(nullptr);
  if (channel_->report_handler() == this) channel_->SetReportHandler(nullptr);
  cluster_->DetachChannel(channel_);
  spaces_.store()->ClearFlushFailureHandler(this);
  // The dispatcher and the control plane cancel their own events.
  sim_->Cancel(degraded_event_);
  sim_->Cancel(step_down_event_);
}

Status Engine::Startup() {
  if (up_) return Status::FailedPrecondition("server already up");
  BIOPERA_ASSIGN_OR_RETURN(std::unique_ptr<sched::SchedulingPolicy> policy,
                           sched::MakePolicy(options_.policy, &rng_));
  dispatcher_ = std::make_unique<Dispatcher>(
      sim_, &spaces_, &navigator_, registry_, &awareness_, channel_, options_,
      std::move(policy), spans_, &dispatch_ledger_,
      static_cast<DispatcherHost*>(this));
  up_ = true;
  // Claim write ownership of the store: any engine still holding an older
  // epoch (a partitioned primary after a backup takeover) is fenced off.
  spaces_.set_epoch(spaces_.store()->AcquireWriterEpoch());
  spaces_.store()->SetFlushFailureHandler(
      this, [this](const Status& cause) { OnStoreFlushFailure(cause); });
  // Startup writes many config records and recovery markers; group them
  // into one WAL record.
  RecordStore::CommitScope commit_group(spaces_.store());
  if (Status st = Recover(); !st.ok()) {
    // All or nothing: a server that cannot recover every instance stays
    // down, with nothing in memory, and a later Startup starts over. The
    // server-down window Crash() opened stays open.
    dispatcher_->EndWorkSpans("startup_failed");
    up_ = false;
    DropVolatileState("startup_failed");
    return st;
  }
  if (spans_ != nullptr) {
    // Close the server-down window opened at Crash(). A successor engine
    // sharing the Observability context (backup takeover, crash-point
    // harness) re-attaches the window its predecessor left open.
    if (server_down_span_ == 0) {
      server_down_span_ = spans_->FindOpen(obs::SpanKind::kServerDown, "");
    }
    spans_->End(server_down_span_, "recovered");
    server_down_span_ = 0;
  }
  dispatcher_->Pump();
  dispatcher_->SyncGauges();
  return Status::OK();
}

Status Engine::Recover() {
  // Discover the cluster topology (the PECs re-register with the server).
  for (const cluster::NodeConfig& node : cluster_->Nodes()) {
    awareness_.RegisterNode(node, sim_->Now());
    if (!cluster_->IsUp(node.name)) {
      awareness_.NodeDown(node.name, sim_->Now());
    } else {
      // Seed the awareness with the current true load; afterwards the
      // adaptive monitor (or raw pushes) keeps it fresh.
      awareness_.UpdateLoad(node.name,
                            cluster_->ExternalLoad(node.name) /
                                std::max(1, node.num_cpus),
                            sim_->Now());
      if (options_.adaptive_monitoring) OnNodeUp(node.name);
    }
    BIOPERA_RETURN_IF_ERROR(
        spaces_.PutConfig("node/" + node.name, NodeConfigRow(node)));
  }
  RefreshConfigVersion();

  control_plane_.RenewLeases(cluster_->Nodes());

  // Restore the instance-id counter.
  Result<std::string> seq = spaces_.GetConfig("next_instance_seq");
  if (seq.ok()) {
    long long v = 1;
    if (ParseInt64(*seq, &v)) next_instance_seq_ = static_cast<uint64_t>(v);
  }

  // Recover every persisted instance from one ordered view of the
  // instance space. Recovering an instance writes only its own rows, after
  // its rebuild read them, so the views of the rest stay valid.
  const Spaces::InstanceScan scan = spaces_.ScanInstances();
  for (const Spaces::InstanceRows& group : scan.instances) {
    Status st = RecoverInstance(group.id, group.rows);
    if (!st.ok()) {
      BIOPERA_LOG(kError) << "recovery of " << group.id << " failed: "
                          << st.ToString();
      return st;
    }
  }
  return Status::OK();
}

void Engine::Crash() {
  if (spans_ != nullptr) {
    // Every queued attempt and running job dies with the server; instance
    // spans stay open — the server-down window explains the causal gap
    // until recovery re-queues the work.
    if (dispatcher_ != nullptr) dispatcher_->EndWorkSpans("killed");
    spans_->End(degraded_span_, "server_crashed");
    degraded_span_ = 0;
    server_down_span_ = spans_->Begin(obs::SpanKind::kServerDown, "server down");
  }
  up_ = false;
  // Ongoing jobs are stopped when the server dies (paper §5.4, event 4).
  // This is out-of-band teardown, not a control-plane message — the
  // simulated world stops the jobs with the server.
  cluster_->KillAllJobs();
  control_plane_.CancelKills();
  DropVolatileState("server_crashed");
}

void Engine::DropVolatileState(std::string_view outcome) {
  control_plane_.DropLeases(outcome);
  dispatcher_.reset();
  monitors_.clear();
  for (const auto& [id, inst] : instances_) state_changes_.push_back(id);
  instances_.clear();
  awareness_ = monitor::AwarenessModel();
  degraded_ = false;
  metrics_->degraded->Set(0);
  sim_->Cancel(degraded_event_);
  degraded_event_ = kInvalidEventId;
  spaces_.store()->ClearFlushFailureHandler(this);
}

// ---------------------------------------------------------------------------
// Degraded mode & fencing
// ---------------------------------------------------------------------------

void Engine::OnStoreFlushFailure(const Status& cause) {
  if (MaybeHandleFenced(cause)) return;
  if (cause.IsIOError()) EnterDegraded(cause);
}

void Engine::EnterDegraded(const Status& cause) {
  if (!up_ || degraded_) return;
  degraded_ = true;
  degraded_backoff_ = kDegradedRetryInitial;
  BIOPERA_LOG(kWarning) << "store degraded, dispatch suspended: "
                        << cause.ToString();
  metrics_->degraded->Set(1);
  metrics_->degraded_total->Increment();
  if (spans_ != nullptr && degraded_span_ == 0) {
    degraded_span_ = spans_->Begin(obs::SpanKind::kStoreDegraded, "store degraded",
                                   0, 0, "", "", "",
                                   {{"reason", cause.ToString()}});
  }
  ScheduleDegradedRetry();
}

void Engine::ScheduleDegradedRetry() {
  degraded_event_ = sim_->ScheduleDaemon(degraded_backoff_,
                                         [this] { RetryDegradedCommit(); });
}

void Engine::RetryDegradedCommit() {
  degraded_event_ = kInvalidEventId;
  metrics_->degraded_retries->Increment();
  RecordStore* store = spaces_.store();
  // First land the retained commit group, then prove the disk accepts
  // fresh writes with a probe record (a direct WAL append).
  Status st = store->Flush();
  if (st.ok()) {
    st = spaces_.PutConfig("store/last_recovery_probe",
                           StrFormat("%.0f", sim_->Now().SinceEpoch().ToSeconds()));
  }
  if (MaybeHandleFenced(st)) return;
  if (!st.ok()) {
    degraded_backoff_ = std::min(degraded_backoff_ * 2, kDegradedRetryMax);
    ScheduleDegradedRetry();
    return;
  }
  degraded_ = false;
  metrics_->degraded->Set(0);
  if (spans_ != nullptr) {
    spans_->End(degraded_span_, "recovered");
    degraded_span_ = 0;
  }
  BIOPERA_LOG(kInfo) << "store writes succeed again; resuming dispatch";
  // Entries parked while degraded never saw a capacity event; re-probe all.
  dispatcher_->WakeAllClasses();
  dispatcher_->Pump();
}

bool Engine::MaybeHandleFenced(const Status& st) {
  if (!RecordStore::IsFenced(st)) return false;
  if (!up_ || step_down_event_ != kInvalidEventId) return true;
  // Step down outside the failing call stack: callers may still hold
  // pointers into the state TearDownFenced clears.
  step_down_event_ = sim_->ScheduleDaemon(Duration::Seconds(0), [this] {
    step_down_event_ = kInvalidEventId;
    TearDownFenced();
  });
  return true;
}

void Engine::TearDownFenced() {
  if (!up_) return;
  BIOPERA_LOG(kWarning) << "writer epoch " << spaces_.epoch()
                        << " fenced: another server took over; stepping down";
  if (spans_ != nullptr) {
    // A zero-length server-down window: this engine never restarts; the
    // one that fenced it carries the run on.
    spans_->EmitInstant(
        obs::SpanKind::kServerDown, "server fenced", /*parent=*/0, "", "", "",
        {{"stale_epoch", StrFormat("%llu", static_cast<unsigned long long>(
                                               spaces_.epoch()))}},
        "fenced");
  }
  up_ = false;
  // Unlike Crash(), do NOT kill cluster jobs: the engine that fenced us
  // owns them now (it registered as the cluster listener when it booted).
  DropVolatileState("fenced");
}

Result<std::string> Engine::ScrubStore() {
  if (!up_) return Status::Unavailable("server is down");
  BIOPERA_ASSIGN_OR_RETURN(RecordStore::ScrubReport report,
                           spaces_.store()->Scrub());
  return report.ToText();
}

Status Engine::RegisterTemplate(const ProcessDef& def) {
  BIOPERA_RETURN_IF_ERROR(ocr::ValidateProcess(def));
  RecordStore::CommitScope commit_group(spaces_.store());
  Status st = navigator_.StoreTemplate(def);
  if (!st.ok()) MaybeHandleFenced(st);
  return st;
}

std::vector<std::string> Engine::ListTemplates() const {
  return spaces_.ListTemplates();
}

// ---------------------------------------------------------------------------
// Templates and instance control
// ---------------------------------------------------------------------------

Result<std::string> Engine::StartProcess(const std::string& template_name,
                                         const Value::Map& args,
                                         int priority) {
  if (!up_) return Status::Unavailable("server is down");
  RecordStore::CommitScope commit_group(spaces_.store());
  BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* def,
                           navigator_.ResolveTemplate(template_name));
  std::string id = StrFormat("%s-%06llu", template_name.c_str(),
                             static_cast<unsigned long long>(
                                 next_instance_seq_++));
  BIOPERA_RETURN_IF_ERROR(
      spaces_.PutConfig("next_instance_seq",
                        StrFormat("%llu", static_cast<unsigned long long>(
                                              next_instance_seq_))));

  std::unique_ptr<ProcessInstance>& inst = instances_[id];
  inst = navigator_.NewInstance(id, def, args, priority);
  ProcessInstance* raw = inst.get();
  if (spans_ != nullptr) {
    raw->set_span_id(spans_->Begin(
        obs::SpanKind::kInstance, id, /*parent=*/0, /*link=*/0,
        /*instance=*/id, /*task=*/"", /*node=*/"",
        {{"template", template_name},
         {"priority", StrFormat("%d", priority)}}));
  }

  WriteBatch batch;
  Status st = navigator_.Start(raw, &batch);
  if (st.ok()) st = Commit(&batch);
  if (!st.ok()) {
    // Nothing of the instance was committed, so nothing of it may stay in
    // memory: a restart would not bring it back.
    dispatcher_->DropQueuedForInstance(id);
    if (spans_ != nullptr) spans_->End(raw->span_id(), "failed");
    instances_.erase(id);
    return st;
  }
  AppendHistory(id, "started template=" + template_name);
  dispatcher_->Pump();
  return id;
}

Status Engine::Suspend(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->state() != InstanceState::kRunning) {
    return Status::FailedPrecondition("instance not running");
  }
  SetInstanceState(inst, InstanceState::kSuspended);
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  navigator_.PersistHeader(inst, &batch);
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "suspended");
  return Status::OK();
}

Status Engine::Resume(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->state() != InstanceState::kSuspended) {
    return Status::FailedPrecondition("instance not suspended");
  }
  SetInstanceState(inst, InstanceState::kRunning);
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  navigator_.PersistHeader(inst, &batch);
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "resumed");
  dispatcher_->WakeInstance(instance_id);
  dispatcher_->Pump();
  return Status::OK();
}

Status Engine::Abort(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  dispatcher_->KillJobs(inst, /*subtree=*/nullptr);
  dispatcher_->DropParkedForInstance(instance_id);
  SetInstanceState(inst, InstanceState::kAborted);
  if (spans_ != nullptr) {
    spans_->End(inst->span_id(), "aborted");
    inst->set_span_id(0);
  }
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  navigator_.PersistHeader(inst, &batch);
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "aborted");
  dispatcher_->SyncGauges();
  return Status::OK();
}

Status Engine::Restart(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  SetInstanceState(inst, InstanceState::kRunning);
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  // Re-queue permanently failed and stuck work; completed activities keep
  // their checkpointed results. Outstanding jobs of this instance are
  // killed and re-scheduled (the paper's event 10: a restart immediately
  // re-schedules TEUs that never reported).
  dispatcher_->KillJobs(inst, /*subtree=*/nullptr);
  // Entries parked while the instance was suspended are dispatchable again.
  dispatcher_->WakeInstance(instance_id);
  BIOPERA_RETURN_IF_ERROR(navigator_.Restart(inst, &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "restarted");
  dispatcher_->Pump();
  return Status::OK();
}

Status Engine::Invalidate(const std::string& instance_id,
                          const std::string& task_name) {
  if (!up_) return Status::Unavailable("server is down");
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->state() == InstanceState::kAborted) {
    return Status::FailedPrecondition("instance aborted");
  }
  if (inst->root()->FindChild(task_name) == nullptr) {
    return Status::NotFound("no top-level task " + task_name);
  }
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  BIOPERA_RETURN_IF_ERROR(navigator_.Invalidate(inst, task_name, &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  dispatcher_->Pump();
  return Status::OK();
}

Status Engine::Archive(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->state() == InstanceState::kRunning ||
      inst->state() == InstanceState::kSuspended) {
    return Status::FailedPrecondition(
        "instance still active; abort or let it finish first");
  }
  RecordStore::CommitScope commit_group(spaces_.store());
  BIOPERA_RETURN_IF_ERROR(spaces_.DeleteInstance(instance_id));
  AppendHistory(instance_id, "archived");
  instances_.erase(instance_id);
  state_changes_.push_back(instance_id);
  dispatcher_->DropParkedForInstance(instance_id);
  return Status::OK();
}

Status Engine::RaiseEvent(const std::string& instance_id,
                          const std::string& event) {
  if (!up_) return Status::Unavailable("server is down");
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->raised_events().contains(event)) return Status::OK();
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  BIOPERA_RETURN_IF_ERROR(navigator_.RaiseEvent(inst, event, &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  dispatcher_->Pump();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------------

ProcessInstance* Engine::FindInstance(const std::string& instance_id) {
  auto it = instances_.find(instance_id);
  return it == instances_.end() ? nullptr : it->second.get();
}

const ProcessInstance* Engine::FindInstance(
    const std::string& instance_id) const {
  auto it = instances_.find(instance_id);
  return it == instances_.end() ? nullptr : it->second.get();
}

Result<InstanceSummary> Engine::Summary(const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  InstanceSummary s;
  s.id = instance_id;
  s.template_name = inst->def().name;
  s.state = inst->state();
  s.stats = inst->stats();
  // For in-flight instances report wall time so far.
  if (s.stats.finished < s.stats.started) s.stats.finished = sim_->Now();
  s.tasks_total = inst->NumNodes();
  s.tasks_done = inst->CountInState(TaskState::kDone);
  s.tasks_running = inst->CountInState(TaskState::kRunning);
  s.tasks_ready = inst->CountInState(TaskState::kReady);
  s.tasks_failed = inst->CountInState(TaskState::kFailed);
  return s;
}

std::vector<InstanceSummary> Engine::ListInstances() const {
  std::vector<InstanceSummary> out;
  for (const auto& [id, inst] : instances_) {
    Result<InstanceSummary> s = Summary(id);
    if (s.ok()) out.push_back(*s);
  }
  return out;
}

Result<InstanceState> Engine::GetInstanceState(
    const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  return inst->state();
}

std::vector<std::string> Engine::TakeStateChanges() {
  return std::exchange(state_changes_, {});
}

void Engine::SetInstanceState(ProcessInstance* inst, InstanceState state) {
  inst->set_state(state);
  InstanceStateWritten(inst);
}

Result<Value> Engine::GetWhiteboardValue(const std::string& instance_id,
                                         const std::string& var) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  auto it = inst->whiteboard().find(var);
  if (it == inst->whiteboard().end()) {
    return Status::NotFound("no whiteboard variable " + var);
  }
  return it->second;
}

Result<std::string> Engine::GetLineage(const std::string& instance_id,
                                       const std::string& var) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  auto it = inst->lineage().find(var);
  if (it == inst->lineage().end()) {
    return Status::NotFound("no lineage for " + var);
  }
  return it->second;
}

std::vector<std::string> Engine::GetHistory(
    const std::string& instance_id) const {
  return spaces_.History(instance_id);
}

Engine::MonitoringStats Engine::GetMonitoringStats() const {
  MonitoringStats stats;
  for (const auto& [node, mon] : monitors_) {
    stats.samples_taken += mon->samples_taken();
    stats.reports_sent += mon->reports_sent();
  }
  return stats;
}

Result<Duration> Engine::EstimateRemainingWork(
    const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  return dispatcher_->EstimateRemainingWork(*inst);
}

Result<std::vector<Engine::TaskRow>> Engine::ListTasks(
    const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  return dispatcher_->ListTasks(*inst);
}

// ---------------------------------------------------------------------------
// Hosts of the navigator, the dispatcher and the control plane
// ---------------------------------------------------------------------------

void Engine::InstanceStateWritten(ProcessInstance* inst) {
  state_changes_.push_back(inst->id());
  // The instance span closes only on success; a kFailed instance may
  // still be RESTARTed, and its makespan should cover that recovery.
  if (spans_ != nullptr && inst->state() == InstanceState::kDone) {
    spans_->End(inst->span_id(), "completed");
    inst->set_span_id(0);
  }
}

void Engine::TaskFailed(ProcessInstance* /*inst*/, TaskNode* /*node*/) {
  metrics_->failed->Increment();
}

// ---------------------------------------------------------------------------
// Cluster events
// ---------------------------------------------------------------------------

void Engine::OnJobFailed(cluster::JobId id, const std::string& /*node*/,
                         const std::string& reason) {
  if (up_) dispatcher_->ApplyOutcome(id, /*failed=*/true, reason);
}

void Engine::OnNodeDown(const std::string& node) {
  if (!up_) return;
  awareness_.NodeDown(node, sim_->Now());
  monitors_.erase(node);
  // Individual job failures arrive as separate OnJobFailed callbacks.
}

void Engine::OnNodeUp(const std::string& node) {
  if (!up_) return;
  awareness_.NodeUp(node, sim_->Now());
  dispatcher_->WakeClassesForNode(node);
  if (options_.adaptive_monitoring && !monitors_.contains(node)) {
    auto probe = [this, node]() {
      return cluster_->ExternalLoadFraction(node);
    };
    auto report = [this, node](double load) {
      awareness_.UpdateLoad(node, load, sim_->Now());
      dispatcher_->WakeClassesForNode(node);
      dispatcher_->CheckMigrations();
      dispatcher_->Pump();
    };
    auto mon = std::make_unique<monitor::AdaptiveMonitor>(
        sim_, monitor::AdaptiveMonitorOptions{}, probe, report);
    if (options_.observability != nullptr) {
      mon->SetMetrics(&options_.observability->metrics, node);
    }
    mon->Start();
    monitors_[node] = std::move(mon);
  }
  dispatcher_->Pump();
}

void Engine::OnLoadReport(const std::string& node, double load) {
  if (!up_) return;
  if (options_.adaptive_monitoring) return;  // monitors poll instead
  awareness_.UpdateLoad(node, load, sim_->Now());
  dispatcher_->WakeClassesForNode(node);
  dispatcher_->CheckMigrations();
  dispatcher_->Pump();
}

void Engine::OnConfigChanged(const cluster::NodeConfig& config) {
  if (!up_) return;
  awareness_.UpdateConfig(config);
  // Served classes or CPU counts may have changed in any direction.
  dispatcher_->WakeAllClasses();
  RecordStore::CommitScope commit_group(spaces_.store());
  Status st = spaces_.PutConfig("node/" + config.name, NodeConfigRow(config));
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "config update failed: " << st.ToString();
  }
  RefreshConfigVersion();
  dispatcher_->Pump();
}

void Engine::OnLinkChanged(const std::string& node) {
  if (!up_) return;
  if (!channel_->CommandLinkUp(node)) {
    // Command plane lost: stop placing work there. Jobs already on the
    // node keep running — their reports still arrive while the report
    // link is up, and the watchdog/lease machinery covers the rest.
    awareness_.NodeDown(node, sim_->Now());
    return;
  }
  control_plane_.FlushKills(node);
  // Command plane (re)established. Restore placement eligibility unless
  // the lease detector disagrees (suspected/condemned nodes rejoin via
  // heartbeats only) or the node itself is dead.
  if (GetLeaseState(node) != LeaseState::kUp) return;
  if (!cluster_->IsUp(node)) return;
  awareness_.NodeUp(node, sim_->Now());
  dispatcher_->WakeClassesForNode(node);
  dispatcher_->Pump();
}

Engine::LeaseState Engine::GetLeaseState(const std::string& node) const {
  // Without leases detection is instantaneous, so known nodes are kUp.
  return control_plane_.GetLeaseState(node).value_or(
      cluster_->GetNode(node).ok() ? LeaseState::kUp : LeaseState::kUnknown);
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

Status Engine::Commit(WriteBatch* batch) {
  if (batch->empty()) return Status::OK();
  // Checkpoint cadence is the store's job (CheckpointPolicy, forwarded in
  // the constructor), so a commit is just an apply.
  Status st = spaces_.Apply(*batch);
  if (!st.ok()) {
    OnStoreFlushFailure(st);
    return st;
  }
  batch->Clear();
  return Status::OK();
}

void Engine::AppendHistory(const std::string& instance_id,
                           const std::string& event) {
  std::string line =
      StrFormat("[%s] %s", sim_->Now().ToString().c_str(), event.c_str());
  Status st = spaces_.AppendHistory(instance_id, line);
  if (!st.ok() && !MaybeHandleFenced(st)) {
    BIOPERA_LOG(kWarning) << "history append failed: " << st.ToString();
  }
}

// ---------------------------------------------------------------------------
// Provenance / lineage
// ---------------------------------------------------------------------------

void Engine::RefreshConfigVersion() {
  // Digest only the node rows: bookkeeping keys (next_instance_seq,
  // degraded-probe writes) must not look like a configuration change.
  std::string blob;
  for (const auto& [key, value] : spaces_.ScanConfig()) {
    if (key.rfind("node/", 0) != 0) continue;
    blob += key;
    blob.push_back('=');
    blob += value;
    blob.push_back('\n');
  }
  config_version_ = StrFormat(
      "fnv64:%016llx", static_cast<unsigned long long>(obs::Fnv1a64(blob)));
}

Result<std::vector<obs::LineageRecord>> Engine::GetTaskLineage(
    const std::string& instance_id) const {
  if (FindInstance(instance_id) == nullptr &&
      navigator_.ReadHeader(instance_id).status().IsNotFound()) {
    return Status::NotFound("no instance " + instance_id);
  }
  return LineageFromRows(instance_id, spaces_.ScanProvenance(instance_id));
}

Result<std::string> Engine::ExportLineageJsonl(
    const std::string& instance_id) const {
  BIOPERA_ASSIGN_OR_RETURN(std::vector<obs::LineageRecord> records,
                           GetTaskLineage(instance_id));
  return LineageJsonl(instance_id, records);
}

std::string Engine::ExportAllLineageJsonl() const {
  // One ordered pass over the provenance space, split by id. Key order is
  // not id order ("a-b/" sorts before "a/"), so the groups are looked up
  // by id while the export walks instances_ in id order.
  const Spaces::InstanceScan provenance = spaces_.ScanProvenanceByInstance();
  std::unordered_map<std::string_view, std::span<const RecordStore::RowView>>
      rows_by_id;
  for (const Spaces::InstanceRows& group : provenance.instances) {
    rows_by_id.emplace(group.id, group.rows);
  }
  std::string out;
  for (const auto& [id, inst] : instances_) {
    auto it = rows_by_id.find(id);
    Result<std::vector<obs::LineageRecord>> records = LineageFromRows(
        id, it == rows_by_id.end() ? std::span<const RecordStore::RowView>()
                                   : it->second);
    if (!records.ok()) continue;
    Result<std::string> jsonl = LineageJsonl(id, *records);
    if (jsonl.ok()) out += *jsonl;
  }
  return out;
}

Result<std::string> Engine::LineageJsonl(
    const std::string& instance_id,
    const std::vector<obs::LineageRecord>& records) const {
  obs::LineageHeader header;
  header.instance = instance_id;
  header.seed = options_.seed;
  header.config_version = config_version_;
  if (const ProcessInstance* inst = FindInstance(instance_id);
      inst != nullptr) {
    header.template_name = inst->def().name;
    header.state = InstanceStateName(inst->state());
  } else if (Result<PersistedHeader> persisted =
                 navigator_.ReadHeader(instance_id);
             !persisted.status().IsNotFound()) {
    // Recovered-but-not-loaded (engine down) or foreign instance: read
    // the persisted header record directly.
    BIOPERA_RETURN_IF_ERROR(persisted.status());
    header.template_name = std::move(persisted->template_name);
    header.state = std::move(persisted->state);
  }
  return obs::LineageExportJsonl(header, records);
}

Result<obs::RunLineage> Engine::BuildRunLineage(const std::string& instance_id,
                                                std::string label) const {
  obs::RunLineage run;
  run.label = std::move(label);
  BIOPERA_ASSIGN_OR_RETURN(run.records, GetTaskLineage(instance_id));
  run.header.instance = instance_id;
  run.header.seed = options_.seed;
  run.header.config_version = config_version_;
  if (const ProcessInstance* inst = FindInstance(instance_id);
      inst != nullptr) {
    run.header.template_name = inst->def().name;
    run.header.state = InstanceStateName(inst->state());
  }
  if (spans_ != nullptr) {
    // The run's environment schedule, from the span sink's overlay
    // windows (same classification the file-based differ reads from a
    // span export).
    spans_->ForEach([&run](const obs::Span& span) {
      if (span.kind != obs::SpanKind::kNodeOutage &&
          span.kind != obs::SpanKind::kServerDown &&
          span.kind != obs::SpanKind::kStoreDegraded) {
        return;
      }
      obs::OutageWindow window;
      window.kind = std::string(obs::SpanKindName(span.kind));
      window.node = span.node;
      window.start_us = span.start.micros();
      window.end_us = span.open ? -1 : span.end.micros();
      run.outages.push_back(std::move(window));
    });
  }
  return run;
}

// ---------------------------------------------------------------------------
// Recovery
// ---------------------------------------------------------------------------

Status Engine::RecoverInstance(std::string_view id,
                               std::span<const RecordStore::RowView> rows) {
  BIOPERA_ASSIGN_OR_RETURN(std::unique_ptr<ProcessInstance> inst,
                           navigator_.Rebuild(id, rows));
  ProcessInstance* raw = inst.get();
  const std::string& instance_id = raw->id();
  instances_[instance_id] = std::move(inst);

  // Replay span: parented to the (re-attached) instance span so the causal
  // chain instance -> recovery -> re-queued attempts survives the crash.
  // Terminal instances need no live span.
  uint64_t recovery_span = 0;
  if (spans_ != nullptr && raw->state() != InstanceState::kDone &&
      raw->state() != InstanceState::kAborted) {
    recovery_span =
        spans_->Begin(obs::SpanKind::kRecovery, "recover",
                      InstanceSpanId(spans_, raw),
                      /*link=*/0, instance_id);
  }

  WriteBatch batch;
  size_t requeued = navigator_.RequeueInterrupted(raw, &batch);
  if (Status st = Commit(&batch); !st.ok()) {
    if (recovery_span != 0) spans_->End(recovery_span, "failed");
    return st;
  }
  if (raw->state() == InstanceState::kRunning) {
    AppendHistory(instance_id, "recovered; interrupted work re-queued");
  }
  if (recovery_span != 0) {
    spans_->Annotate(recovery_span, "requeued", StrFormat("%zu", requeued));
    spans_->Annotate(recovery_span, "state",
                     std::string(InstanceStateName(raw->state())));
    spans_->End(recovery_span, "replayed");
  }
  metrics_->recovered->Increment(requeued);
  return Status::OK();
}

}  // namespace biopera::core
