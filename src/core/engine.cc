#include "core/engine.h"

#include <algorithm>
#include <unordered_map>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/barrier_profile.h"
#include "obs/json.h"
#include "obs/quantile.h"
#include "store/codec.h"

namespace biopera::core {

/// One speculative activity execution: the input it ran with (captured on
/// the engine thread), and the result filled in by a pool worker. The
/// pool's batch join publishes `output` before the scan reads it.
struct Engine::PreExecState {
  ActivityInput input;
  std::optional<Result<ActivityOutput>> output;
};

using ocr::ProcessDef;
using ocr::Value;

namespace {

/// Kill-command retry policy: an undeliverable kKill is retried with
/// exponential backoff (base doubling to max, plus deterministic
/// per-(node, job, attempt) jitter: comms::RetryBackoff) at most
/// kKillRetryLimit times; undeliverable kills are also flushed at once
/// when the command link comes back.
constexpr Duration kKillRetryBase = Duration::Seconds(2);
constexpr Duration kKillRetryMax = Duration::Minutes(4);
constexpr int kKillRetryLimit = 8;
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

// ---------------------------------------------------------------------------
// Provenance descriptors and row keys
// ---------------------------------------------------------------------------

/// Renders one activity parameter/output value as a short, stable
/// descriptor: scalars verbatim, {first, last} maps as half-open ranges
/// (sequence-queue partitions), anything bulky as size + content digest —
/// lineage rows stay small no matter how large a match set grows, while
/// different contents still yield different descriptors.
std::string DescribeValue(const Value& v) {
  if (v.is_null()) return "null";
  if (v.is_bool()) return v.AsBool() ? "true" : "false";
  if (v.is_int()) return StrFormat("%lld", static_cast<long long>(v.AsInt()));
  if (v.is_double()) return v.ToText();
  if (v.is_string()) {
    const std::string& s = v.AsString();
    if (s.size() <= 48 && s.find_first_of("\n\r\t") == std::string::npos) {
      return s;
    }
    return StrFormat("len=%zu,fnv64=%016llx", s.size(),
                     static_cast<unsigned long long>(obs::Fnv1a64(s)));
  }
  if (v.is_map()) {
    const Value::Map& m = v.AsMap();
    auto first = m.find("first");
    auto last = m.find("last");
    if (m.size() == 2 && first != m.end() && last != m.end() &&
        first->second.is_int() && last->second.is_int()) {
      return StrFormat("[%lld,%lld)",
                       static_cast<long long>(first->second.AsInt()),
                       static_cast<long long>(last->second.AsInt()));
    }
    return StrFormat("map(%zu):fnv64=%016llx", m.size(),
                     static_cast<unsigned long long>(obs::Fnv1a64(v.ToText())));
  }
  return StrFormat("list(%zu):fnv64=%016llx", v.AsList().size(),
                   static_cast<unsigned long long>(obs::Fnv1a64(v.ToText())));
}

std::vector<std::pair<std::string, std::string>> DescribeValueMap(
    const Value::Map& m) {
  std::vector<std::pair<std::string, std::string>> out;
  out.reserve(m.size());
  for (const auto& [key, value] : m) out.emplace_back(key, DescribeValue(value));
  return out;
}

/// Provenance-space row keys. Attempts are zero-padded so the store's
/// key order is (path, attempt) order, with the in-row sorting before
/// the out-row of the same attempt ("in" < "out").
std::string LineageInKey(const std::string& path, int attempt) {
  return StrFormat("%s/a%04d/in", path.c_str(), attempt);
}
std::string LineageOutKey(const std::string& path, int attempt) {
  return StrFormat("%s/a%04d/out", path.c_str(), attempt);
}

}  // namespace

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
      navigator_(sim, &spaces_, registry, this) {
  cluster_->SetListener(this);
  // All engine<->PEC traffic goes through the comms seam. Without an
  // explicit channel the engine shares the cluster's (by default its own
  // plain one: synchronous and lossless), link state included.
  channel_ = options_.channel != nullptr ? options_.channel
                                         : cluster_->channel();
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
    spans_ = &obs->spans;
    dispatched_metric_ = obs->metrics.GetCounter("engine_tasks_dispatched_total");
    pump_runs_metric_ = obs->metrics.GetCounter("engine_pump_runs_total");
    pump_scanned_metric_ =
        obs->metrics.GetCounter("engine_pump_entries_scanned_total");
    preexec_batches_metric_ =
        obs->metrics.GetCounter("engine_preexec_batches_total");
    preexec_tasks_metric_ =
        obs->metrics.GetCounter("engine_preexec_activities_total");
    completed_metric_ = obs->metrics.GetCounter("engine_tasks_completed_total");
    failed_metric_ = obs->metrics.GetCounter("engine_tasks_failed_total");
    timed_out_metric_ = obs->metrics.GetCounter("engine_jobs_timed_out_total");
    migrations_metric_ = obs->metrics.GetCounter("engine_migrations_total");
    recovered_metric_ = obs->metrics.GetCounter("engine_recovered_tasks_total");
    degraded_total_metric_ =
        obs->metrics.GetCounter("engine_store_degraded_total");
    degraded_retries_metric_ =
        obs->metrics.GetCounter("engine_store_degraded_retries_total");
    degraded_gauge_ = obs->metrics.GetGauge("engine_store_degraded");
    queue_depth_gauge_ = obs->metrics.GetGauge("engine_ready_queue_depth");
    parked_starved_gauge_ =
        obs->metrics.GetGauge("engine_parked_starved_depth");
    parked_suspended_gauge_ =
        obs->metrics.GetGauge("engine_parked_suspended_depth");
    running_jobs_gauge_ = obs->metrics.GetGauge("engine_running_jobs");
    // Task costs span seconds to days: 1s x4 buckets.
    obs::HistogramOptions cost_buckets;
    cost_buckets.first_bound = 1.0;
    task_cost_metric_ =
        obs->metrics.GetHistogram("engine_task_cost_seconds", {}, cost_buckets);
    suspected_metric_ =
        obs->metrics.GetCounter("engine_comms_nodes_suspected_total");
    condemned_metric_ =
        obs->metrics.GetCounter("engine_comms_nodes_condemned_total");
    reconciled_metric_ =
        obs->metrics.GetCounter("engine_comms_nodes_reconciled_total");
    fenced_reports_metric_ =
        obs->metrics.GetCounter("engine_comms_reports_fenced_total");
    dup_reports_metric_ =
        obs->metrics.GetCounter("engine_comms_reports_duplicate_total");
    kill_retries_metric_ =
        obs->metrics.GetCounter("engine_comms_kill_retries_total");
    kill_gave_up_metric_ =
        obs->metrics.GetCounter("engine_comms_kills_abandoned_total");
    suspected_gauge_ = obs->metrics.GetGauge("engine_comms_nodes_suspected");
  }
}

void Engine::SyncObsGauges() {
  if (queue_depth_gauge_ == nullptr) return;
  queue_depth_gauge_->Set(
      static_cast<double>(ready_.size() + pump_overflow_.size()));
  parked_starved_gauge_->Set(static_cast<double>(NumParkedStarved()));
  parked_suspended_gauge_->Set(static_cast<double>(NumParkedSuspended()));
  running_jobs_gauge_->Set(static_cast<double>(jobs_.size()));
}

Engine::~Engine() {
  // Another engine (a promoted backup) may have registered after us.
  if (cluster_->listener() == this) cluster_->SetListener(nullptr);
  CancelPendingKills();
  if (lease_check_ != kInvalidEventId) {
    sim_->Cancel(lease_check_);
    lease_check_ = kInvalidEventId;
  }
  if (channel_->report_handler() == this) channel_->SetReportHandler(nullptr);
  cluster_->DetachChannel(channel_);
  spaces_.store()->ClearFlushFailureHandler(this);
}

Status Engine::Startup() {
  if (up_) return Status::FailedPrecondition("server already up");
  Result<std::unique_ptr<sched::SchedulingPolicy>> policy =
      sched::MakePolicy(options_.policy, &rng_);
  BIOPERA_RETURN_IF_ERROR(policy.status());
  policy_ = std::move(*policy);
  up_ = true;
  degraded_ = false;
  if (degraded_event_ != kInvalidEventId) {
    sim_->Cancel(degraded_event_);
    degraded_event_ = kInvalidEventId;
  }
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
    // down, with nothing in memory, and a later Startup starts over.
    AbandonStartup();
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
  PumpDispatch();
  SyncObsGauges();
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

  // Fences restart per incarnation: writer_epoch << 20 | counter — a new
  // epoch makes every old attempt's reports distinguishable from ours.
  next_fence_seq_ = 0;
  if (options_.heartbeat_interval > Duration::Zero()) {
    // Every node starts with a fresh lease; nodes that are actually dead
    // miss their heartbeats and get suspected, then condemned.
    leases_.clear();
    if (suspected_gauge_ != nullptr) suspected_gauge_->Set(0);
    for (const cluster::NodeConfig& node : cluster_->Nodes()) {
      NodeLease lease;
      lease.last_heartbeat = sim_->Now();
      leases_[node.name] = lease;
    }
    ArmLeaseCheck();
  }

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

void Engine::AbandonStartup() {
  // The server-down window Crash() opened stays open: the server is down.
  if (spans_ != nullptr) EndWorkSpans("startup_failed");
  up_ = false;
  DropLeases("startup_failed");
  DropVolatileState();
}

void Engine::Crash() {
  if (spans_ != nullptr) {
    // Every queued attempt and running job dies with the server; instance
    // spans stay open — the server-down window explains the causal gap
    // until recovery re-queues the work.
    EndWorkSpans("killed");
    spans_->End(degraded_span_, "server_crashed");
    degraded_span_ = 0;
    server_down_span_ = spans_->Begin(obs::SpanKind::kServerDown, "server down");
  }
  up_ = false;
  // Ongoing jobs are stopped when the server dies (paper §5.4, event 4).
  // This is out-of-band teardown, not a control-plane message — the
  // simulated world stops the jobs with the server.
  cluster_->KillAllJobs();
  CancelPendingKills();
  DropLeases("server_crashed");
  DropVolatileState();
}

void Engine::EndWorkSpans(std::string_view outcome) {
  for (const auto& [key, entry] : ready_) {
    EndAttemptSpan(entry.attempt_span, outcome);
  }
  for (const auto& [cls, entries] : parked_by_class_) {
    for (const auto& [key, entry] : entries) {
      EndAttemptSpan(entry.attempt_span, outcome);
    }
  }
  for (const auto& [id, entries] : parked_by_instance_) {
    for (const auto& [key, entry] : entries) {
      EndAttemptSpan(entry.attempt_span, outcome);
    }
  }
  for (const ReadyEntry& entry : pump_overflow_) {
    EndAttemptSpan(entry.attempt_span, outcome);
  }
  for (const auto& [job_id, pending] : jobs_) {
    spans_->End(pending.job_span, std::string(outcome));
    EndAttemptSpan(pending.attempt_span, outcome);
  }
}

void Engine::DropLeases(std::string_view outcome) {
  if (lease_check_ != kInvalidEventId) {
    sim_->Cancel(lease_check_);
    lease_check_ = kInvalidEventId;
  }
  if (spans_ != nullptr) {
    for (const auto& [name, lease] : leases_) {
      spans_->End(lease.suspicion_span, std::string(outcome));
    }
  }
  leases_.clear();
  if (suspected_gauge_ != nullptr) suspected_gauge_->Set(0);
}

void Engine::DropVolatileState() {
  monitors_.clear();
  for (const auto& [id, inst] : instances_) state_changes_.push_back(id);
  instances_.clear();
  ++instance_generation_;
  ready_.clear();
  parked_by_class_.clear();
  parked_by_instance_.clear();
  woken_classes_.clear();
  pump_overflow_.clear();
  pump_frozen_.clear();
  for (const auto& [job_id, pending] : jobs_) {
    if (pending.watchdog != kInvalidEventId) sim_->Cancel(pending.watchdog);
  }
  jobs_.clear();
  NoteJobsMaybeDrained();
  jobs_by_instance_.clear();
  jobs_by_node_.clear();
  awareness_ = monitor::AwarenessModel();
  policy_.reset();
  if (pump_event_ != kInvalidEventId) {
    sim_->Cancel(pump_event_);
    pump_event_ = kInvalidEventId;
  }
  pump_scheduled_ = false;
  degraded_ = false;
  if (degraded_gauge_ != nullptr) degraded_gauge_->Set(0);
  if (degraded_event_ != kInvalidEventId) {
    sim_->Cancel(degraded_event_);
    degraded_event_ = kInvalidEventId;
  }
  spaces_.store()->ClearFlushFailureHandler(this);
  SyncObsGauges();
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
  if (degraded_gauge_ != nullptr) {
    degraded_gauge_->Set(1);
    degraded_total_metric_->Increment();
  }
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
  if (!up_ || !degraded_) return;
  if (degraded_retries_metric_ != nullptr) {
    degraded_retries_metric_->Increment();
  }
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
  if (degraded_gauge_ != nullptr) degraded_gauge_->Set(0);
  if (spans_ != nullptr) {
    spans_->End(degraded_span_, "recovered");
    degraded_span_ = 0;
  }
  BIOPERA_LOG(kInfo) << "store writes succeed again; resuming dispatch";
  // Entries parked while degraded never saw a capacity event; re-probe all.
  WakeAllClasses();
  PumpDispatch();
}

bool Engine::MaybeHandleFenced(const Status& st) {
  if (!RecordStore::IsFenced(st)) return false;
  if (!up_ || fenced_pending_) return true;
  // Step down outside the failing call stack: callers may still hold
  // pointers into the state TearDownFenced clears.
  fenced_pending_ = true;
  sim_->ScheduleDaemon(Duration::Seconds(0), [this] {
    fenced_pending_ = false;
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
  DropVolatileState();
}

Result<std::string> Engine::ScrubStore() {
  if (!up_) return Status::Unavailable("server is down");
  BIOPERA_ASSIGN_OR_RETURN(RecordStore::ScrubReport report,
                           spaces_.store()->Scrub());
  return report.ToText();
}

// ---------------------------------------------------------------------------
// Templates
// ---------------------------------------------------------------------------

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
// Instance control
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
    DropQueuedForInstance(id);
    if (spans_ != nullptr) spans_->End(raw->span_id(), "failed");
    instances_.erase(id);
    ++instance_generation_;
    return st;
  }
  AppendHistory(id, "started template=" + template_name);
  PumpDispatch();
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
  WakeInstance(instance_id);
  PumpDispatch();
  return Status::OK();
}

Status Engine::Abort(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  KillJobs(inst, /*subtree=*/nullptr);
  DropParkedForInstance(instance_id);
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
  SyncObsGauges();
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
  KillJobs(inst, /*subtree=*/nullptr);
  // Entries parked while the instance was suspended are dispatchable again.
  WakeInstance(instance_id);
  BIOPERA_RETURN_IF_ERROR(navigator_.Restart(inst, &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "restarted");
  PumpDispatch();
  return Status::OK();
}

void Engine::KillJobs(ProcessInstance* inst, const TaskNode* subtree) {
  std::vector<cluster::JobId> doomed;
  if (auto it = jobs_by_instance_.find(inst->id());
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      // Under `subtree` when the job's task has it as an ancestor-or-self.
      const TaskNode* walk = subtree == nullptr
                                 ? nullptr
                                 : inst->FindByPath(jobs_.at(job_id).path);
      while (walk != nullptr && walk != subtree) walk = walk->parent;
      if (walk == subtree) doomed.push_back(job_id);
    }
  }
  for (cluster::JobId job_id : doomed) {
    const PendingJob& pending = jobs_.at(job_id);
    SendKill(pending.node, job_id, pending.fence);
    TakeJob(job_id, /*failed=*/false, "killed");
  }
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
  PumpDispatch();
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
  ++instance_generation_;
  state_changes_.push_back(instance_id);
  DropParkedForInstance(instance_id);
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
  PumpDispatch();
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

std::vector<Engine::RunningJob> Engine::GetRunningJobs() const {
  std::vector<RunningJob> out;
  for (const auto& [job_id, pending] : jobs_) {
    out.push_back({job_id, pending.instance_id, pending.path, pending.node,
                   pending.cost});
  }
  return out;
}

// ---------------------------------------------------------------------------
// Navigator host: effects of navigation outside the instance tree
// ---------------------------------------------------------------------------

void Engine::TaskReady(ProcessInstance* inst, TaskNode* node) {
  EnqueueReady(inst, node, ReadyEntry{});
}

void Engine::RetryDue(ProcessInstance* inst, TaskNode* node,
                      Duration backoff) {
  sim_->Schedule(backoff, [this, instance_id = inst->id(), path = node->path] {
    if (!up_) return;
    ProcessInstance* inst2 = FindInstance(instance_id);
    if (inst2 == nullptr) return;
    TaskNode* node2 = inst2->FindByPath(path);
    if (node2 == nullptr || node2->state != TaskState::kRetryWait) return;
    RecordStore::CommitScope commit_group(spaces_.store());
    WriteBatch retry_batch;
    navigator_.MarkReady(inst2, node2, &retry_batch);
    Status st = Commit(&retry_batch);
    if (!st.ok()) {
      BIOPERA_LOG(kError) << "retry commit failed: " << st.ToString();
      return;
    }
    TaskReady(inst2, node2);
    PumpDispatch();
  });
}

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
  if (failed_metric_ != nullptr) failed_metric_->Increment();
}

// ---------------------------------------------------------------------------
// Dispatching
// ---------------------------------------------------------------------------

void Engine::EnqueueReady(ProcessInstance* inst, TaskNode* node,
                          ReadyEntry entry) {
  entry.instance_id = inst->id();
  entry.path = node->path;
  entry.priority = inst->priority();
  entry.inst_hint = inst;
  entry.engine_gen = instance_generation_;
  entry.node_hint = node;
  entry.structure_gen = inst->structure_generation();
  if (node->def != nullptr) entry.resource_class = node->def->resource_class;
  BeginAttemptSpan(&entry, inst, node);
  PushEntry(std::move(entry));
}

void Engine::PushEntry(ReadyEntry entry) {
  entry.seq = next_ready_seq_++;
  if (pumping_) {
    // The running pump scans mid-pump enqueues at its tail, in enqueue
    // order (the old deque's append-while-scanning behavior).
    pump_overflow_.push_back(std::move(entry));
    return;
  }
  ReadyKey key = entry.key();
  ready_.emplace(key, std::move(entry));
}

void Engine::MarkClassWoken(const std::string& resource_class) {
  woken_classes_.insert(resource_class);
  // Capacity changed mid-pump: entries of this class later in the scan
  // must get a fresh placement attempt instead of the frozen short-cut.
  if (pumping_) pump_frozen_.erase(resource_class);
}

void Engine::WakeClassesForNode(const std::string& node_name) {
  if (parked_by_class_.empty()) return;
  const monitor::AwarenessModel::NodeView* view = awareness_.Find(node_name);
  for (const auto& [cls, queue] : parked_by_class_) {
    if (queue.empty()) continue;
    // Unknown node: wake everything rather than risk a lost wakeup.
    if (view == nullptr || view->config.ServesClass(cls)) MarkClassWoken(cls);
  }
}

void Engine::WakeAllClasses() {
  for (const auto& [cls, queue] : parked_by_class_) {
    if (!queue.empty()) MarkClassWoken(cls);
  }
}

void Engine::WakeInstance(const std::string& instance_id) {
  auto it = parked_by_instance_.find(instance_id);
  if (it == parked_by_instance_.end()) return;
  for (auto& [key, entry] : it->second) {
    ready_.emplace(key, std::move(entry));
  }
  parked_by_instance_.erase(it);
}

void Engine::DropParkedForInstance(const std::string& instance_id) {
  if (auto it = parked_by_instance_.find(instance_id);
      it != parked_by_instance_.end()) {
    for (auto& [key, entry] : it->second) {
      EndAttemptSpan(entry.attempt_span, "stale");
    }
    parked_by_instance_.erase(it);
  }
  // Entries in ready_/parked_by_class_ are dropped lazily: the next scan
  // sees the instance gone (or not running) and discards them — ending
  // their attempt spans as it goes.
}

void Engine::DropQueuedForInstance(const std::string& instance_id) {
  auto drop = [&](const ReadyEntry& entry) {
    if (entry.instance_id != instance_id) return false;
    EndAttemptSpan(entry.attempt_span, "stale");
    return true;
  };
  std::erase_if(ready_, [&](const auto& item) { return drop(item.second); });
  std::erase_if(pump_overflow_, drop);
}

size_t Engine::NumParkedStarved() const {
  size_t n = 0;
  for (const auto& [cls, queue] : parked_by_class_) n += queue.size();
  return n;
}

size_t Engine::NumParkedSuspended() const {
  size_t n = 0;
  for (const auto& [id, queue] : parked_by_instance_) n += queue.size();
  return n;
}

size_t Engine::QueueDepth() const {
  return ready_.size() + pump_overflow_.size() + NumParkedStarved() +
         NumParkedSuspended();
}

Engine::DispatchStats Engine::GetDispatchStats() const {
  DispatchStats stats;
  stats.ready = ready_.size() + pump_overflow_.size();
  stats.parked_starved = NumParkedStarved();
  stats.parked_suspended = NumParkedSuspended();
  stats.running_jobs = jobs_.size();
  if (pump_runs_metric_ != nullptr) {
    stats.pump_runs = pump_runs_metric_->value();
    stats.entries_scanned = pump_scanned_metric_->value();
    stats.dispatched = dispatched_metric_->value();
  }
  stats.busy_virtual_us = busy_virtual_us_;
  if (busy_open_) {
    // The open window counts up to "now" so per-barrier deltas are
    // monotone even while jobs are still in flight.
    stats.busy_virtual_us +=
        static_cast<uint64_t>((sim_->Now() - busy_since_).micros());
  }
  return stats;
}

void Engine::IndexJob(cluster::JobId job_id, const PendingJob& pending) {
  jobs_by_instance_[pending.instance_id].insert(job_id);
  jobs_by_node_[pending.node].insert(job_id);
}

void Engine::NoteJobsNonEmpty() {
  if (!busy_open_ && !jobs_.empty()) {
    busy_open_ = true;
    busy_since_ = sim_->Now();
  }
}

void Engine::NoteJobsMaybeDrained() {
  if (busy_open_ && jobs_.empty()) {
    busy_open_ = false;
    busy_virtual_us_ +=
        static_cast<uint64_t>((sim_->Now() - busy_since_).micros());
  }
}

Engine::PendingJob Engine::TakeJob(
    std::map<cluster::JobId, PendingJob>::iterator it, bool failed,
    std::string_view outcome) {
  cluster::JobId job_id = it->first;
  PendingJob pending = std::move(it->second);
  jobs_.erase(it);
  NoteJobsMaybeDrained();
  if (spans_ != nullptr) {
    spans_->End(pending.job_span, std::string(outcome));
    spans_->End(pending.attempt_span, std::string(outcome));
  }
  auto inst_it = jobs_by_instance_.find(pending.instance_id);
  if (inst_it != jobs_by_instance_.end()) {
    inst_it->second.erase(job_id);
    if (inst_it->second.empty()) jobs_by_instance_.erase(inst_it);
  }
  auto node_it = jobs_by_node_.find(pending.node);
  if (node_it != jobs_by_node_.end()) {
    node_it->second.erase(job_id);
    if (node_it->second.empty()) jobs_by_node_.erase(node_it);
  }
  if (pending.watchdog != kInvalidEventId) {
    // No-op if the watchdog already fired (Cancel tolerates spent ids).
    sim_->Cancel(pending.watchdog);
    pending.watchdog = kInvalidEventId;
  }
  awareness_.JobFinishedOrFailed(pending.node, failed);
  // A CPU freed on this node: classes parked for capacity can try again.
  WakeClassesForNode(pending.node);
  return pending;
}

Engine::PendingJob Engine::TakeJob(cluster::JobId job_id, bool failed,
                                   std::string_view outcome) {
  return TakeJob(jobs_.find(job_id), failed, outcome);
}

uint64_t Engine::InstanceSpanId(ProcessInstance* inst) {
  if (spans_ == nullptr) return 0;
  if (inst->span_id() == 0) {
    // After a crash the rebuilt instance lost its span id: re-attach to
    // the span left open before the crash so one instance keeps one
    // makespan span, or open a fresh one if it fell off the sink.
    uint64_t id = spans_->FindOpen(obs::SpanKind::kInstance, inst->id());
    if (id == 0) {
      id = spans_->Begin(obs::SpanKind::kInstance, inst->id(), /*parent=*/0,
                         /*link=*/0, inst->id());
    }
    inst->set_span_id(id);
  }
  return inst->span_id();
}

void Engine::BeginAttemptSpan(ReadyEntry* entry, ProcessInstance* inst,
                              TaskNode* node) {
  if (spans_ == nullptr) return;
  entry->attempt_span = spans_->Begin(
      obs::SpanKind::kAttempt, node->path, InstanceSpanId(inst),
      /*link=*/node->last_attempt_span, inst->id(), node->path, "",
      {{"class",
        node->def != nullptr ? node->def->resource_class : std::string()},
       {"attempt", StrFormat("%d", node->attempts + 1)}});
  node->last_attempt_span = entry->attempt_span;
}

void Engine::EndAttemptSpan(uint64_t attempt_span, std::string_view outcome) {
  if (spans_ == nullptr || attempt_span == 0) return;
  spans_->End(attempt_span, std::string(outcome));
}

void Engine::SchedulePumpRetry() {
  if (pump_scheduled_) return;
  pump_scheduled_ = true;
  pump_event_ = sim_->Schedule(options_.dispatch_retry, [this] {
    pump_scheduled_ = false;
    pump_event_ = kInvalidEventId;
    // Periodic full re-probe: capacity estimates may have drifted without
    // a wake event (the old pump re-tried every queued entry here too).
    WakeAllClasses();
    PumpDispatch();
  });
}

void Engine::PreExecuteReady() {
  if (options_.executor == nullptr) return;
  std::vector<std::function<void()>> tasks;
  // Mirror the scan's validation: only entries it would execute are
  // worth speculating on. Entries that fail validation here are left
  // for the scan, which reports failures in deterministic order.
  for (auto& [key, entry] : ready_) {
    if (entry.cached.has_value() || entry.pre_exec != nullptr) continue;
    ProcessInstance* inst = FindInstance(entry.instance_id);
    if (inst == nullptr || inst->state() != InstanceState::kRunning) {
      continue;
    }
    TaskNode* node = inst->FindByPath(entry.path);
    if (node == nullptr || node->state != TaskState::kReady) continue;
    Result<ActivityFn> fn = registry_->Find(BindingOf(*node));
    if (!fn.ok()) continue;
    Result<ActivityInput> input = navigator_.BuildInput(node);
    if (!input.ok()) continue;
    auto state = std::make_shared<PreExecState>();
    state->input = std::move(*input);
    entry.pre_exec = state;
    tasks.push_back([state, fn = std::move(*fn)] {
      state->output = fn(state->input);
    });
  }
  if (tasks.empty()) return;
  if (preexec_batches_metric_ != nullptr) {
    preexec_batches_metric_->Increment();
    preexec_tasks_metric_->Increment(tasks.size());
  }
  {
    // Pool-batched kernel execution is `kernel` wall time, not `pump`.
    obs::WallProfile::Scope kernel_scope(options_.wall_profile,
                                         obs::WallProfile::kKernel);
    options_.executor->RunBatch(std::move(tasks));
  }
}

namespace {

/// Inline kernel execution, attributed to the `kernel` wall bucket so the
/// barrier-stall profiler separates compute from dispatcher navigation.
Result<ActivityOutput> RunKernelScoped(obs::WallProfile* profile,
                                       const ActivityFn& fn,
                                       const ActivityInput& input) {
  obs::WallProfile::Scope scope(profile, obs::WallProfile::kKernel);
  return fn(input);
}

}  // namespace

void Engine::PumpDispatch() {
  if (!up_ || degraded_) return;  // degraded: no dispatch until writes heal
  // Wall-clock self-time of the whole pump is `pump`; the kernel and
  // store scopes opened inside subtract themselves out, so the three
  // buckets never double-count (see obs::WallProfile).
  obs::WallProfile::Scope pump_scope(options_.wall_profile,
                                     obs::WallProfile::kPump);
  // One commit group per pump: state transitions for all entries handled
  // in this pass coalesce into (at most) a few WAL records, bounded by
  // the pre-dispatch flush barriers below.
  RecordStore::CommitScope commit_group(spaces_.store());
  if (pump_runs_metric_ != nullptr) pump_runs_metric_->Increment();
  // Real-thread execution beneath virtual time: run all ready activity
  // kernels concurrently and join before the scan consumes anything, so
  // scan order — and with it every commit, span and lineage record — is
  // exactly the inline order.
  PreExecuteReady();
  pumping_ = true;
  pump_frozen_.clear();
  bool starved = false;

  enum class Verdict { kContinue, kStopDegraded, kStopFenced };

  // Processes one entry exactly as the sort-every-pump loop did: resolve
  // the instance and node (cached handles, validated by generation
  // counters), run the activity implementation on first scan, place, and
  // dispatch. Entries that cannot dispatch park — under their resource
  // class when placement declined, under their instance when it is
  // suspended — instead of returning to the scan set, so the next pump's
  // work is proportional to what can actually dispatch.
  auto scan_entry = [&](ReadyEntry entry) -> Verdict {
    if (pump_scanned_metric_ != nullptr) pump_scanned_metric_->Increment();
    ProcessInstance* inst =
        entry.engine_gen == instance_generation_ ? entry.inst_hint : nullptr;
    if (inst == nullptr) {
      inst = FindInstance(entry.instance_id);
      if (inst == nullptr) {
        EndAttemptSpan(entry.attempt_span, "stale");
        return Verdict::kContinue;  // instance gone
      }
      entry.inst_hint = inst;
      entry.engine_gen = instance_generation_;
      entry.node_hint = nullptr;
      entry.structure_gen = 0;
    }
    if (inst->state() == InstanceState::kSuspended) {
      ReadyKey key = entry.key();
      parked_by_instance_[entry.instance_id].emplace(key, std::move(entry));
      return Verdict::kContinue;
    }
    if (inst->state() != InstanceState::kRunning) {
      EndAttemptSpan(entry.attempt_span, "stale");
      return Verdict::kContinue;  // aborted/failed
    }
    TaskNode* node = entry.structure_gen == inst->structure_generation()
                         ? entry.node_hint
                         : nullptr;
    if (node == nullptr) {
      node = inst->FindByPath(entry.path);
      if (node == nullptr) {
        EndAttemptSpan(entry.attempt_span, "stale");
        return Verdict::kContinue;  // subtree discarded
      }
      entry.node_hint = node;
      entry.structure_gen = inst->structure_generation();
    }
    if (node->state != TaskState::kReady) {
      EndAttemptSpan(entry.attempt_span, "stale");
      return Verdict::kContinue;
    }

    // Execute the activity implementation (idempotent; may be a cached
    // result from a previous declined placement).
    if (!entry.cached.has_value()) {
      Result<ActivityFn> fn = registry_->Find(BindingOf(*node));
      Result<ActivityInput> input = navigator_.BuildInput(node);
      // A speculative pool execution is consumed only when the freshly
      // assembled input equals the one it ran with; earlier entries in
      // this scan may have navigated state that changes the input, in
      // which case the activity re-runs inline (it is pure, so an equal
      // input guarantees the inline result).
      std::shared_ptr<PreExecState> pre = std::move(entry.pre_exec);
      bool use_pre = pre != nullptr && pre->output.has_value() && fn.ok() &&
                     input.ok() && pre->input.params == input->params;
      Result<ActivityOutput> output =
          use_pre ? std::move(*pre->output)
          : !fn.ok() ? Result<ActivityOutput>(fn.status())
          : !input.ok() ? Result<ActivityOutput>(input.status())
                        : RunKernelScoped(options_.wall_profile, *fn, *input);
      if (!output.ok()) {
        EndAttemptSpan(entry.attempt_span, "failed");
        WriteBatch batch;
        Status st = navigator_.Fail(inst, node, output.status().ToString(),
                                    &batch);
        if (st.ok()) st = Commit(&batch);
        if (!st.ok()) {
          BIOPERA_LOG(kError) << "failure handling error: " << st.ToString();
        }
        return Verdict::kContinue;
      }
      if (entry.input_desc.empty()) {
        // First execution of this attempt: summarize the bound inputs for
        // the lineage record written at dispatch below.
        entry.input_desc = DescribeValueMap(input->params);
      }
      entry.cached = std::move(*output);
    }

    const std::string cls = node->def->resource_class;
    if (pump_frozen_.contains(cls)) {
      // The head of this class already declined placement this pump and no
      // capacity has freed since, so the outcome is known; skipping the
      // attempt is safe because every policy leaves its internal state
      // untouched on a decline.
      entry.resource_class = cls;
      starved = true;
      ReadyKey key = entry.key();
      parked_by_class_[cls].emplace(key, std::move(entry));
      return Verdict::kContinue;
    }
    sched::PlacementRequest request;
    request.resource_class = cls;
    request.estimated_work = entry.cached->cost;
    std::string target = policy_->Place(request, awareness_);
    if (!entry.avoid_node.empty() && target == entry.avoid_node) {
      // The watchdog suspects this node; ask the policy for a second
      // opinion with the suspect artificially loaded.
      awareness_.JobDispatched(entry.avoid_node);
      std::string alternative = policy_->Place(request, awareness_);
      awareness_.JobFinishedOrFailed(entry.avoid_node, /*failed=*/false);
      if (!alternative.empty()) target = alternative;
    }
    if (target.empty()) {
      // No capacity anywhere in this class: park the entry and freeze the
      // class for the rest of the pump. A capacity event (job finished,
      // node up, load report, config change) wakes it again.
      entry.resource_class = cls;
      starved = true;
      pump_frozen_.insert(cls);
      ReadyKey key = entry.key();
      parked_by_class_[cls].emplace(key, std::move(entry));
      return Verdict::kContinue;
    }
    // Flush barrier: dispatching the job makes state externally visible,
    // so everything committed so far must be durable first.
    if (Status flush_status = spaces_.store()->Flush(); !flush_status.ok()) {
      BIOPERA_LOG(kError) << "pre-dispatch flush failed: "
                          << flush_status.ToString();
      ReadyKey key = entry.key();
      ready_.emplace(key, std::move(entry));
      if (MaybeHandleFenced(flush_status)) return Verdict::kStopFenced;
      if (flush_status.IsIOError()) {
        // Stop dispatching entirely: the store is degraded. The entries
        // (and their cached results) stay queued; the degraded retry
        // pumps again once writes succeed.
        EnterDegraded(flush_status);
        return Verdict::kStopDegraded;
      }
      starved = true;
      return Verdict::kContinue;
    }
    cluster::JobId job_id = next_job_id_++;
    // Fence this attempt: reports are applied only when they echo the
    // token, so duplicated/zombie reports of other attempts cannot
    // double-apply (docs/COMMS.md).
    const uint64_t fence = (spaces_.epoch() << 20) | ++next_fence_seq_;
    comms::Message launch;
    launch.type = comms::MessageType::kLaunch;
    launch.node = target;
    launch.job = job_id;
    launch.fence = fence;
    launch.work = entry.cached->cost;
    Status st = channel_->SendCommand(launch);
    if (!st.ok()) {
      // Raced with a node failure or an unreachable command link; keep
      // queued (not parked: placement succeeded, so the class is not
      // capacity-starved) and try elsewhere at the next pump.
      if (st.IsUnavailable()) {
        // The connect refusal is itself a detection signal: stop placing
        // work on the node until its command link heals (OnLinkChanged)
        // or, in lease mode, until the detector reconciles it.
        awareness_.NodeDown(target, sim_->Now());
      }
      starved = true;
      ReadyKey key = entry.key();
      ready_.emplace(key, std::move(entry));
      return Verdict::kContinue;
    }
    PendingJob pending{entry.instance_id, entry.path, entry.cached->fields,
                       entry.cached->cost, target};
    pending.fence = fence;
    pending.attempt_span = entry.attempt_span;
    pending.attempt = node->attempts + 1;
    pending.input_desc = entry.input_desc;
    pending.params = entry.cached->provenance;
    if (spans_ != nullptr) {
      pending.job_span = spans_->Begin(
          obs::SpanKind::kJob, entry.path, entry.attempt_span, /*link=*/0,
          entry.instance_id, entry.path, target,
          {{"job", StrFormat("%llu",
                             static_cast<unsigned long long>(job_id))},
           {"cost_us", StrFormat("%lld", static_cast<long long>(
                                             entry.cached->cost.micros()))}});
    }
    pending.watchdog = ArmJobWatchdog(job_id, entry.cached->cost);
    IndexJob(job_id, pending);
    jobs_[job_id] = std::move(pending);
    NoteJobsNonEmpty();
    awareness_.JobDispatched(target);
    WriteBatch batch;
    navigator_.MarkRunning(inst, node, &batch);
    RecordLineageDispatch(entry, node, target, node->attempts + 1, &batch);
    st = Commit(&batch);
    if (!st.ok()) {
      BIOPERA_LOG(kError) << "dispatch commit failed: " << st.ToString();
    }
    AppendHistory(entry.instance_id,
                  StrFormat("dispatched %s to %s", entry.path.c_str(),
                            target.c_str()));
    if (dispatched_metric_ != nullptr) dispatched_metric_->Increment();
    return Verdict::kContinue;
  };

  // Round 1: cursor-based merge of the ready map with the parked queues
  // of woken classes, in (priority, seq) order — the exact scan order of
  // the old sort-every-pump deque, minus the entries known not to
  // dispatch. The cursor only moves forward, so entries parked or
  // re-queued by the scan itself are not revisited within this pump.
  Verdict verdict = Verdict::kContinue;
  using EntryMap = std::map<ReadyKey, ReadyEntry>;
  ReadyKey cursor{0, 0};
  bool have_cursor = false;
  while (verdict == Verdict::kContinue) {
    EntryMap* source = nullptr;
    EntryMap::iterator best;
    auto consider = [&](EntryMap& m) {
      auto it = have_cursor ? m.upper_bound(cursor) : m.begin();
      if (it == m.end()) return;
      if (source == nullptr || it->first < best->first) {
        source = &m;
        best = it;
      }
    };
    consider(ready_);
    for (auto wit = woken_classes_.begin(); wit != woken_classes_.end();) {
      auto pit = parked_by_class_.find(*wit);
      if (pit == parked_by_class_.end() || pit->second.empty()) {
        // Nothing parked here any more: the wake is consumed.
        if (pit != parked_by_class_.end()) parked_by_class_.erase(pit);
        wit = woken_classes_.erase(wit);
        continue;
      }
      if (!pump_frozen_.contains(*wit)) consider(pit->second);
      ++wit;
    }
    if (source == nullptr) break;
    cursor = best->first;
    have_cursor = true;
    ReadyEntry entry = std::move(best->second);
    source->erase(best);
    verdict = scan_entry(std::move(entry));
  }
  // Round 2: entries enqueued while the pump ran (navigation inside
  // completion and failure handling), in enqueue order — exactly where
  // the old deque's mid-pump appends were scanned. They run inline: the
  // pool speculates only on the ready set at the top of the pump.
  while (verdict == Verdict::kContinue && !pump_overflow_.empty()) {
    ReadyEntry entry = std::move(pump_overflow_.front());
    pump_overflow_.pop_front();
    verdict = scan_entry(std::move(entry));
  }
  pumping_ = false;
  // A mid-scan stop (fenced/degraded) leaves overflow entries; return
  // them to the ready map for the recovery pump.
  while (!pump_overflow_.empty()) {
    ReadyEntry entry = std::move(pump_overflow_.front());
    pump_overflow_.pop_front();
    ReadyKey key = entry.key();
    ready_.emplace(key, std::move(entry));
  }
  // Classes that declined this pump sleep until the next capacity event.
  for (const std::string& cls : pump_frozen_) woken_classes_.erase(cls);
  pump_frozen_.clear();
  if (verdict == Verdict::kStopFenced) return;  // stepping down
  SyncObsGauges();
  // Retry while anything is capacity-starved (parked suspended-instance
  // entries alone do not warrant a timer: only RESUME frees them).
  if (starved || NumParkedStarved() > 0) SchedulePumpRetry();
}

EventId Engine::ArmJobWatchdog(cluster::JobId job_id, Duration cost) {
  if (options_.job_timeout_factor <= 0) return kInvalidEventId;
  Duration timeout =
      cost * options_.job_timeout_factor + options_.job_timeout_slack;
  return sim_->ScheduleDaemon(timeout, [this, job_id] {
    if (!up_) return;
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;  // reported in time
    // This event is the watchdog: clear the handle before TakeJob so it
    // does not try to cancel the event that is currently running.
    it->second.watchdog = kInvalidEventId;
    PendingJob pending = TakeJob(it, /*failed=*/true, "timed_out");
    // The PEC never reported (lost report, silent stall, partition):
    // declare the job lost and re-schedule (paper event 10, automated).
    // The kill carries this attempt's fence: even if the node is alive
    // and finishes later, its zombie report is fenced off.
    SendKill(pending.node, job_id, pending.fence);
    AppendHistory(pending.instance_id,
                  StrFormat("job for %s on %s timed out; re-scheduling",
                            pending.path.c_str(), pending.node.c_str()));
    if (timed_out_metric_ != nullptr) timed_out_metric_->Increment();
    RequeueLostJob(std::move(pending), "timed_out");
  });
}

void Engine::RequeueLostJob(PendingJob pending, std::string_view outcome) {
  ProcessInstance* inst = FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  navigator_.MarkReady(inst, node, &batch);
  RecordLineageOutcome(pending, outcome, /*with_outputs=*/false, &batch);
  Status st = Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "lost-job requeue commit failed: " << st.ToString();
    return;
  }
  ReadyEntry entry;
  entry.cached = ActivityOutput{pending.outputs, pending.cost,
                                std::move(pending.params)};
  entry.input_desc = std::move(pending.input_desc);
  entry.avoid_node = pending.node;
  EnqueueReady(inst, node, std::move(entry));
  PumpDispatch();
}

Result<Duration> Engine::EstimateRemainingWork(
    const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  // Outstanding jobs contribute their known costs.
  double seconds = 0;
  if (auto it = jobs_by_instance_.find(instance_id);
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      seconds += jobs_.at(job_id).cost.ToSeconds();
    }
  }
  // Ready/waiting activities are estimated at the mean completed cost.
  double mean = inst->stats().activities_completed > 0
                    ? inst->stats().cpu_seconds /
                          static_cast<double>(
                              inst->stats().activities_completed)
                    : 0;
  size_t outstanding = inst->ActivitiesInState(TaskState::kReady) +
                       inst->ActivitiesInState(TaskState::kRetryWait) +
                       inst->ActivitiesInState(TaskState::kEventWait) +
                       inst->ActivitiesInState(TaskState::kInactive);
  // Repeated addition (not mean * outstanding) keeps the result
  // bit-identical to the old per-node accumulation.
  for (size_t i = 0; i < outstanding; ++i) seconds += mean;
  return Duration::Seconds(seconds);
}

Result<std::vector<Engine::TaskRow>> Engine::ListTasks(
    const std::string& instance_id) const {
  const ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  std::map<std::string, std::string> nodes_by_path;
  if (auto it = jobs_by_instance_.find(instance_id);
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      const PendingJob& pending = jobs_.at(job_id);
      nodes_by_path[pending.path] = pending.node;
    }
  }
  std::vector<TaskRow> rows;
  inst->ForEachNode([&](const TaskNode* node) {
    TaskRow row;
    row.path = node->path;
    row.state = node->state;
    auto it = nodes_by_path.find(node->path);
    if (it != nodes_by_path.end()) row.node = it->second;
    row.started = node->started;
    row.finished = node->finished;
    row.cost = node->cost;
    row.attempts = node->attempts;
    rows.push_back(std::move(row));
  });
  return rows;
}

void Engine::CheckMigrations() {
  if (!options_.migration_enabled || !up_) return;
  RecordStore::CommitScope commit_group(spaces_.store());
  // Saturation is a per-node property: use the node index so only jobs on
  // saturated nodes are examined, then probe placements in JobId order
  // (stateful policies — round-robin, random — see the same call sequence
  // as the old full-table scan).
  std::vector<cluster::JobId> candidates;
  for (const auto& [node_name, job_ids] : jobs_by_node_) {
    const monitor::AwarenessModel::NodeView* view = awareness_.Find(node_name);
    if (view == nullptr || !view->up) continue;
    // Node saturated by external users: our nice jobs make ~no progress.
    if (view->reported_load < 0.999) continue;
    candidates.insert(candidates.end(), job_ids.begin(), job_ids.end());
  }
  std::sort(candidates.begin(), candidates.end());
  std::vector<cluster::JobId> to_migrate;
  for (cluster::JobId job_id : candidates) {
    const PendingJob& pending = jobs_.at(job_id);
    // Only migrate if somewhere else has a free CPU right now.
    ProcessInstance* inst = FindInstance(pending.instance_id);
    if (inst == nullptr || inst->state() != InstanceState::kRunning) continue;
    TaskNode* node = inst->FindByPath(pending.path);
    if (node == nullptr) continue;
    sched::PlacementRequest request;
    request.resource_class = node->def->resource_class;
    request.estimated_work = pending.cost;
    std::string target = policy_->Place(request, awareness_);
    if (!target.empty() && target != pending.node) {
      to_migrate.push_back(job_id);
    }
  }
  for (cluster::JobId job_id : to_migrate) {
    const PendingJob& doomed = jobs_.at(job_id);
    SendKill(doomed.node, job_id, doomed.fence);
    PendingJob pending = TakeJob(job_id, /*failed=*/false, "migrated");
    ProcessInstance* inst = FindInstance(pending.instance_id);
    TaskNode* node = inst->FindByPath(pending.path);
    WriteBatch batch;
    navigator_.MarkReady(inst, node, &batch);
    RecordLineageOutcome(pending, "migrated", /*with_outputs=*/false, &batch);
    Status st = Commit(&batch);
    if (!st.ok()) {
      BIOPERA_LOG(kError) << "migration commit failed: " << st.ToString();
    }
    AppendHistory(pending.instance_id,
                  StrFormat("migrating %s away from saturated %s",
                            pending.path.c_str(), pending.node.c_str()));
    if (migrations_metric_ != nullptr) migrations_metric_->Increment();
    // Re-queue with the computed result cached: the work itself restarts
    // on the new node (kill-and-restart), but the deterministic outputs
    // need not be recomputed.
    ReadyEntry entry;
    entry.cached = ActivityOutput{pending.outputs, pending.cost,
                                  std::move(pending.params)};
    entry.input_desc = std::move(pending.input_desc);
    EnqueueReady(inst, node, std::move(entry));
  }
  if (!to_migrate.empty()) PumpDispatch();
}

// ---------------------------------------------------------------------------
// Cluster events
// ---------------------------------------------------------------------------

void Engine::ApplyJobOutcome(cluster::JobId id, bool failed,
                             const std::string& reason) {
  if (!up_) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;  // stale report from before a crash
  const std::string_view outcome = failed ? "failed" : "completed";
  PendingJob pending = TakeJob(it, failed, outcome);
  ProcessInstance* inst = FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  if (!failed && options_.job_cost_sensor != nullptr) {
    // Streaming straggler sensor: virtual compute cost of every completed
    // job, independent of whether an Observability context is attached.
    options_.job_cost_sensor->Observe(pending.cost.ToSeconds());
  }
  if (!failed && completed_metric_ != nullptr) {
    completed_metric_->Increment();
    task_cost_metric_->Observe(pending.cost.ToSeconds());
  }
  RecordStore::CommitScope commit_group(spaces_.store());
  WriteBatch batch;
  RecordLineageOutcome(pending, outcome, /*with_outputs=*/!failed, &batch);
  Status st = failed ? navigator_.Fail(inst, node, reason, &batch)
                     : navigator_.Complete(inst, node,
                                           std::move(pending.outputs),
                                           pending.cost, &batch);
  if (st.ok()) st = Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "could not apply the " << outcome << " report of "
                        << pending.path << ": " << st.ToString();
  }
  if (!st.ok() && !failed) {
    if (RecordStore::IsFenced(st)) return;  // step-down already scheduled
    if (st.IsIOError()) {
      // A disk error does not fail the instance: the completed transition
      // is already in the image (group mode) and the degraded-mode retry
      // makes it durable once the disk heals.
      EnterDegraded(st);
      return;
    }
    SetInstanceState(inst, InstanceState::kFailed);
  }
  PumpDispatch();
}

void Engine::OnJobFailed(cluster::JobId id, const std::string& /*node*/,
                         const std::string& reason) {
  ApplyJobOutcome(id, /*failed=*/true, reason);
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
  WakeClassesForNode(node);
  if (options_.adaptive_monitoring && !monitors_.contains(node)) {
    auto probe = [this, node]() {
      return cluster_->ExternalLoadFraction(node);
    };
    auto report = [this, node](double load) {
      awareness_.UpdateLoad(node, load, sim_->Now());
      WakeClassesForNode(node);
      CheckMigrations();
      PumpDispatch();
    };
    auto mon = std::make_unique<monitor::AdaptiveMonitor>(
        sim_, monitor::AdaptiveMonitorOptions{}, probe, report);
    if (options_.observability != nullptr) {
      mon->SetMetrics(&options_.observability->metrics, node);
    }
    mon->Start();
    monitors_[node] = std::move(mon);
  }
  PumpDispatch();
}

void Engine::OnLoadReport(const std::string& node, double load) {
  if (!up_) return;
  if (options_.adaptive_monitoring) return;  // monitors poll instead
  awareness_.UpdateLoad(node, load, sim_->Now());
  WakeClassesForNode(node);
  CheckMigrations();
  PumpDispatch();
}

void Engine::OnConfigChanged(const cluster::NodeConfig& config) {
  if (!up_) return;
  awareness_.UpdateConfig(config);
  // Served classes or CPU counts may have changed in any direction.
  WakeAllClasses();
  RecordStore::CommitScope commit_group(spaces_.store());
  Status st = spaces_.PutConfig("node/" + config.name, NodeConfigRow(config));
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "config update failed: " << st.ToString();
  }
  RefreshConfigVersion();
  PumpDispatch();
}

// ---------------------------------------------------------------------------
// Control plane (comms seam)
// ---------------------------------------------------------------------------

void Engine::HandleReport(const comms::Message& msg) {
  if (!up_) return;
  switch (msg.type) {
    case comms::MessageType::kHeartbeat:
      HandleHeartbeat(msg.node);
      return;
    case comms::MessageType::kLoad:
      OnLoadReport(msg.node, msg.load);
      return;
    case comms::MessageType::kCompletion:
    case comms::MessageType::kFailure:
      break;
    default:
      return;  // commands never arrive on the report plane
  }
  auto it = jobs_.find(msg.job);
  if (it == jobs_.end()) {
    // Already applied (a duplicated or reordered report), or a zombie from
    // an attempt this server no longer tracks (killed, condemned,
    // pre-crash). Idempotent drop either way.
    if (dup_reports_metric_ != nullptr) dup_reports_metric_->Increment();
    return;
  }
  if (msg.fence != it->second.fence) {
    // A live job id but the wrong attempt epoch: the fencing token does
    // the tie-break (docs/COMMS.md). Only the current attempt may apply.
    if (fenced_reports_metric_ != nullptr) fenced_reports_metric_->Increment();
    return;
  }
  ApplyJobOutcome(msg.job, msg.type == comms::MessageType::kFailure,
                  msg.reason);
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
  FlushPendingKills(node);
  // Command plane (re)established. Restore placement eligibility unless
  // the lease detector disagrees (suspected/condemned nodes rejoin via
  // heartbeats only) or the node itself is dead.
  if (GetLeaseState(node) != LeaseState::kUp) return;
  if (!cluster_->IsUp(node)) return;
  awareness_.NodeUp(node, sim_->Now());
  WakeClassesForNode(node);
  PumpDispatch();
}

void Engine::SendKill(const std::string& node, cluster::JobId job,
                      uint64_t fence) {
  comms::Message msg;
  msg.type = comms::MessageType::kKill;
  msg.node = node;
  msg.job = job;
  msg.fence = fence;
  Status st = channel_->SendCommand(msg);
  if (st.ok() || st.IsNotFound()) {
    // Delivered (NotFound: the job is already gone — same outcome). A
    // FaultChannel drop also lands here: in-flight loss gives no receipt,
    // and the fence protects against the surviving zombie's report.
    if (auto it = pending_kills_.find(job); it != pending_kills_.end()) {
      if (it->second.retry != kInvalidEventId) sim_->Cancel(it->second.retry);
      pending_kills_.erase(it);
    }
    return;
  }
  // Undeliverable (command link down): never silently forgotten — queue
  // for backoff retries and for an immediate flush when the link heals.
  auto [it, inserted] = pending_kills_.try_emplace(job);
  PendingKill& kill = it->second;
  kill.node = msg.node;
  kill.fence = fence;
  if (!inserted && kill.retry != kInvalidEventId) return;  // already scheduled
  ScheduleKillRetry(job);
}

void Engine::ScheduleKillRetry(cluster::JobId job) {
  auto it = pending_kills_.find(job);
  if (it == pending_kills_.end()) return;
  PendingKill& kill = it->second;
  if (kill.attempts >= kKillRetryLimit) {
    // Retry budget exhausted: the fence still guarantees the zombie's
    // eventual report cannot double-apply.
    if (kill_gave_up_metric_ != nullptr) kill_gave_up_metric_->Increment();
    pending_kills_.erase(it);
    return;
  }
  Duration delay =
      comms::RetryBackoff(kKillRetryBase, kKillRetryMax, options_.seed,
                          kill.node, job, kill.attempts);
  ++kill.attempts;
  // A regular event (not a daemon): an owed kill keeps the run alive, but
  // only until the bounded retries run out.
  kill.retry = sim_->Schedule(delay, [this, job] {
    auto retry_it = pending_kills_.find(job);
    if (retry_it == pending_kills_.end()) return;
    retry_it->second.retry = kInvalidEventId;
    if (kill_retries_metric_ != nullptr) kill_retries_metric_->Increment();
    SendKill(retry_it->second.node, job, retry_it->second.fence);
  });
}

void Engine::FlushPendingKills(const std::string& node) {
  std::vector<cluster::JobId> due;
  for (const auto& [job, kill] : pending_kills_) {
    if (kill.node == node) due.push_back(job);
  }
  for (cluster::JobId job : due) {
    auto it = pending_kills_.find(job);
    if (it == pending_kills_.end()) continue;
    if (it->second.retry != kInvalidEventId) {
      sim_->Cancel(it->second.retry);
      it->second.retry = kInvalidEventId;
    }
    SendKill(node, job, it->second.fence);
  }
}

void Engine::CancelPendingKills() {
  for (auto& [job, kill] : pending_kills_) {
    if (kill.retry != kInvalidEventId) sim_->Cancel(kill.retry);
  }
  pending_kills_.clear();
}

// ---------------------------------------------------------------------------
// Lease-based failure detection (heartbeat mode)
// ---------------------------------------------------------------------------

Engine::LeaseState Engine::GetLeaseState(const std::string& node) const {
  if (options_.heartbeat_interval <= Duration::Zero()) {
    // Legacy mode: detection is instantaneous, so known nodes are kUp.
    return cluster_->GetNode(node).ok() ? LeaseState::kUp
                                        : LeaseState::kUnknown;
  }
  auto it = leases_.find(node);
  return it == leases_.end() ? LeaseState::kUnknown : it->second.state;
}

void Engine::ArmLeaseCheck() {
  if (options_.heartbeat_interval <= Duration::Zero()) return;
  lease_check_ = sim_->ScheduleDaemon(options_.heartbeat_interval, [this] {
    lease_check_ = kInvalidEventId;
    if (!up_) return;
    CheckLeases();
    ArmLeaseCheck();
  });
}

void Engine::CheckLeases() {
  const TimePoint now = sim_->Now();
  const Duration suspect_after =
      options_.heartbeat_interval * options_.lease_misses_to_suspect;
  // Decide first, act second: SuspectNode's probe can reconcile a node
  // synchronously, and CondemnNode re-queues work — neither may mutate
  // the table mid-scan.
  std::vector<std::string> to_suspect;
  std::vector<std::string> to_condemn;
  for (const auto& [name, lease] : leases_) {
    switch (lease.state) {
      case LeaseState::kUp:
        if (now - lease.last_heartbeat >= suspect_after) {
          to_suspect.push_back(name);
        }
        break;
      case LeaseState::kSuspected:
        if (now - lease.suspected_at >= options_.lease_condemn_grace) {
          to_condemn.push_back(name);
        }
        break;
      default:
        break;  // condemned nodes rejoin only via a heartbeat
    }
  }
  for (const std::string& name : to_suspect) SuspectNode(name);
  for (const std::string& name : to_condemn) CondemnNode(name);
}

void Engine::HandleHeartbeat(const std::string& node) {
  if (!up_ || options_.heartbeat_interval <= Duration::Zero()) return;
  auto it = leases_.try_emplace(node).first;  // nodes may join after Startup
  NodeLease& lease = it->second;
  lease.last_heartbeat = sim_->Now();
  switch (lease.state) {
    case LeaseState::kUp:
      break;
    case LeaseState::kSuspected:
      ReconcileNode(node);
      break;
    case LeaseState::kCondemned: {
      // The node outlived its condemnation (it really crashed and came
      // back, or a long partition healed). Rejoin: its old jobs were
      // already re-queued; pending kills fence off any zombies.
      lease.state = LeaseState::kUp;
      if (reconciled_metric_ != nullptr) reconciled_metric_->Increment();
      OnNodeUp(node);
      FlushPendingKills(node);
      break;
    }
    default:
      break;
  }
}

void Engine::SuspectNode(const std::string& node) {
  auto it = leases_.find(node);
  if (it == leases_.end() || it->second.state != LeaseState::kUp) return;
  NodeLease& lease = it->second;
  lease.state = LeaseState::kSuspected;
  lease.suspected_at = sim_->Now();
  if (suspected_metric_ != nullptr) {
    suspected_metric_->Increment();
    suspected_gauge_->Add(1);
  }
  if (spans_ != nullptr) {
    lease.suspicion_span = spans_->Begin(
        obs::SpanKind::kSuspicion, "suspected " + node, /*parent=*/0,
        /*link=*/0, /*instance=*/"", /*task=*/"", node, {});
  }
  // Stop placing work on the suspect (the scheduler consults awareness);
  // jobs already there keep running — a false suspicion must not lose
  // them. The adaptive monitor stays: its samples are harmless.
  awareness_.NodeDown(node, sim_->Now());
  // Ask directly. A reachable PEC answers with a heartbeat, reconciling
  // the suspicion (possibly synchronously, on a lossless channel).
  comms::Message probe;
  probe.type = comms::MessageType::kProbe;
  probe.node = node;
  (void)channel_->SendCommand(probe);
}

void Engine::ReconcileNode(const std::string& node) {
  auto it = leases_.find(node);
  if (it == leases_.end() || it->second.state != LeaseState::kSuspected) return;
  NodeLease& lease = it->second;
  lease.state = LeaseState::kUp;
  if (reconciled_metric_ != nullptr) {
    reconciled_metric_->Increment();
    suspected_gauge_->Add(-1);
  }
  if (spans_ != nullptr) {
    spans_->End(lease.suspicion_span, "reconciled");
    lease.suspicion_span = 0;
  }
  // False suspicion: restore placement eligibility. Running jobs were
  // never touched, so nothing is lost and nothing re-executes.
  OnNodeUp(node);
}

void Engine::CondemnNode(const std::string& node) {
  auto it = leases_.find(node);
  if (it == leases_.end() || it->second.state != LeaseState::kSuspected) return;
  NodeLease& lease = it->second;
  lease.state = LeaseState::kCondemned;
  if (condemned_metric_ != nullptr) {
    condemned_metric_->Increment();
    suspected_gauge_->Add(-1);
  }
  if (spans_ != nullptr) {
    spans_->End(lease.suspicion_span, "condemned");
    lease.suspicion_span = 0;
  }
  monitors_.erase(node);
  // Give up on the node's outstanding jobs and re-schedule them
  // elsewhere. Each gets a (best-effort) fenced kill: if the node is
  // secretly alive, the kill — or failing that, the fence — neutralizes
  // the zombie attempt.
  std::vector<cluster::JobId> lost;
  if (auto jobs_it = jobs_by_node_.find(node); jobs_it != jobs_by_node_.end()) {
    lost.assign(jobs_it->second.begin(), jobs_it->second.end());
  }
  for (cluster::JobId job_id : lost) {
    PendingJob pending = TakeJob(job_id, /*failed=*/true, "condemned");
    SendKill(node, job_id, pending.fence);
    AppendHistory(pending.instance_id,
                  StrFormat("node %s condemned; re-scheduling %s",
                            node.c_str(), pending.path.c_str()));
    RequeueLostJob(std::move(pending), "condemned");
  }
}

// ---------------------------------------------------------------------------
// Persistence
// ---------------------------------------------------------------------------

Status Engine::Commit(WriteBatch* batch) {
  if (batch->empty()) return Status::OK();
  // Checkpoint cadence is the store's job now (CheckpointPolicy, forwarded
  // in the constructor), so a commit is just an apply.
  Status st = spaces_.Apply(*batch);
  if (!st.ok()) {
    if (!MaybeHandleFenced(st) && st.IsIOError()) EnterDegraded(st);
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

void Engine::RecordLineageDispatch(const ReadyEntry& entry,
                                   const TaskNode* node,
                                   const std::string& target, int attempt,
                                   WriteBatch* batch) {
  Value::Map rec;
  rec["t_dispatch_us"] = Value(sim_->Now().micros());
  rec["node"] = Value(target);
  const std::string& binding = BindingOf(*node);
  if (!binding.empty()) rec["binding"] = Value(binding);
  Value::Map in;
  for (const auto& [key, desc] : entry.input_desc) in[key] = Value(desc);
  if (!in.empty()) rec["in"] = Value(std::move(in));
  Value::Map params;
  for (const auto& [key, desc] : entry.cached->provenance) {
    params[key] = Value(desc);
  }
  if (!params.empty()) rec["param"] = Value(std::move(params));
  // A timeout/migration re-dispatch of the same attempt number overwrites
  // this row — the record describes the dispatch that finally reported.
  spaces_.BatchPutProvenance(batch, entry.instance_id,
                             LineageInKey(entry.path, attempt),
                             EncodeValueRecord(Value(std::move(rec))));
}

void Engine::RecordLineageOutcome(const PendingJob& pending,
                                  std::string_view outcome, bool with_outputs,
                                  WriteBatch* batch) {
  Value::Map rec;
  rec["outcome"] = Value(std::string(outcome));
  rec["t_finish_us"] = Value(sim_->Now().micros());
  rec["cost_us"] = Value(pending.cost.micros());
  if (with_outputs) {
    Value::Map out;
    for (const auto& [key, value] : pending.outputs) {
      out[key] = Value(DescribeValue(value));
    }
    if (!out.empty()) rec["out"] = Value(std::move(out));
  }
  spaces_.BatchPutProvenance(batch, pending.instance_id,
                             LineageOutKey(pending.path, pending.attempt),
                             EncodeValueRecord(Value(std::move(rec))));
}

Result<std::vector<obs::LineageRecord>> Engine::GetTaskLineage(
    const std::string& instance_id) const {
  if (FindInstance(instance_id) == nullptr &&
      navigator_.ReadHeader(instance_id).status().IsNotFound()) {
    return Status::NotFound("no instance " + instance_id);
  }
  return LineageFromRows(instance_id, spaces_.ScanProvenance(instance_id));
}

Result<std::vector<obs::LineageRecord>> Engine::LineageFromRows(
    const std::string& instance_id,
    std::span<const RecordStore::RowView> rows) {
  std::vector<obs::LineageRecord> out;
  // Provenance keys sort as (path, attempt, in-before-out), so one pass
  // pairs each attempt's rows.
  for (const auto& [key, text] : rows) {
    bool is_in = false;
    std::string_view base = key;
    if (base.size() > 3 && base.substr(base.size() - 3) == "/in") {
      is_in = true;
      base.remove_suffix(3);
    } else if (base.size() > 4 && base.substr(base.size() - 4) == "/out") {
      base.remove_suffix(4);
    } else {
      continue;  // unknown row shape (forward compatibility)
    }
    // base = "<path>/aNNNN"
    size_t slash = base.rfind('/');
    if (slash == std::string_view::npos || slash + 2 > base.size() ||
        base[slash + 1] != 'a') {
      continue;
    }
    long long attempt = 0;
    if (!ParseInt64(std::string(base.substr(slash + 2)), &attempt)) continue;
    std::string path(base.substr(0, slash));
    BIOPERA_ASSIGN_OR_RETURN(Value v, DecodeValueRecord(text));
    if (!v.is_map()) {
      return Status::Corruption("bad provenance row " + std::string(key));
    }
    const Value::Map& rec = v.AsMap();
    obs::LineageRecord* record = nullptr;
    if (!out.empty() && out.back().task == path &&
        out.back().attempt == static_cast<int>(attempt)) {
      record = &out.back();
    } else {
      out.emplace_back();
      record = &out.back();
      record->instance = instance_id;
      record->task = std::move(path);
      record->attempt = static_cast<int>(attempt);
    }
    auto copy_descriptors =
        [&rec](const char* field,
               std::vector<std::pair<std::string, std::string>>* dst) {
          auto it = rec.find(field);
          if (it == rec.end() || !it->second.is_map()) return;
          for (const auto& [key2, value] : it->second.AsMap()) {
            if (value.is_string()) dst->emplace_back(key2, value.AsString());
          }
        };
    if (is_in) {
      record->binding = RecordString(rec, "binding");
      record->node = RecordString(rec, "node");
      record->dispatch_us = RecordInt(rec, "t_dispatch_us", 0);
      copy_descriptors("in", &record->inputs);
      copy_descriptors("param", &record->params);
    } else {
      record->outcome = RecordString(rec, "outcome");
      record->finish_us = RecordInt(rec, "t_finish_us", -1);
      record->cost_us = RecordInt(rec, "cost_us", -1);
      copy_descriptors("out", &record->outputs);
    }
  }
  return out;
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
        spans_->Begin(obs::SpanKind::kRecovery, "recover", InstanceSpanId(raw),
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
  if (recovered_metric_ != nullptr) recovered_metric_->Increment(requeued);
  return Status::OK();
}

}  // namespace biopera::core
