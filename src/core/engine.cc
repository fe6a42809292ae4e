#include "core/engine.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/barrier_profile.h"
#include "obs/json.h"
#include "obs/quantile.h"
#include "ocr/ocr_text.h"
#include "store/codec.h"

namespace biopera::core {

/// One speculative activity execution: the input it ran with (captured on
/// the engine thread), and the result filled in by a pool worker. The
/// pool's batch join publishes `output` before the scan reads it.
struct Engine::PreExecState {
  ActivityInput input;
  std::optional<Result<ActivityOutput>> output;
};

using ocr::ControlConnector;
using ocr::ProcessDef;
using ocr::TaskDef;
using ocr::TaskKind;
using ocr::Value;

namespace {

// ---------------------------------------------------------------------------
// Reference resolution
// ---------------------------------------------------------------------------

/// Descends a dotted path inside a Value (maps only).
Result<Value> Descend(const Value& v, const std::vector<std::string>& path,
                      size_t from) {
  const Value* cur = &v;
  for (size_t i = from; i < path.size(); ++i) {
    if (!cur->is_map()) {
      return Status::NotFound("cannot descend into non-map at " + path[i]);
    }
    auto it = cur->AsMap().find(path[i]);
    if (it == cur->AsMap().end()) {
      return Status::NotFound("no field " + path[i]);
    }
    cur = &it->second;
  }
  return *cur;
}

/// Sets `value` at a dotted path inside `map`, creating nested maps.
Status SetIntoMap(Value::Map* map, const std::vector<std::string>& path,
                  size_t from, Value value) {
  assert(from < path.size());
  Value::Map* cur = map;
  for (size_t i = from; i + 1 < path.size(); ++i) {
    Value& slot = (*cur)[path[i]];
    if (!slot.is_map()) slot = Value(Value::Map{});
    cur = &slot.AsMap();
  }
  (*cur)[path.back()] = std::move(value);
  return Status::OK();
}

Result<std::vector<std::string>> SplitRef(const std::string& ref) {
  BIOPERA_ASSIGN_OR_RETURN(ocr::Expr e, ocr::Expr::Parse(ref));
  if (e.kind() != ocr::Expr::Kind::kRef) {
    return Status::InvalidArgument("not a data reference: " + ref);
  }
  return e.ref_path();
}

/// Evaluation context rooted at one scope node: resolves wb.*, sibling
/// task outputs, and parallel-body locals (item / index).
class ScopeEvalContext : public ocr::EvalContext {
 public:
  ScopeEvalContext(TaskNode* scope, const TaskNode* current)
      : scope_(scope), current_(current) {}

  Result<Value> Lookup(const std::vector<std::string>& path) const override {
    if (path.empty()) return Status::InvalidArgument("empty reference");
    const std::string& root = path[0];
    if (root == "wb") {
      if (path.size() < 2) return Status::InvalidArgument("bare wb ref");
      Value::Map* wb = scope_->ScopeWhiteboard();
      auto it = wb->find(path[1]);
      if (it == wb->end()) return Status::NotFound("no wb var " + path[1]);
      return Descend(it->second, path, 2);
    }
    if (root == "item" || root == "index") {
      const TaskNode* body =
          current_ != nullptr ? current_->BodyAncestor() : nullptr;
      if (body == nullptr) body = scope_->BodyAncestor();
      if (body == nullptr) {
        return Status::NotFound("no parallel body in scope for " + root);
      }
      if (root == "index") return Value(body->index);
      return Descend(body->item, path, 1);
    }
    // Sibling task outputs: <task>.out.<field>...
    TaskNode* sibling = scope_->FindChild(root);
    if (sibling == nullptr) {
      return Status::NotFound("no task or variable " + root);
    }
    if (path.size() < 2 || path[1] != "out") {
      return Status::InvalidArgument("task reference must use " + root +
                                     ".out.*");
    }
    if (path.size() == 2) return Value(sibling->outputs);
    auto it = sibling->outputs.find(path[2]);
    if (it == sibling->outputs.end()) {
      return Status::NotFound("no output field " + path[2]);
    }
    return Descend(it->second, path, 3);
  }

 private:
  TaskNode* scope_;
  const TaskNode* current_;
};

// ---------------------------------------------------------------------------
// Persistence record codecs: Value::Map <-> marker-framed binary records
// (store/codec.h).
// ---------------------------------------------------------------------------

std::string TaskRecordKey(const std::string& path) { return "task/" + path; }

std::string EncodeTaskRecord(const TaskNode& node) {
  Value::Map rec;
  rec["state"] = Value(std::string(TaskStateName(node.state)));
  rec["attempts"] = Value(static_cast<int64_t>(node.attempts));
  if (!node.binding_used.empty()) rec["binding"] = Value(node.binding_used);
  if (!node.outputs.empty()) rec["outputs"] = Value(node.outputs);
  if (node.cost != Duration::Zero()) {
    rec["cost_us"] = Value(node.cost.micros());
  }
  rec["started_us"] = Value(node.started.micros());
  rec["finished_us"] = Value(node.finished.micros());
  if (!node.expansion.is_null()) rec["expansion"] = node.expansion;
  if (node.sub_def != nullptr) rec["sub"] = Value(node.sub_def->name);
  return EncodeValueRecord(Value(std::move(rec)));
}

std::string EncodeWhiteboard(const Value::Map& wb) {
  return EncodeValueRecord(Value(wb));
}

std::string EncodeHeader(const ProcessInstance& inst) {
  Value::Map rec;
  rec["template"] = Value(inst.def().name);
  rec["state"] = Value(std::string(InstanceStateName(inst.state())));
  rec["priority"] = Value(static_cast<int64_t>(inst.priority()));
  rec["cpu_seconds"] = Value(inst.stats().cpu_seconds);
  rec["completed"] =
      Value(static_cast<int64_t>(inst.stats().activities_completed));
  rec["failed"] = Value(static_cast<int64_t>(inst.stats().activities_failed));
  rec["started_us"] = Value(inst.stats().started.micros());
  rec["finished_us"] = Value(inst.stats().finished.micros());
  Value::Map lineage;
  for (const auto& [var, writer] : inst.lineage()) {
    lineage[var] = Value(writer);
  }
  rec["lineage"] = Value(std::move(lineage));
  if (!inst.raised_events().empty()) {
    Value::List events;
    for (const auto& event : inst.raised_events()) {
      events.emplace_back(event);
    }
    rec["events"] = Value(std::move(events));
  }
  return EncodeValueRecord(Value(std::move(rec)));
}

int64_t RecInt(const Value::Map& rec, const std::string& key, int64_t dflt) {
  auto it = rec.find(key);
  if (it == rec.end() || !it->second.is_number()) return dflt;
  return it->second.is_int() ? it->second.AsInt()
                             : static_cast<int64_t>(it->second.AsDouble());
}

double RecDouble(const Value::Map& rec, const std::string& key, double dflt) {
  auto it = rec.find(key);
  if (it == rec.end() || !it->second.is_number()) return dflt;
  return it->second.AsDouble();
}

std::string RecString(const Value::Map& rec, const std::string& key) {
  auto it = rec.find(key);
  return it != rec.end() && it->second.is_string() ? it->second.AsString()
                                                   : std::string();
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

/// Creates, indexes, and attaches one child node under `parent`. Shared
/// by ExpandComposite and RecoverInstance so expansion and recovery stay
/// in lockstep.
TaskNode* AddChildNode(ProcessInstance* inst, TaskNode* parent,
                       const TaskDef* def, std::string path) {
  auto child = std::make_unique<TaskNode>();
  child->def = def;
  child->parent = parent;
  child->path = std::move(path);
  TaskNode* raw = child.get();
  inst->IndexNode(raw);
  parent->children.push_back(std::move(child));
  return raw;
}

/// The binding an activity node runs: the alternative after failures
/// switched it, else its definition's (empty for a node without one).
const std::string& BindingOf(const TaskNode& node) {
  return node.binding_used.empty() && node.def != nullptr ? node.def->binding
                                                          : node.binding_used;
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
      rng_(options.seed) {
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
  RecordStore::CommitScope commit_group(GroupTarget());

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
    // Record hardware characteristics in the configuration space.
    Value::Map cfg;
    cfg["cpus"] = Value(static_cast<int64_t>(node.num_cpus));
    cfg["speed"] = Value(node.speed);
    cfg["os"] = Value(node.os);
    cfg["classes"] = Value(node.resource_classes);
    BIOPERA_RETURN_IF_ERROR(
        spaces_.PutConfig("node/" + node.name, Value(cfg).ToText()));
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

  // Recover every persisted instance, from one ordered pass over the
  // instance space.
  for (Spaces::InstanceRecords& group : spaces_.ScanInstances()) {
    Status st = RecoverInstance(group.id, std::move(group.rows));
    if (!st.ok()) {
      BIOPERA_LOG(kError) << "recovery of " << group.id << " failed: "
                          << st.ToString();
      return st;
    }
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

void Engine::Crash() {
  if (spans_ != nullptr) {
    // Every queued attempt and running job dies with the server; instance
    // spans stay open — the server-down window explains the causal gap
    // until recovery re-queues the work.
    for (const auto& [key, entry] : ready_) {
      EndAttemptSpan(entry.attempt_span, "killed");
    }
    for (const auto& [cls, entries] : parked_by_class_) {
      for (const auto& [key, entry] : entries) {
        EndAttemptSpan(entry.attempt_span, "killed");
      }
    }
    for (const auto& [id, entries] : parked_by_instance_) {
      for (const auto& [key, entry] : entries) {
        EndAttemptSpan(entry.attempt_span, "killed");
      }
    }
    for (const ReadyEntry& entry : pump_overflow_) {
      EndAttemptSpan(entry.attempt_span, "killed");
    }
    for (const auto& [job_id, pending] : jobs_) {
      spans_->End(pending.job_span, "killed");
      EndAttemptSpan(pending.attempt_span, "killed");
    }
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
  if (lease_check_ != kInvalidEventId) {
    sim_->Cancel(lease_check_);
    lease_check_ = kInvalidEventId;
  }
  if (spans_ != nullptr) {
    for (const auto& [name, lease] : leases_) {
      spans_->End(lease.suspicion_span, "server_crashed");
    }
  }
  leases_.clear();
  if (suspected_gauge_ != nullptr) suspected_gauge_->Set(0);
  DropVolatileState();
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
  degraded_backoff_ = options_.degraded_retry_initial;
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
    degraded_backoff_ =
        std::min(degraded_backoff_ * 2, options_.degraded_retry_max);
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
  RecordStore::CommitScope commit_group(GroupTarget());
  if (Status st = spaces_.PutTemplate(def.name, ocr::PrintOcr(def));
      !st.ok()) {
    MaybeHandleFenced(st);
    return st;
  }
  // Retire (but keep alive) any cached parse: existing instances hold
  // pointers into it; new activations late-bind to the fresh text.
  auto it = template_cache_.find(def.name);
  if (it != template_cache_.end()) {
    retired_defs_.push_back(std::move(it->second));
    template_cache_.erase(it);
  }
  return Status::OK();
}

std::vector<std::string> Engine::ListTemplates() const {
  return spaces_.ListTemplates();
}

Result<const ProcessDef*> Engine::ResolveTemplate(const std::string& name) {
  auto it = template_cache_.find(name);
  if (it != template_cache_.end()) return it->second.get();
  BIOPERA_ASSIGN_OR_RETURN(std::string text, spaces_.GetTemplate(name));
  BIOPERA_ASSIGN_OR_RETURN(ProcessDef def, ocr::ParseOcr(text));
  auto owned = std::make_unique<ProcessDef>(std::move(def));
  const ProcessDef* ptr = owned.get();
  template_cache_[name] = std::move(owned);
  return ptr;
}

// ---------------------------------------------------------------------------
// Instance control
// ---------------------------------------------------------------------------

Result<std::string> Engine::StartProcess(const std::string& template_name,
                                         const Value::Map& args,
                                         int priority) {
  if (!up_) return Status::Unavailable("server is down");
  RecordStore::CommitScope commit_group(GroupTarget());
  BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* def,
                           ResolveTemplate(template_name));
  std::string id = StrFormat("%s-%06llu", template_name.c_str(),
                             static_cast<unsigned long long>(
                                 next_instance_seq_++));
  BIOPERA_RETURN_IF_ERROR(
      spaces_.PutConfig("next_instance_seq",
                        StrFormat("%llu", static_cast<unsigned long long>(
                                              next_instance_seq_))));

  auto inst = std::make_unique<ProcessInstance>(id, def);
  inst->set_priority(priority);
  inst->stats().started = sim_->Now();
  for (const auto& [key, value] : args) {
    inst->whiteboard()[key] = value;
  }
  ProcessInstance* raw = inst.get();
  instances_[id] = std::move(inst);
  if (spans_ != nullptr) {
    raw->set_span_id(spans_->Begin(
        obs::SpanKind::kInstance, id, /*parent=*/0, /*link=*/0,
        /*instance=*/id, /*task=*/"", /*node=*/"",
        {{"template", template_name},
         {"priority", StrFormat("%d", priority)}}));
  }

  WriteBatch batch;
  PersistHeader(raw, &batch);
  PersistWhiteboard(raw, raw->root(), &batch);
  BIOPERA_RETURN_IF_ERROR(EvaluateScope(raw, raw->root(), &batch));
  BIOPERA_RETURN_IF_ERROR(MaybeCompleteScope(raw, raw->root(), &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
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
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  PersistHeader(inst, &batch);
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
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  PersistHeader(inst, &batch);
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "resumed");
  WakeInstance(instance_id);
  PumpDispatch();
  return Status::OK();
}

Status Engine::Abort(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  // Kill this instance's running jobs.
  std::vector<cluster::JobId> to_kill;
  if (auto it = jobs_by_instance_.find(instance_id);
      it != jobs_by_instance_.end()) {
    to_kill.assign(it->second.begin(), it->second.end());
  }
  for (cluster::JobId job_id : to_kill) {
    const PendingJob& doomed = jobs_.at(job_id);
    SendKill(doomed.node, job_id, doomed.fence);
    TakeJob(job_id, /*failed=*/false, "killed");
  }
  DropParkedForInstance(instance_id);
  SetInstanceState(inst, InstanceState::kAborted);
  if (spans_ != nullptr) {
    spans_->End(inst->span_id(), "aborted");
    inst->set_span_id(0);
  }
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  PersistHeader(inst, &batch);
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "aborted");
  SyncObsGauges();
  return Status::OK();
}

Status Engine::Restart(const std::string& instance_id) {
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  SetInstanceState(inst, InstanceState::kRunning);
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  // Re-queue permanently failed and stuck work; completed activities keep
  // their checkpointed results. Outstanding jobs of this instance are
  // killed and re-scheduled (the paper's event 10: a restart immediately
  // re-schedules TEUs that never reported).
  std::vector<cluster::JobId> stale;
  if (auto it = jobs_by_instance_.find(instance_id);
      it != jobs_by_instance_.end()) {
    stale.assign(it->second.begin(), it->second.end());
  }
  for (cluster::JobId job_id : stale) {
    const PendingJob& doomed = jobs_.at(job_id);
    SendKill(doomed.node, job_id, doomed.fence);
    TakeJob(job_id, /*failed=*/false, "killed");
  }
  // Entries parked while the instance was suspended are dispatchable again.
  WakeInstance(instance_id);
  inst->ForEachNode([&](TaskNode* node) {
    switch (node->state) {
      case TaskState::kFailed:
      case TaskState::kRetryWait:
      case TaskState::kRunning:
        node->attempts = 0;
        if (node->kind() == TaskKind::kActivity) {
          inst->SetTaskState(node, TaskState::kReady);
          EnqueueReady(inst, node);
        } else {
          // Composite: children re-queue themselves; mark running again.
          inst->SetTaskState(node, TaskState::kRunning);
        }
        PersistTask(inst, node, &batch);
        break;
      case TaskState::kSkipped:
        // Dead paths may have been skipped because their source failed;
        // reset and let re-evaluation decide again.
        inst->SetTaskState(node, TaskState::kInactive);
        PersistTask(inst, node, &batch);
        break;
      default:
        break;
    }
  });
  PersistHeader(inst, &batch);
  // Re-run navigation over every active scope: connectors whose sources
  // are already complete must re-activate the tasks we just reset.
  BIOPERA_RETURN_IF_ERROR(ReevaluateAll(inst, &batch));
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  AppendHistory(instance_id, "restarted");
  PumpDispatch();
  return Status::OK();
}

Status Engine::ReevaluateAll(ProcessInstance* inst, WriteBatch* batch) {
  // Bottom-up over composite scopes so child completions bubble upward.
  std::function<Status(TaskNode*)> visit = [&](TaskNode* scope) -> Status {
    for (auto& child : scope->children) {
      if (!child->children.empty() &&
          child->state == TaskState::kRunning) {
        BIOPERA_RETURN_IF_ERROR(visit(child.get()));
      }
    }
    if (scope->is_root() || scope->state == TaskState::kRunning) {
      BIOPERA_RETURN_IF_ERROR(EvaluateScope(inst, scope, batch));
      BIOPERA_RETURN_IF_ERROR(MaybeCompleteScope(inst, scope, batch));
    }
    return Status::OK();
  };
  return visit(inst->root());
}

void Engine::DiscardSubtree(ProcessInstance* inst, TaskNode* node,
                            WriteBatch* batch) {
  // Kill any outstanding jobs under this subtree first. Only this
  // instance's jobs are examined (per-instance index), in JobId order.
  std::vector<cluster::JobId> stale;
  if (auto it = jobs_by_instance_.find(inst->id());
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      TaskNode* owner = inst->FindByPath(jobs_.at(job_id).path);
      for (TaskNode* walk = owner; walk != nullptr; walk = walk->parent) {
        if (walk == node) {
          stale.push_back(job_id);
          break;
        }
      }
    }
  }
  for (cluster::JobId job_id : stale) {
    const PendingJob& doomed = jobs_.at(job_id);
    SendKill(doomed.node, job_id, doomed.fence);
    TakeJob(job_id, /*failed=*/false, "killed");
  }
  std::function<void(TaskNode*)> discard = [&](TaskNode* n) {
    for (auto& child : n->children) {
      discard(child.get());
      spaces_.BatchDeleteInstanceRecord(batch, inst->id(),
                                        "task/" + child->path);
      if (child->own_whiteboard != nullptr) {
        spaces_.BatchDeleteInstanceRecord(batch, inst->id(),
                                          "wb/" + child->path);
      }
      inst->UnindexNode(child.get());
    }
    n->children.clear();
  };
  discard(node);
}

Status Engine::Invalidate(const std::string& instance_id,
                          const std::string& task_name) {
  if (!up_) return Status::Unavailable("server is down");
  ProcessInstance* inst = FindInstance(instance_id);
  if (inst == nullptr) return Status::NotFound("no instance " + instance_id);
  if (inst->state() == InstanceState::kAborted) {
    return Status::FailedPrecondition("instance aborted");
  }
  TaskNode* target = inst->root()->FindChild(task_name);
  if (target == nullptr) {
    return Status::NotFound("no top-level task " + task_name);
  }
  // Transitive control-flow closure over the top-level connectors.
  std::set<std::string> affected = {task_name};
  bool grew = true;
  while (grew) {
    grew = false;
    for (const ocr::ControlConnector& conn : inst->def().connectors) {
      if (affected.contains(conn.source) && !affected.contains(conn.target)) {
        affected.insert(conn.target);
        grew = true;
      }
    }
  }
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  for (const std::string& name : affected) {
    TaskNode* node = inst->root()->FindChild(name);
    if (node == nullptr || node->state == TaskState::kInactive) continue;
    DiscardSubtree(inst, node, &batch);
    inst->SetTaskState(node, TaskState::kInactive);
    node->attempts = 0;
    node->outputs.clear();
    node->expansion = Value();
    node->sub_def = nullptr;
    node->own_whiteboard.reset();
    node->connectors = nullptr;
    PersistTask(inst, node, &batch);
  }
  if (inst->state() != InstanceState::kSuspended) {
    SetInstanceState(inst, InstanceState::kRunning);
  }
  inst->stats().finished = TimePoint();
  PersistHeader(inst, &batch);
  AppendHistory(instance_id,
                StrFormat("invalidated %s and %zu downstream task(s)",
                          task_name.c_str(), affected.size() - 1));
  // Upstream results are intact; re-evaluation re-activates the tail.
  BIOPERA_RETURN_IF_ERROR(ReevaluateAll(inst, &batch));
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
  RecordStore::CommitScope commit_group(GroupTarget());
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
  inst->raised_events().insert(event);
  RecordStore::CommitScope commit_group(GroupTarget());
  AppendHistory(instance_id, "event raised: " + event);
  WriteBatch batch;
  PersistHeader(inst, &batch);
  // Release every task gated on this event.
  std::vector<TaskNode*> waiting;
  inst->ForEachNode([&](TaskNode* node) {
    if (node->state == TaskState::kEventWait && node->def != nullptr &&
        node->def->wait_event == event) {
      waiting.push_back(node);
    }
  });
  for (TaskNode* node : waiting) {
    inst->SetTaskState(node, TaskState::kInactive);
    BIOPERA_RETURN_IF_ERROR(ActivateTask(inst, node, &batch));
  }
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
  PumpDispatch();
  return Status::OK();
}

Status Engine::CompensateSphere(ProcessInstance* inst, TaskNode* scope,
                                WriteBatch* batch) {
  AppendHistory(inst->id(),
                StrFormat("sphere %s failed; running compensation",
                          scope->path.c_str()));
  // Completed activities with undo actions, in reverse completion order.
  std::vector<TaskNode*> done;
  std::function<void(TaskNode*)> collect = [&](TaskNode* n) {
    for (auto& child : n->children) {
      collect(child.get());
      if (child->kind() == TaskKind::kActivity &&
          child->state == TaskState::kDone && child->def != nullptr &&
          !child->def->compensation_binding.empty()) {
        done.push_back(child.get());
      }
    }
  };
  collect(scope);
  std::stable_sort(done.begin(), done.end(),
                   [](const TaskNode* a, const TaskNode* b) {
                     return a->finished > b->finished;
                   });
  bool compensation_failed = false;
  for (TaskNode* node : done) {
    Result<ActivityFn> fn =
        registry_->Find(node->def->compensation_binding);
    ActivityInput input;
    input.params = node->outputs;  // the undo action sees what was produced
    Result<ActivityOutput> out =
        fn.ok() ? (*fn)(input) : Result<ActivityOutput>(fn.status());
    if (!out.ok()) {
      AppendHistory(inst->id(),
                    StrFormat("compensation of %s FAILED: %s",
                              node->path.c_str(),
                              out.status().ToString().c_str()));
      compensation_failed = true;
      break;
    }
    inst->stats().cpu_seconds += out->cost.ToSeconds();
    AppendHistory(inst->id(),
                  StrFormat("compensated %s via %s", node->path.c_str(),
                            node->def->compensation_binding.c_str()));
  }
  DiscardSubtree(inst, scope, batch);
  ++inst->stats().activities_failed;
  ++scope->attempts;
  PersistHeader(inst, batch);
  if (!compensation_failed &&
      scope->attempts <= scope->def->failure.max_retries) {
    AppendHistory(inst->id(),
                  StrFormat("re-running sphere %s (attempt %d)",
                            scope->path.c_str(), scope->attempts + 1));
    BIOPERA_RETURN_IF_ERROR(ExpandComposite(inst, scope, batch));
    PersistTask(inst, scope, batch);
    BIOPERA_RETURN_IF_ERROR(EvaluateScope(inst, scope, batch));
    return MaybeCompleteScope(inst, scope, batch);
  }
  PersistTask(inst, scope, batch);
  // Exhausted (or an undo action itself failed): regular failure path.
  // HandleTaskFailure sees a composite and routes to kFailed/ignore.
  return HandleTaskFailure(inst, scope,
                           compensation_failed
                               ? "sphere compensation failed"
                               : "sphere retries exhausted",
                           batch);
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
  state_changes_.push_back(inst->id());
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
// Navigation
// ---------------------------------------------------------------------------

Status Engine::ExpandComposite(ProcessInstance* inst, TaskNode* node,
                               WriteBatch* batch) {
  const TaskDef* def = node->def;
  switch (node->kind()) {
    case TaskKind::kBlock: {
      node->connectors = &def->connectors;
      for (const TaskDef& sub : def->subtasks) {
        AddChildNode(inst, node, &sub, node->path + "." + sub.name);
      }
      break;
    }
    case TaskKind::kParallel: {
      ScopeEvalContext ctx(node->parent, node);
      BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> ref,
                               SplitRef(def->list_input));
      BIOPERA_ASSIGN_OR_RETURN(Value list, ctx.Lookup(ref));
      if (!list.is_list()) {
        return Status::InvalidArgument(
            node->path + ": parallel LIST input " + def->list_input +
            " is not a list (got " + std::string(list.TypeName()) + ")");
      }
      node->expansion = list;
      const auto& items = list.AsList();
      for (size_t i = 0; i < items.size(); ++i) {
        TaskNode* child = AddChildNode(
            inst, node, &def->body[0],
            StrFormat("%s[%zu]", node->path.c_str(), i));
        child->item = items[i];
        child->index = static_cast<int64_t>(i);
      }
      break;
    }
    case TaskKind::kSubprocess: {
      // Late binding: the template is resolved only now, so a re-registered
      // definition takes effect for instances expanded afterwards (§3.1).
      BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* sub,
                               ResolveTemplate(def->subprocess_name));
      node->sub_def = sub;
      node->connectors = &sub->connectors;
      node->own_whiteboard = std::make_unique<Value::Map>();
      for (const ocr::DataObjectDef& d : sub->whiteboard) {
        (*node->own_whiteboard)[d.name] = d.initial;
      }
      // Input mappings initialize same-named whiteboard variables.
      ScopeEvalContext ctx(node->parent, node);
      for (const ocr::Mapping& m : def->inputs) {
        BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> from,
                                 SplitRef(m.from));
        BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to, SplitRef(m.to));
        Result<Value> v = ctx.Lookup(from);
        if (!v.ok() && v.status().IsNotFound()) continue;  // optional input
        BIOPERA_RETURN_IF_ERROR(v.status());
        // to = "in.<param>": parameter name doubles as wb variable name.
        BIOPERA_RETURN_IF_ERROR(
            SetIntoMap(node->own_whiteboard.get(), to, 1, *v));
      }
      for (const TaskDef& sub_task : sub->tasks) {
        AddChildNode(inst, node, &sub_task, node->path + "/" + sub_task.name);
      }
      PersistWhiteboard(inst, node, batch);
      break;
    }
    case TaskKind::kActivity:
      return Status::Internal("activities have no children");
  }
  return Status::OK();
}

Status Engine::ActivateTask(ProcessInstance* inst, TaskNode* node,
                            WriteBatch* batch) {
  // ON_EVENT gate: the task is eligible but waits for its trigger.
  if (node->def != nullptr && !node->def->wait_event.empty() &&
      !inst->raised_events().contains(node->def->wait_event)) {
    inst->SetTaskState(node, TaskState::kEventWait);
    PersistTask(inst, node, batch);
    AppendHistory(inst->id(), StrFormat("task %s waiting for event '%s'",
                                        node->path.c_str(),
                                        node->def->wait_event.c_str()));
    return Status::OK();
  }
  node->started = sim_->Now();
  if (node->kind() == TaskKind::kActivity) {
    inst->SetTaskState(node, TaskState::kReady);
    PersistTask(inst, node, batch);
    EnqueueReady(inst, node);
    return Status::OK();
  }
  inst->SetTaskState(node, TaskState::kRunning);
  BIOPERA_RETURN_IF_ERROR(ExpandComposite(inst, node, batch));
  PersistTask(inst, node, batch);
  BIOPERA_RETURN_IF_ERROR(EvaluateScope(inst, node, batch));
  // An empty expansion (or empty subprocess) completes immediately.
  BIOPERA_RETURN_IF_ERROR(MaybeCompleteScope(inst, node, batch));
  return Status::OK();
}

Status Engine::SkipTask(ProcessInstance* inst, TaskNode* node,
                        WriteBatch* batch) {
  inst->SetTaskState(node, TaskState::kSkipped);
  node->finished = sim_->Now();
  PersistTask(inst, node, batch);
  return Status::OK();
}

Status Engine::EvaluateScope(ProcessInstance* inst, TaskNode* scope,
                             WriteBatch* batch) {
  // Parallel scopes: all bodies start unconditionally.
  if (scope->kind() == TaskKind::kParallel && !scope->is_root()) {
    for (auto& child : scope->children) {
      if (child->state == TaskState::kInactive) {
        BIOPERA_RETURN_IF_ERROR(ActivateTask(inst, child.get(), batch));
      }
    }
    return Status::OK();
  }
  if (scope->connectors == nullptr) return Status::OK();

  bool changed = true;
  while (changed) {
    changed = false;
    for (auto& child : scope->children) {
      if (child->state != TaskState::kInactive) continue;
      // Collect incoming connectors of this child.
      bool all_evaluated = true;
      bool any_true = false;
      bool has_incoming = false;
      for (const ControlConnector& conn : *scope->connectors) {
        if (conn.target != child->def->name) continue;
        has_incoming = true;
        TaskNode* source = scope->FindChild(conn.source);
        if (source == nullptr) {
          return Status::Internal("connector source missing: " + conn.source);
        }
        if (!IsTerminal(source->state)) {
          all_evaluated = false;
          break;
        }
        if (source->state == TaskState::kSkipped ||
            source->state == TaskState::kFailed) {
          continue;  // dead path: connector is false
        }
        bool value = true;
        if (!conn.condition.empty()) {
          BIOPERA_ASSIGN_OR_RETURN(ocr::Expr expr,
                                   ocr::Expr::Parse(conn.condition));
          ScopeEvalContext ctx(scope, child.get());
          BIOPERA_ASSIGN_OR_RETURN(Value v, expr.Eval(ctx));
          value = v.Truthy();
        }
        any_true = any_true || value;
      }
      if (!has_incoming) {
        // Start task of the scope: activates as soon as the scope runs.
        BIOPERA_RETURN_IF_ERROR(ActivateTask(inst, child.get(), batch));
        changed = true;
        continue;
      }
      if (!all_evaluated) continue;
      if (any_true) {
        BIOPERA_RETURN_IF_ERROR(ActivateTask(inst, child.get(), batch));
      } else {
        BIOPERA_RETURN_IF_ERROR(SkipTask(inst, child.get(), batch));
      }
      changed = true;
    }
  }
  return Status::OK();
}

Status Engine::ApplyOutputMappings(ProcessInstance* inst, TaskNode* node,
                                   WriteBatch* batch) {
  if (node->def == nullptr || node->def->outputs.empty()) return Status::OK();
  // Parallel bodies contribute via collection, not mappings.
  if (node->index >= 0) return Status::OK();
  TaskNode* scope = node->parent->ScopeOwner();
  Value::Map* wb = scope->ScopeWhiteboard();
  bool wrote_wb = false;
  for (const ocr::Mapping& m : node->def->outputs) {
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> from, SplitRef(m.from));
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to, SplitRef(m.to));
    // from = "out.<field>..."
    Result<Value> v = Descend(Value(node->outputs), from, 1);
    if (!v.ok() && v.status().IsNotFound()) continue;  // absent output field
    BIOPERA_RETURN_IF_ERROR(v.status());
    if (to[0] != "wb" || to.size() < 2) {
      return Status::InvalidArgument(node->path + ": output target " + m.to +
                                     " must be wb.*");
    }
    BIOPERA_RETURN_IF_ERROR(SetIntoMap(wb, to, 1, std::move(*v)));
    inst->lineage()[to[1]] = node->path;
    wrote_wb = true;
  }
  if (wrote_wb) PersistWhiteboard(inst, scope, batch);
  return Status::OK();
}

Status Engine::CompleteTask(ProcessInstance* inst, TaskNode* node,
                            Value::Map outputs, Duration cost,
                            WriteBatch* batch) {
  node->outputs = std::move(outputs);
  node->cost = cost;
  inst->SetTaskState(node, TaskState::kDone);
  node->finished = sim_->Now();
  if (node->kind() == TaskKind::kActivity) {
    inst->stats().cpu_seconds += cost.ToSeconds();
    ++inst->stats().activities_completed;
  }
  BIOPERA_RETURN_IF_ERROR(ApplyOutputMappings(inst, node, batch));
  PersistTask(inst, node, batch);
  PersistHeader(inst, batch);

  TaskNode* parent = node->parent;
  if (parent == nullptr) return Status::OK();
  // Re-evaluate the surrounding scope: our completion may enable siblings.
  TaskNode* scope = parent;
  BIOPERA_RETURN_IF_ERROR(EvaluateScope(inst, scope, batch));
  return MaybeCompleteScope(inst, scope, batch);
}

Status Engine::MaybeCompleteScope(ProcessInstance* inst, TaskNode* scope,
                                  WriteBatch* batch) {
  if (scope->state != TaskState::kRunning && !scope->is_root()) {
    return Status::OK();
  }
  bool all_terminal = true;
  bool any_failed = false;
  for (const auto& child : scope->children) {
    if (!IsTerminal(child->state)) {
      all_terminal = false;
      break;
    }
    if (child->state == TaskState::kFailed) any_failed = true;
  }
  if (!all_terminal) return Status::OK();

  if (scope->is_root()) {
    if (inst->state() == InstanceState::kRunning ||
        inst->state() == InstanceState::kSuspended) {
      SetInstanceState(inst, any_failed ? InstanceState::kFailed
                                        : InstanceState::kDone);
      inst->stats().finished = sim_->Now();
      PersistHeader(inst, batch);
      AppendHistory(inst->id(), any_failed ? "failed" : "completed");
      // The instance span closes only on success; a kFailed instance may
      // still be RESTARTed, and its makespan should cover that recovery.
      if (spans_ != nullptr && !any_failed) {
        spans_->End(inst->span_id(), "completed");
        inst->set_span_id(0);
      }
    }
    return Status::OK();
  }

  if (any_failed) {
    if (scope->kind() == TaskKind::kBlock && scope->def != nullptr &&
        scope->def->atomic) {
      return CompensateSphere(inst, scope, batch);
    }
    return HandleTaskFailure(inst, scope, "nested task failed", batch);
  }

  switch (scope->kind()) {
    case TaskKind::kBlock: {
      return CompleteTask(inst, scope, {}, Duration::Zero(), batch);
    }
    case TaskKind::kParallel: {
      // Collect body results in index order.
      Value::List collected;
      for (const auto& child : scope->children) {
        if (child->state == TaskState::kSkipped) {
          collected.emplace_back();  // null placeholder
        } else if (child->def->kind == TaskKind::kSubprocess) {
          collected.emplace_back(child->own_whiteboard == nullptr
                                     ? Value::Map{}
                                     : *child->own_whiteboard);
        } else {
          collected.emplace_back(child->outputs);
        }
      }
      if (!scope->def->collect_output.empty()) {
        BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to,
                                 SplitRef(scope->def->collect_output));
        if (to[0] != "wb" || to.size() < 2) {
          return Status::InvalidArgument(scope->path +
                                         ": COLLECT target must be wb.*");
        }
        TaskNode* owner = scope->parent->ScopeOwner();
        BIOPERA_RETURN_IF_ERROR(SetIntoMap(owner->ScopeWhiteboard(), to, 1,
                                           Value(std::move(collected))));
        inst->lineage()[to[1]] = scope->path;
        PersistWhiteboard(inst, owner, batch);
      }
      Value::Map outputs;
      outputs["count"] = Value(static_cast<int64_t>(scope->children.size()));
      return CompleteTask(inst, scope, std::move(outputs), Duration::Zero(),
                          batch);
    }
    case TaskKind::kSubprocess: {
      // The subprocess's output structure is its final whiteboard.
      Value::Map outputs = *scope->own_whiteboard;
      return CompleteTask(inst, scope, std::move(outputs), Duration::Zero(),
                          batch);
    }
    case TaskKind::kActivity:
      return Status::Internal("activity cannot be a scope");
  }
  return Status::OK();
}

Status Engine::HandleTaskFailure(ProcessInstance* inst, TaskNode* node,
                                 const std::string& reason,
                                 WriteBatch* batch) {
  ++inst->stats().activities_failed;
  ++node->attempts;
  AppendHistory(inst->id(),
                StrFormat("task %s failed (attempt %d): %s",
                          node->path.c_str(), node->attempts,
                          reason.c_str()));
  const ocr::FailurePolicy& policy =
      node->def != nullptr ? node->def->failure : ocr::FailurePolicy{};

  const bool can_retry = node->kind() == TaskKind::kActivity &&
                         node->attempts <= policy.max_retries;
  if (failed_metric_ != nullptr) failed_metric_->Increment();
  if (can_retry) {
    if (!policy.alternative_binding.empty()) {
      node->binding_used = policy.alternative_binding;
    }
    inst->SetTaskState(node, TaskState::kRetryWait);
    PersistTask(inst, node, batch);
    std::string instance_id = inst->id();
    std::string path = node->path;
    sim_->Schedule(policy.retry_backoff, [this, instance_id, path] {
      if (!up_) return;
      ProcessInstance* inst2 = FindInstance(instance_id);
      if (inst2 == nullptr) return;
      TaskNode* node2 = inst2->FindByPath(path);
      if (node2 == nullptr || node2->state != TaskState::kRetryWait) return;
      inst2->SetTaskState(node2, TaskState::kReady);
      RecordStore::CommitScope commit_group(GroupTarget());
      WriteBatch retry_batch;
      PersistTask(inst2, node2, &retry_batch);
      Status st = Commit(&retry_batch);
      if (!st.ok()) {
        BIOPERA_LOG(kError) << "retry commit failed: " << st.ToString();
        return;
      }
      EnqueueReady(inst2, node2);
      PumpDispatch();
    });
    return Status::OK();
  }

  if (policy.ignore_failure) {
    // Spheres-of-atomicity boundary: the failure is absorbed and the task
    // completes with an empty output structure.
    return CompleteTask(inst, node, {}, Duration::Zero(), batch);
  }

  inst->SetTaskState(node, TaskState::kFailed);
  node->finished = sim_->Now();
  PersistTask(inst, node, batch);
  PersistHeader(inst, batch);
  TaskNode* parent = node->parent;
  if (parent == nullptr) return Status::OK();
  BIOPERA_RETURN_IF_ERROR(EvaluateScope(inst, parent, batch));
  return MaybeCompleteScope(inst, parent, batch);
}

Result<ActivityInput> Engine::BuildInput(TaskNode* node) {
  ActivityInput input;
  ScopeEvalContext ctx(node->parent, node);
  for (const ocr::Mapping& m : node->def->inputs) {
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> from, SplitRef(m.from));
    BIOPERA_ASSIGN_OR_RETURN(std::vector<std::string> to, SplitRef(m.to));
    Result<Value> v = ctx.Lookup(from);
    if (!v.ok() && v.status().IsNotFound()) {
      input.params[to[1]] = Value();  // optional input: null
      continue;
    }
    BIOPERA_RETURN_IF_ERROR(v.status());
    BIOPERA_RETURN_IF_ERROR(SetIntoMap(&input.params, to, 1, std::move(*v)));
  }
  return input;
}

// ---------------------------------------------------------------------------
// Dispatching
// ---------------------------------------------------------------------------

void Engine::EnqueueReady(ProcessInstance* inst, TaskNode* node) {
  ReadyEntry entry;
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
    Result<ActivityInput> input = BuildInput(node);
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
  RecordStore::CommitScope commit_group(GroupTarget());
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
      Result<ActivityInput> input = BuildInput(node);
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
        Status st = HandleTaskFailure(inst, node,
                                      output.status().ToString(), &batch);
        if (st.ok()) st = Commit(&batch);
        if (!st.ok()) {
          BIOPERA_LOG(kError) << "failure handling error: " << st.ToString();
        }
        return Verdict::kContinue;
      }
      if (spans_ != nullptr && entry.input_desc.empty()) {
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
    if (RecordStore* group_store = GroupTarget(); group_store != nullptr) {
      Status flush_status = group_store->Flush();
      if (!flush_status.ok()) {
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
    if (spans_ != nullptr) {
      pending.input_desc = entry.input_desc;
      pending.params = entry.cached->provenance;
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
    inst->SetTaskState(node, TaskState::kRunning);
    node->started = sim_->Now();
    awareness_.JobDispatched(target);
    WriteBatch batch;
    PersistTask(inst, node, &batch);
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
  inst->SetTaskState(node, TaskState::kReady);
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  PersistTask(inst, node, &batch);
  RecordLineageOutcome(pending, outcome, /*with_outputs=*/false, &batch);
  Status st = Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "lost-job requeue commit failed: " << st.ToString();
    return;
  }
  ReadyEntry entry;
  entry.instance_id = pending.instance_id;
  entry.path = pending.path;
  entry.cached = ActivityOutput{pending.outputs, pending.cost,
                                std::move(pending.params)};
  entry.input_desc = std::move(pending.input_desc);
  entry.avoid_node = pending.node;
  entry.priority = inst->priority();
  entry.inst_hint = inst;
  entry.engine_gen = instance_generation_;
  entry.node_hint = node;
  entry.structure_gen = inst->structure_generation();
  if (node->def != nullptr) entry.resource_class = node->def->resource_class;
  BeginAttemptSpan(&entry, inst, node);
  PushEntry(std::move(entry));
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
  RecordStore::CommitScope commit_group(GroupTarget());
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
    inst->SetTaskState(node, TaskState::kReady);
    WriteBatch batch;
    PersistTask(inst, node, &batch);
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
    entry.instance_id = pending.instance_id;
    entry.path = pending.path;
    entry.cached = ActivityOutput{pending.outputs, pending.cost,
                                  std::move(pending.params)};
    entry.input_desc = std::move(pending.input_desc);
    entry.priority = inst->priority();
    entry.inst_hint = inst;
    entry.engine_gen = instance_generation_;
    entry.node_hint = node;
    entry.structure_gen = inst->structure_generation();
    if (node->def != nullptr) entry.resource_class = node->def->resource_class;
    BeginAttemptSpan(&entry, inst, node);
    PushEntry(std::move(entry));
  }
  if (!to_migrate.empty()) PumpDispatch();
}

// ---------------------------------------------------------------------------
// Cluster events
// ---------------------------------------------------------------------------

void Engine::ApplyJobFinished(cluster::JobId id) {
  if (!up_) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;  // stale report from before a crash
  PendingJob pending = TakeJob(it, /*failed=*/false, "completed");
  ProcessInstance* inst = FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  if (options_.job_cost_sensor != nullptr) {
    // Streaming straggler sensor: virtual compute cost of every completed
    // job, independent of whether an Observability context is attached.
    options_.job_cost_sensor->Observe(pending.cost.ToSeconds());
  }
  if (completed_metric_ != nullptr) {
    completed_metric_->Increment();
    task_cost_metric_->Observe(pending.cost.ToSeconds());
  }
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  RecordLineageOutcome(pending, "completed", /*with_outputs=*/true, &batch);
  Status st = CompleteTask(inst, node, std::move(pending.outputs),
                           pending.cost, &batch);
  if (st.ok()) st = Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "completion failed for " << pending.path << ": "
                        << st.ToString();
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
  ApplyJobFailed(id, reason);
}

void Engine::ApplyJobFailed(cluster::JobId id, const std::string& reason) {
  if (!up_) return;
  auto it = jobs_.find(id);
  if (it == jobs_.end()) return;
  PendingJob pending = TakeJob(it, /*failed=*/true, "failed");
  ProcessInstance* inst = FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  RecordStore::CommitScope commit_group(GroupTarget());
  WriteBatch batch;
  RecordLineageOutcome(pending, "failed", /*with_outputs=*/false, &batch);
  Status st = HandleTaskFailure(inst, node, reason, &batch);
  if (st.ok()) st = Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "failure handling failed for " << pending.path
                        << ": " << st.ToString();
  }
  PumpDispatch();
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
      Result<cluster::NodeConfig> config = cluster_->GetNode(node);
      if (!config.ok() || config->num_cpus == 0) return 0.0;
      return cluster_->ExternalLoad(node) / config->num_cpus;
    };
    auto report = [this, node](double load) {
      awareness_.UpdateLoad(node, load, sim_->Now());
      WakeClassesForNode(node);
      CheckMigrations();
      PumpDispatch();
    };
    auto mon = std::make_unique<monitor::AdaptiveMonitor>(
        sim_, options_.monitor_options, probe, report);
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
  RecordStore::CommitScope commit_group(GroupTarget());
  Value::Map cfg;
  cfg["cpus"] = Value(static_cast<int64_t>(config.num_cpus));
  cfg["speed"] = Value(config.speed);
  cfg["os"] = Value(config.os);
  cfg["classes"] = Value(config.resource_classes);
  Status st = spaces_.PutConfig("node/" + config.name, Value(cfg).ToText());
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
  if (msg.type == comms::MessageType::kCompletion) {
    ApplyJobFinished(msg.job);
  } else {
    ApplyJobFailed(msg.job, msg.reason);
  }
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
  if (kill.attempts >= options_.kill_retry_limit) {
    // Retry budget exhausted: the fence still guarantees the zombie's
    // eventual report cannot double-apply.
    if (kill_gave_up_metric_ != nullptr) kill_gave_up_metric_->Increment();
    pending_kills_.erase(it);
    return;
  }
  Duration delay = comms::RetryBackoff(
      options_.kill_retry_base, options_.kill_retry_max, options_.seed,
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

void Engine::PersistTask(ProcessInstance* inst, const TaskNode* node,
                         WriteBatch* batch) {
  spaces_.BatchPutInstanceRecord(batch, inst->id(), TaskRecordKey(node->path),
                                 EncodeTaskRecord(*node));
}

void Engine::PersistWhiteboard(ProcessInstance* inst,
                               const TaskNode* scope_owner,
                               WriteBatch* batch) {
  std::string key = scope_owner->path.empty() ? "wb" : "wb/" + scope_owner->path;
  spaces_.BatchPutInstanceRecord(batch, inst->id(), key,
                                 EncodeWhiteboard(*scope_owner->own_whiteboard));
}

void Engine::PersistHeader(ProcessInstance* inst, WriteBatch* batch) {
  spaces_.BatchPutInstanceRecord(batch, inst->id(), "header",
                                 EncodeHeader(*inst));
}

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

RecordStore* Engine::GroupTarget() {
  return options_.group_commit ? spaces_.store() : nullptr;
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
  if (spans_ == nullptr) return;
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
  if (spans_ == nullptr) return;
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
      !spaces_.GetInstanceRecord(instance_id, "header").ok()) {
    return Status::NotFound("no instance " + instance_id);
  }
  std::vector<obs::LineageRecord> out;
  // Provenance keys sort as (path, attempt, in-before-out), so one pass
  // pairs each attempt's rows.
  for (const auto& [key, text] : spaces_.ScanProvenance(instance_id)) {
    bool is_in = false;
    std::string_view base(key);
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
      return Status::Corruption("bad provenance row " + key);
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
      record->binding = RecString(rec, "binding");
      record->node = RecString(rec, "node");
      record->dispatch_us = RecInt(rec, "t_dispatch_us", 0);
      copy_descriptors("in", &record->inputs);
      copy_descriptors("param", &record->params);
    } else {
      record->outcome = RecString(rec, "outcome");
      record->finish_us = RecInt(rec, "t_finish_us", -1);
      record->cost_us = RecInt(rec, "cost_us", -1);
      copy_descriptors("out", &record->outputs);
    }
  }
  return out;
}

Result<std::string> Engine::ExportLineageJsonl(
    const std::string& instance_id) const {
  BIOPERA_ASSIGN_OR_RETURN(std::vector<obs::LineageRecord> records,
                           GetTaskLineage(instance_id));
  obs::LineageHeader header;
  header.instance = instance_id;
  header.seed = options_.seed;
  header.config_version = config_version_;
  if (const ProcessInstance* inst = FindInstance(instance_id);
      inst != nullptr) {
    header.template_name = inst->def().name;
    header.state = InstanceStateName(inst->state());
  } else if (Result<std::string> text =
                 spaces_.GetInstanceRecord(instance_id, "header");
             text.ok()) {
    // Recovered-but-not-loaded (engine down) or foreign instance: read
    // the persisted header record directly.
    BIOPERA_ASSIGN_OR_RETURN(Value v, DecodeValueRecord(*text));
    if (v.is_map()) {
      header.template_name = RecString(v.AsMap(), "template");
      header.state = RecString(v.AsMap(), "state");
    }
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

Status Engine::RecoverInstance(
    const std::string& instance_id,
    std::vector<std::pair<std::string, std::string>> rows) {
  // Load all records of this instance into a key -> parsed-map index.
  std::map<std::string, Value::Map> records;
  for (const auto& [key, text] : rows) {
    BIOPERA_ASSIGN_OR_RETURN(Value v, DecodeValueRecord(text));
    if (!v.is_map()) {
      return Status::Corruption("bad record " + key + " in " + instance_id);
    }
    // Copy the key rather than move it: the scanned key still holds its
    // unstripped buffer, which the index would pin through the rebuild.
    records[key] = std::move(v.AsMap());
  }
  // Release the raw rows before the rebuild grows the tree.
  std::vector<std::pair<std::string, std::string>>().swap(rows);
  auto header_it = records.find("header");
  if (header_it == records.end()) {
    return Status::Corruption("instance " + instance_id + " has no header");
  }
  const Value::Map& header = header_it->second;
  BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* def,
                           ResolveTemplate(RecString(header, "template")));
  auto inst = std::make_unique<ProcessInstance>(instance_id, def);
  BIOPERA_ASSIGN_OR_RETURN(
      InstanceState state, InstanceStateFromName(RecString(header, "state")));
  SetInstanceState(inst.get(), state);
  inst->set_priority(static_cast<int>(RecInt(header, "priority", 0)));
  inst->stats().cpu_seconds = RecDouble(header, "cpu_seconds", 0);
  inst->stats().activities_completed =
      static_cast<uint64_t>(RecInt(header, "completed", 0));
  inst->stats().activities_failed =
      static_cast<uint64_t>(RecInt(header, "failed", 0));
  inst->stats().started =
      TimePoint::FromMicros(RecInt(header, "started_us", 0));
  inst->stats().finished =
      TimePoint::FromMicros(RecInt(header, "finished_us", 0));
  auto lin = header.find("lineage");
  if (lin != header.end() && lin->second.is_map()) {
    for (const auto& [var, writer] : lin->second.AsMap()) {
      if (writer.is_string()) inst->lineage()[var] = writer.AsString();
    }
  }
  auto events = header.find("events");
  if (events != header.end() && events->second.is_list()) {
    for (const auto& event : events->second.AsList()) {
      if (event.is_string()) inst->raised_events().insert(event.AsString());
    }
  }
  // Root whiteboard.
  auto wb_it = records.find("wb");
  if (wb_it != records.end()) {
    *inst->root()->own_whiteboard = wb_it->second;
  }

  // Recursively rebuild the tree. Returns the restored node state.
  std::function<Status(TaskNode*)> rebuild = [&](TaskNode* node) -> Status {
    auto rec_it = records.find(TaskRecordKey(node->path));
    if (rec_it == records.end()) return Status::OK();  // still inactive
    const Value::Map& rec = rec_it->second;
    BIOPERA_ASSIGN_OR_RETURN(TaskState state,
                             TaskStateFromName(RecString(rec, "state")));
    inst->SetTaskState(node, state);
    node->attempts = static_cast<int>(RecInt(rec, "attempts", 0));
    node->binding_used = RecString(rec, "binding");
    node->cost = Duration::Micros(RecInt(rec, "cost_us", 0));
    node->started = TimePoint::FromMicros(RecInt(rec, "started_us", 0));
    node->finished = TimePoint::FromMicros(RecInt(rec, "finished_us", 0));
    auto out_it = rec.find("outputs");
    if (out_it != rec.end() && out_it->second.is_map()) {
      node->outputs = out_it->second.AsMap();
    }
    if (node->state == TaskState::kInactive ||
        node->state == TaskState::kSkipped) {
      return Status::OK();
    }
    // Expand composites the way the original activation did.
    switch (node->kind()) {
      case TaskKind::kActivity:
        break;
      case TaskKind::kBlock: {
        node->connectors = &node->def->connectors;
        for (const TaskDef& sub : node->def->subtasks) {
          AddChildNode(inst.get(), node, &sub, node->path + "." + sub.name);
        }
        break;
      }
      case TaskKind::kParallel: {
        auto exp_it = rec.find("expansion");
        if (exp_it == rec.end() || !exp_it->second.is_list()) {
          return Status::Corruption(node->path + ": missing expansion");
        }
        node->expansion = exp_it->second;
        const auto& items = node->expansion.AsList();
        for (size_t i = 0; i < items.size(); ++i) {
          TaskNode* child = AddChildNode(
              inst.get(), node, &node->def->body[0],
              StrFormat("%s[%zu]", node->path.c_str(), i));
          child->item = items[i];
          child->index = static_cast<int64_t>(i);
        }
        break;
      }
      case TaskKind::kSubprocess: {
        BIOPERA_ASSIGN_OR_RETURN(const ProcessDef* sub,
                                 ResolveTemplate(RecString(rec, "sub")));
        node->sub_def = sub;
        node->connectors = &sub->connectors;
        node->own_whiteboard = std::make_unique<Value::Map>();
        auto sub_wb = records.find("wb/" + node->path);
        if (sub_wb != records.end()) {
          *node->own_whiteboard = sub_wb->second;
        }
        for (const TaskDef& sub_task : sub->tasks) {
          AddChildNode(inst.get(), node, &sub_task,
                       node->path + "/" + sub_task.name);
        }
        break;
      }
    }
    for (auto& child : node->children) {
      BIOPERA_RETURN_IF_ERROR(rebuild(child.get()));
    }
    return Status::OK();
  };
  // Root children were created by the ProcessInstance constructor.
  for (auto& child : inst->root()->children) {
    BIOPERA_RETURN_IF_ERROR(rebuild(child.get()));
  }

  ProcessInstance* raw = inst.get();
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

  // Re-queue interrupted work: activities that were queued, running (their
  // job died with the server or node), or waiting out a retry backoff
  // (the timer did not survive the crash).
  WriteBatch batch;
  size_t requeued = 0;
  raw->ForEachNode([&](TaskNode* node) {
    if (node->kind() != TaskKind::kActivity) return;
    if (node->state == TaskState::kRunning ||
        node->state == TaskState::kRetryWait) {
      raw->SetTaskState(node, TaskState::kReady);
      PersistTask(raw, node, &batch);
    }
    if (node->state == TaskState::kReady) {
      EnqueueReady(raw, node);
      ++requeued;
    }
  });
  BIOPERA_RETURN_IF_ERROR(Commit(&batch));
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
