#include "core/dispatcher.h"

#include <algorithm>
#include <functional>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/barrier_profile.h"
#include "obs/quantile.h"

namespace biopera::core {

/// The input a speculative execution ran with (captured on the engine
/// thread), and the result a pool worker fills in. The pool's batch join
/// publishes `output` before the scan reads it.
struct Dispatcher::PreExecState {
  ActivityInput input;
  std::optional<Result<ActivityOutput>> output;
};

namespace {

/// Inline kernel execution, attributed to the `kernel` wall bucket so the
/// barrier-stall profiler separates compute from dispatcher navigation.
Result<ActivityOutput> RunKernelScoped(obs::WallProfile* profile,
                                       const ActivityFn& fn,
                                       const ActivityInput& input) {
  obs::WallProfile::Scope scope(profile, obs::WallProfile::kKernel);
  return fn(input);
}

/// The entries parked in every queue of `parked`.
template <typename ByKey>
size_t CountEntries(const ByKey& parked) {
  size_t n = 0;
  for (const auto& [key, queue] : parked) n += queue.size();
  return n;
}

}  // namespace

DispatchLedger::DispatchLedger(obs::Registry* registry)
    : dispatched(registry->GetCounter("engine_tasks_dispatched_total")),
      pump_runs(registry->GetCounter("engine_pump_runs_total")),
      entries_scanned(
          registry->GetCounter("engine_pump_entries_scanned_total")),
      preexec_batches(registry->GetCounter("engine_preexec_batches_total")),
      preexec_activities(
          registry->GetCounter("engine_preexec_activities_total")),
      completed(registry->GetCounter("engine_tasks_completed_total")),
      timed_out(registry->GetCounter("engine_jobs_timed_out_total")),
      migrations(registry->GetCounter("engine_migrations_total")),
      queue_depth(registry->GetGauge("engine_ready_queue_depth")),
      parked_starved(registry->GetGauge("engine_parked_starved_depth")),
      parked_suspended(registry->GetGauge("engine_parked_suspended_depth")),
      running_jobs(registry->GetGauge("engine_running_jobs")),
      // Task costs span seconds to days: 1s x4 buckets.
      task_cost(registry->GetHistogram("engine_task_cost_seconds", {},
                                       obs::HistogramOptions{1.0})) {}

DispatchStats DispatchLedger::Stats(TimePoint now) const {
  DispatchStats stats;
  stats.pump_runs = pump_runs->value();
  stats.entries_scanned = entries_scanned->value();
  stats.dispatched = dispatched->value();
  stats.busy_virtual_us = busy_us;
  if (busy_open) {
    // The open window counts up to "now" so per-barrier deltas are
    // monotone even while jobs are still in flight.
    stats.busy_virtual_us += static_cast<uint64_t>((now - busy_since).micros());
  }
  return stats;
}

uint64_t InstanceSpanId(obs::SpanSink* spans, ProcessInstance* inst) {
  if (inst->span_id() == 0) {
    uint64_t id = spans->FindOpen(obs::SpanKind::kInstance, inst->id());
    if (id == 0) {
      id = spans->Begin(obs::SpanKind::kInstance, inst->id(), /*parent=*/0,
                        /*link=*/0, inst->id());
    }
    inst->set_span_id(id);
  }
  return inst->span_id();
}

Dispatcher::Dispatcher(Simulator* sim, Spaces* spaces, Navigator* navigator,
                       const ActivityRegistry* registry,
                       monitor::AwarenessModel* awareness,
                       comms::Channel* channel, const EngineOptions& options,
                       std::unique_ptr<sched::SchedulingPolicy> policy,
                       obs::SpanSink* spans, DispatchLedger* ledger,
                       DispatcherHost* host)
    : sim_(sim),
      spaces_(spaces),
      navigator_(navigator),
      registry_(registry),
      awareness_(awareness),
      channel_(channel),
      options_(options),
      policy_(std::move(policy)),
      spans_(spans),
      ledger_(ledger),
      host_(host) {}

Dispatcher::~Dispatcher() {
  sim_->Cancel(pump_event_);
  for (const auto& [job_id, pending] : jobs_) sim_->Cancel(pending.watchdog);
  for (const auto& [timer, event] : retry_timers_) sim_->Cancel(event);
  jobs_.clear();
  UpdateBusyClock();
  ledger_->queue_depth->Set(0);
  ledger_->parked_starved->Set(0);
  ledger_->parked_suspended->Set(0);
  ledger_->running_jobs->Set(0);
}

void Dispatcher::TaskReady(ProcessInstance* inst, TaskNode* node) {
  EnqueueReady(inst, node, ReadyEntry{});
}

void Dispatcher::RetryDue(ProcessInstance* inst, TaskNode* node,
                          Duration backoff) {
  const uint64_t timer = next_retry_timer_++;
  retry_timers_[timer] = sim_->Schedule(
      backoff, [this, timer, instance_id = inst->id(), path = node->path] {
        retry_timers_.erase(timer);
        ProcessInstance* inst2 = host_->FindInstance(instance_id);
        if (inst2 == nullptr) return;
        TaskNode* node2 = inst2->FindByPath(path);
        if (node2 == nullptr || node2->state != TaskState::kRetryWait) return;
        RecordStore::CommitScope commit_group(spaces_->store());
        WriteBatch batch;
        navigator_->MarkReady(inst2, node2, &batch);
        if (Status st = host_->Commit(&batch); !st.ok()) {
          BIOPERA_LOG(kError) << "retry commit failed: " << st.ToString();
          return;
        }
        TaskReady(inst2, node2);
        Pump();
      });
}

void Dispatcher::KillJobs(ProcessInstance* inst, const TaskNode* subtree) {
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
    host_->SendKill(pending.node, job_id, pending.fence);
    TakeJob(job_id, /*failed=*/false, "killed");
  }
}

void Dispatcher::EnqueueReady(ProcessInstance* inst, TaskNode* node,
                              ReadyEntry entry) {
  entry.instance_id = inst->id();
  entry.path = node->path;
  entry.priority = inst->priority();
  BeginAttemptSpan(&entry, inst, node);
  entry.seq = next_ready_seq_++;
  if (pumping_) {
    // The running pump scans it at its tail, in enqueue order.
    pump_overflow_.push_back(std::move(entry));
  } else {
    ready_.emplace(entry.key(), std::move(entry));
  }
}

void Dispatcher::MarkClassWoken(const std::string& resource_class) {
  woken_classes_.insert(resource_class);
  // Capacity changed mid-pump: entries of this class later in the scan
  // must get a fresh placement attempt instead of the frozen short-cut.
  if (pumping_) pump_frozen_.erase(resource_class);
}

void Dispatcher::WakeClassesForNode(const std::string& node) {
  if (parked_by_class_.empty()) return;
  const monitor::AwarenessModel::NodeView* view = awareness_->Find(node);
  for (const auto& [cls, queue] : parked_by_class_) {
    if (queue.empty()) continue;
    // Unknown node: wake everything rather than risk a lost wakeup.
    if (view == nullptr || view->config.ServesClass(cls)) MarkClassWoken(cls);
  }
}

void Dispatcher::WakeAllClasses() {
  for (const auto& [cls, queue] : parked_by_class_) {
    if (!queue.empty()) MarkClassWoken(cls);
  }
}

void Dispatcher::WakeInstance(const std::string& instance_id) {
  auto it = parked_by_instance_.find(instance_id);
  if (it == parked_by_instance_.end()) return;
  for (auto& [key, entry] : it->second) ready_.emplace(key, std::move(entry));
  parked_by_instance_.erase(it);
}

void Dispatcher::DropParkedForInstance(const std::string& instance_id) {
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

void Dispatcher::DropQueuedForInstance(const std::string& instance_id) {
  auto drop = [&](const ReadyEntry& entry) {
    if (entry.instance_id != instance_id) return false;
    EndAttemptSpan(entry.attempt_span, "stale");
    return true;
  };
  std::erase_if(ready_, [&](const auto& item) { return drop(item.second); });
  std::erase_if(pump_overflow_, drop);
}

void Dispatcher::SchedulePumpRetry() {
  if (pump_event_ != kInvalidEventId) return;
  pump_event_ = sim_->Schedule(options_.dispatch_retry, [this] {
    pump_event_ = kInvalidEventId;
    // Periodic full re-probe: capacity estimates may have drifted without
    // a wake event.
    WakeAllClasses();
    Pump();
  });
}

void Dispatcher::PreExecuteReady() {
  if (options_.executor == nullptr) return;
  std::vector<std::function<void()>> tasks;
  // Mirror the scan's validation: only entries it would execute are
  // worth speculating on. Entries that fail validation here are left
  // for the scan, which reports failures in deterministic order.
  for (auto& [key, entry] : ready_) {
    if (entry.cached.has_value() || entry.pre_exec != nullptr) continue;
    ProcessInstance* inst = host_->FindInstance(entry.instance_id);
    if (inst == nullptr || inst->state() != InstanceState::kRunning) {
      continue;
    }
    TaskNode* node = inst->FindByPath(entry.path);
    if (node == nullptr || node->state != TaskState::kReady) continue;
    Result<ActivityFn> fn = registry_->Find(BindingOf(*node));
    if (!fn.ok()) continue;
    Result<ActivityInput> input = navigator_->BuildInput(node);
    if (!input.ok()) continue;
    auto state = std::make_shared<PreExecState>();
    state->input = std::move(*input);
    entry.pre_exec = state;
    tasks.push_back([state, fn = std::move(*fn)] {
      state->output = fn(state->input);
    });
  }
  if (tasks.empty()) return;
  ledger_->preexec_batches->Increment();
  ledger_->preexec_activities->Increment(tasks.size());
  // Pool-batched kernel execution is `kernel` wall time, not `pump`.
  obs::WallProfile::Scope kernel_scope(options_.wall_profile,
                                       obs::WallProfile::kKernel);
  options_.executor->RunBatch(std::move(tasks));
}

void Dispatcher::Pump() {
  if (host_->StoreDegraded()) return;  // no dispatch until writes heal
  // Wall-clock self-time of the whole pump is `pump`; the kernel and
  // store scopes opened inside subtract themselves out, so the three
  // buckets never double-count (see obs::WallProfile).
  obs::WallProfile::Scope pump_scope(options_.wall_profile,
                                     obs::WallProfile::kPump);
  // One commit group per pump, split only by the pre-dispatch flushes.
  RecordStore::CommitScope commit_group(spaces_->store());
  ledger_->pump_runs->Increment();
  // Run the ready kernels on the pool and join before the scan consumes
  // anything, so every commit, span and lineage record keeps its order.
  PreExecuteReady();
  pumping_ = true;
  pump_frozen_.clear();
  bool starved = false;

  enum class Verdict { kContinue, kStopDegraded, kStopFenced };

  // Resolves the entry, runs the activity on first scan, places and
  // launches it. An entry that cannot dispatch parks under its resource
  // class (placement declined) or its instance (suspended).
  auto scan_entry = [&](ReadyEntry entry) -> Verdict {
    ledger_->entries_scanned->Increment();
    ProcessInstance* inst = host_->FindInstance(entry.instance_id);
    if (inst != nullptr && inst->state() == InstanceState::kSuspended) {
      parked_by_instance_[entry.instance_id].emplace(entry.key(),
                                                     std::move(entry));
      return Verdict::kContinue;
    }
    // Gone, aborted or failed; or its subtree was discarded.
    TaskNode* node = inst != nullptr && inst->state() == InstanceState::kRunning
                         ? inst->FindByPath(entry.path)
                         : nullptr;
    if (node == nullptr || node->state != TaskState::kReady) {
      EndAttemptSpan(entry.attempt_span, "stale");
      return Verdict::kContinue;
    }

    // Execute the activity implementation (idempotent; may be a cached
    // result from a previous declined placement).
    if (!entry.cached.has_value()) {
      Result<ActivityFn> fn = registry_->Find(BindingOf(*node));
      Result<ActivityInput> input = navigator_->BuildInput(node);
      // A pool execution counts only if the input is still the one it ran
      // with: earlier entries of this scan may have navigated state that
      // changes it (an equal input gives the inline result: it is pure).
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
        Status st = navigator_->Fail(inst, node, output.status().ToString(),
                                     &batch);
        if (st.ok()) st = host_->Commit(&batch);
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

    const std::string& cls = node->def->resource_class;
    if (pump_frozen_.contains(cls)) {
      // The class declined placement this pump and no capacity has freed
      // since; every policy leaves its state untouched on a decline.
      starved = true;
      parked_by_class_[cls].emplace(entry.key(), std::move(entry));
      return Verdict::kContinue;
    }
    sched::PlacementRequest request;
    request.resource_class = cls;
    request.estimated_work = entry.cached->cost;
    std::string target = policy_->Place(request, *awareness_);
    if (!entry.avoid_node.empty() && target == entry.avoid_node) {
      // The node may be partitioned; ask the policy for a second opinion
      // with the suspect artificially loaded.
      awareness_->JobDispatched(entry.avoid_node);
      std::string alternative = policy_->Place(request, *awareness_);
      awareness_->JobFinishedOrFailed(entry.avoid_node, /*failed=*/false);
      if (!alternative.empty()) target = alternative;
    }
    if (target.empty()) {
      // No capacity in this class: park the entry and freeze the class
      // for the rest of the pump, until a capacity event wakes it.
      starved = true;
      pump_frozen_.insert(cls);
      parked_by_class_[cls].emplace(entry.key(), std::move(entry));
      return Verdict::kContinue;
    }
    // Flush barrier: dispatching the job makes state externally visible,
    // so everything committed so far must be durable first.
    if (Status flush_status = host_->Flush(); !flush_status.ok()) {
      BIOPERA_LOG(kError) << "pre-dispatch flush failed: "
                          << flush_status.ToString();
      ready_.emplace(entry.key(), std::move(entry));
      if (RecordStore::IsFenced(flush_status)) return Verdict::kStopFenced;
      // A degraded store stops dispatching entirely; the entries (and
      // their cached results) stay queued for the degraded retry's pump.
      if (flush_status.IsIOError()) return Verdict::kStopDegraded;
      starved = true;
      return Verdict::kContinue;
    }
    cluster::JobId job_id = ledger_->next_job_id++;
    // Reports apply only when they echo this attempt's fence (COMMS.md).
    const uint64_t fence = (spaces_->epoch() << 20) | ++next_fence_seq_;
    comms::Message launch;
    launch.type = comms::MessageType::kLaunch;
    launch.node = target;
    launch.job = job_id;
    launch.fence = fence;
    launch.work = entry.cached->cost;
    Status st = channel_->SendCommand(launch);
    if (!st.ok()) {
      // Raced with a node failure or a down command link: stay queued (the
      // class is not starved) and try elsewhere at the next pump.
      if (st.IsUnavailable()) {
        // A connect refusal is a detection signal: place nothing there
        // until the link heals or the lease detector reconciles the node.
        awareness_->NodeDown(target, sim_->Now());
      }
      starved = true;
      ready_.emplace(entry.key(), std::move(entry));
      return Verdict::kContinue;
    }
    const obs::LineageRecord lineage{
        .instance = entry.instance_id, .task = entry.path,
        .attempt = node->attempts + 1, .binding = BindingOf(*node),
        .node = target, .dispatch_us = sim_->Now().micros(),
        .inputs = std::move(entry.input_desc),
        .params = std::move(entry.cached->provenance)};
    PendingJob pending{entry.instance_id, entry.path,
                       std::move(entry.cached->fields), entry.cached->cost,
                       target};
    pending.fence = fence;
    pending.attempt_span = entry.attempt_span;
    pending.attempt = lineage.attempt;
    pending.input_desc = lineage.inputs;
    pending.params = lineage.params;
    if (spans_ != nullptr) {
      pending.job_span = spans_->Begin(
          obs::SpanKind::kJob, entry.path, entry.attempt_span, /*link=*/0,
          entry.instance_id, entry.path, target,
          {{"job", StrFormat("%llu", static_cast<unsigned long long>(job_id))},
           {"cost_us", StrFormat("%lld", static_cast<long long>(
                                             pending.cost.micros()))}});
    }
    pending.watchdog = ArmJobWatchdog(job_id, pending.cost);
    jobs_by_instance_[pending.instance_id].insert(job_id);
    jobs_by_node_[pending.node].insert(job_id);
    jobs_[job_id] = std::move(pending);
    UpdateBusyClock();
    awareness_->JobDispatched(target);
    WriteBatch batch;
    navigator_->MarkRunning(inst, node, &batch);
    PutLineageIn(spaces_, &batch, lineage);
    if (Status commit = host_->Commit(&batch); !commit.ok()) {
      BIOPERA_LOG(kError) << "dispatch commit failed: " << commit.ToString();
    }
    host_->AppendHistory(entry.instance_id,
                         StrFormat("dispatched %s to %s", entry.path.c_str(),
                                   target.c_str()));
    ledger_->dispatched->Increment();
    return Verdict::kContinue;
  };

  // Round 1: merge the ready map with the woken classes' parked queues in
  // dispatch order. The cursor only moves forward, so entries the scan
  // parks or re-queues are not revisited within this pump.
  Verdict verdict = Verdict::kContinue;
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
  // completion and failure handling), in enqueue order. They run inline:
  // the pool speculates only on the ready set at the top of the pump.
  while (verdict == Verdict::kContinue && !pump_overflow_.empty()) {
    ReadyEntry entry = std::move(pump_overflow_.front());
    pump_overflow_.pop_front();
    verdict = scan_entry(std::move(entry));
  }
  pumping_ = false;
  // A mid-scan stop (fenced/degraded) leaves overflow entries; return
  // them to the ready map for the recovery pump.
  for (ReadyEntry& entry : pump_overflow_) {
    ready_.emplace(entry.key(), std::move(entry));
  }
  pump_overflow_.clear();
  // Classes that declined this pump sleep until the next capacity event.
  for (const std::string& cls : pump_frozen_) woken_classes_.erase(cls);
  pump_frozen_.clear();
  if (verdict == Verdict::kStopFenced) return;  // stepping down
  SyncGauges();
  // Retry while anything is capacity-starved (parked suspended-instance
  // entries alone do not warrant a timer: only RESUME frees them).
  if (starved || CountEntries(parked_by_class_) > 0) SchedulePumpRetry();
}

EventId Dispatcher::ArmJobWatchdog(cluster::JobId job_id, Duration cost) {
  if (options_.job_timeout_factor <= 0) return kInvalidEventId;
  Duration timeout =
      cost * options_.job_timeout_factor + options_.job_timeout_slack;
  return sim_->ScheduleDaemon(timeout, [this, job_id] {
    auto it = jobs_.find(job_id);
    if (it == jobs_.end()) return;  // reported in time
    PendingJob pending = TakeJob(it, /*failed=*/true, "timed_out");
    // The PEC never reported (paper event 10, automated): the job is lost.
    // If the node lives on, the kill or the fence stops the zombie.
    host_->SendKill(pending.node, job_id, pending.fence);
    host_->AppendHistory(
        pending.instance_id,
        StrFormat("job for %s on %s timed out; re-scheduling",
                  pending.path.c_str(), pending.node.c_str()));
    ledger_->timed_out->Increment();
    Requeue(std::move(pending), "timed_out", /*lost=*/true);
  });
}

void Dispatcher::RequeueNodeJobs(const std::string& node) {
  std::vector<cluster::JobId> lost;
  if (auto it = jobs_by_node_.find(node); it != jobs_by_node_.end()) {
    lost.assign(it->second.begin(), it->second.end());
  }
  for (cluster::JobId job_id : lost) {
    PendingJob pending = TakeJob(job_id, /*failed=*/true, "condemned");
    host_->SendKill(node, job_id, pending.fence);
    host_->AppendHistory(pending.instance_id,
                         StrFormat("node %s condemned; re-scheduling %s",
                                   node.c_str(), pending.path.c_str()));
    Requeue(std::move(pending), "condemned", /*lost=*/true);
  }
}

void Dispatcher::Requeue(PendingJob pending, std::string_view outcome,
                         bool lost) {
  ProcessInstance* inst = host_->FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  RecordStore::CommitScope commit_group(spaces_->store());
  WriteBatch batch;
  navigator_->MarkReady(inst, node, &batch);
  PutOutcomeRow(pending, outcome, /*with_outputs=*/false, &batch);
  if (Status st = host_->Commit(&batch); !st.ok()) {
    BIOPERA_LOG(kError) << "re-queue commit failed: " << st.ToString();
    return;
  }
  ReadyEntry entry;
  entry.cached = ActivityOutput{std::move(pending.outputs), pending.cost,
                                std::move(pending.params)};
  entry.input_desc = std::move(pending.input_desc);
  if (lost) entry.avoid_node = std::move(pending.node);
  EnqueueReady(inst, node, std::move(entry));
  if (lost) Pump();
}

void Dispatcher::CheckMigrations() {
  if (!options_.migration_enabled) return;
  RecordStore::CommitScope commit_group(spaces_->store());
  // Only jobs on saturated nodes are examined, and placements are probed
  // in JobId order (stateful policies see one call sequence).
  std::vector<cluster::JobId> candidates;
  for (const auto& [node_name, job_ids] : jobs_by_node_) {
    const monitor::AwarenessModel::NodeView* view = awareness_->Find(node_name);
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
    ProcessInstance* inst = host_->FindInstance(pending.instance_id);
    if (inst == nullptr || inst->state() != InstanceState::kRunning) continue;
    TaskNode* node = inst->FindByPath(pending.path);
    if (node == nullptr) continue;
    sched::PlacementRequest request;
    request.resource_class = node->def->resource_class;
    request.estimated_work = pending.cost;
    std::string target = policy_->Place(request, *awareness_);
    if (!target.empty() && target != pending.node) {
      to_migrate.push_back(job_id);
    }
  }
  for (cluster::JobId job_id : to_migrate) {
    const PendingJob& doomed = jobs_.at(job_id);
    host_->SendKill(doomed.node, job_id, doomed.fence);
    PendingJob pending = TakeJob(job_id, /*failed=*/false, "migrated");
    const std::string instance_id = pending.instance_id;
    const std::string event =
        StrFormat("migrating %s away from saturated %s", pending.path.c_str(),
                  pending.node.c_str());
    // Kill-and-restart: the work restarts on the new node, but the
    // deterministic outputs need not be recomputed.
    Requeue(std::move(pending), "migrated", /*lost=*/false);
    host_->AppendHistory(instance_id, event);
    ledger_->migrations->Increment();
  }
  if (!to_migrate.empty()) Pump();
}

std::optional<uint64_t> Dispatcher::OutstandingFence(cluster::JobId job) const {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return std::nullopt;
  return it->second.fence;
}

void Dispatcher::ApplyOutcome(cluster::JobId job, bool failed,
                              const std::string& reason) {
  auto it = jobs_.find(job);
  if (it == jobs_.end()) return;  // stale report from before a crash
  const std::string_view outcome = failed ? "failed" : "completed";
  PendingJob pending = TakeJob(it, failed, outcome);
  ProcessInstance* inst = host_->FindInstance(pending.instance_id);
  if (inst == nullptr) return;
  TaskNode* node = inst->FindByPath(pending.path);
  if (node == nullptr || node->state != TaskState::kRunning) return;
  if (!failed) {
    // Streaming straggler sensor: virtual compute cost of every completed
    // job, independent of whether an Observability context is attached.
    if (options_.job_cost_sensor != nullptr) {
      options_.job_cost_sensor->Observe(pending.cost.ToSeconds());
    }
    ledger_->completed->Increment();
    ledger_->task_cost->Observe(pending.cost.ToSeconds());
  }
  RecordStore::CommitScope commit_group(spaces_->store());
  WriteBatch batch;
  PutOutcomeRow(pending, outcome, /*with_outputs=*/!failed, &batch);
  Status st = failed ? navigator_->Fail(inst, node, reason, &batch)
                     : navigator_->Complete(inst, node,
                                            std::move(pending.outputs),
                                            pending.cost, &batch);
  if (st.ok()) st = host_->Commit(&batch);
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "could not apply the " << outcome << " report of "
                        << pending.path << ": " << st.ToString();
    // A fenced store is stepping down; a disk error does not fail the
    // instance: the transition is in the image (group mode) and the
    // degraded-mode retry makes it durable once the disk heals.
    if (!failed && (RecordStore::IsFenced(st) || st.IsIOError())) return;
    if (!failed) {
      inst->set_state(InstanceState::kFailed);
      host_->InstanceStateWritten(inst);
    }
  }
  Pump();
}

Dispatcher::PendingJob Dispatcher::TakeJob(JobMap::iterator it, bool failed,
                                           std::string_view outcome) {
  cluster::JobId job_id = it->first;
  PendingJob pending = std::move(it->second);
  jobs_.erase(it);
  UpdateBusyClock();
  if (spans_ != nullptr) {
    spans_->End(pending.job_span, std::string(outcome));
    spans_->End(pending.attempt_span, std::string(outcome));
  }
  for (auto [index, key] : {std::pair(&jobs_by_instance_, &pending.instance_id),
                             std::pair(&jobs_by_node_, &pending.node)}) {
    auto entry = index->find(*key);
    entry->second.erase(job_id);
    if (entry->second.empty()) index->erase(entry);
  }
  // A no-op when the watchdog is what runs (Cancel ignores spent ids).
  sim_->Cancel(pending.watchdog);
  awareness_->JobFinishedOrFailed(pending.node, failed);
  // A CPU freed on this node: classes parked for capacity can try again.
  WakeClassesForNode(pending.node);
  return pending;
}

Dispatcher::PendingJob Dispatcher::TakeJob(cluster::JobId job_id, bool failed,
                                           std::string_view outcome) {
  return TakeJob(jobs_.find(job_id), failed, outcome);
}

void Dispatcher::UpdateBusyClock() {
  if (ledger_->busy_open == !jobs_.empty()) return;
  ledger_->busy_open = !jobs_.empty();
  if (ledger_->busy_open) {
    ledger_->busy_since = sim_->Now();
  } else {
    ledger_->busy_us +=
        static_cast<uint64_t>((sim_->Now() - ledger_->busy_since).micros());
  }
}

void Dispatcher::BeginAttemptSpan(ReadyEntry* entry, ProcessInstance* inst,
                                  TaskNode* node) {
  if (spans_ == nullptr) return;
  entry->attempt_span = spans_->Begin(
      obs::SpanKind::kAttempt, node->path, InstanceSpanId(spans_, inst),
      /*link=*/node->last_attempt_span, inst->id(), node->path, "",
      {{"class",
        node->def != nullptr ? node->def->resource_class : std::string()},
       {"attempt", StrFormat("%d", node->attempts + 1)}});
  node->last_attempt_span = entry->attempt_span;
}

void Dispatcher::EndAttemptSpan(uint64_t attempt_span,
                                std::string_view outcome) {
  if (spans_ == nullptr || attempt_span == 0) return;
  spans_->End(attempt_span, std::string(outcome));
}

void Dispatcher::EndWorkSpans(std::string_view outcome) {
  if (spans_ == nullptr) return;
  auto end_all = [&](const EntryMap& entries) {
    for (const auto& [k, e] : entries) EndAttemptSpan(e.attempt_span, outcome);
  };
  end_all(ready_);
  for (const auto& [cls, entries] : parked_by_class_) end_all(entries);
  for (const auto& [id, entries] : parked_by_instance_) end_all(entries);
  for (const ReadyEntry& e : pump_overflow_) {
    EndAttemptSpan(e.attempt_span, outcome);
  }
  for (const auto& [job_id, pending] : jobs_) {
    spans_->End(pending.job_span, std::string(outcome));
    EndAttemptSpan(pending.attempt_span, outcome);
  }
}

void Dispatcher::PutOutcomeRow(const PendingJob& pending,
                               std::string_view outcome, bool with_outputs,
                               WriteBatch* batch) {
  PutLineageOut(
      spaces_, batch,
      {.instance = pending.instance_id, .task = pending.path,
       .attempt = pending.attempt, .outcome = std::string(outcome),
       .finish_us = sim_->Now().micros(), .cost_us = pending.cost.micros(),
       .outputs = with_outputs ? DescribeValueMap(pending.outputs)
                               : Descriptors()});
}

void Dispatcher::SyncGauges() {
  ledger_->queue_depth->Set(
      static_cast<double>(ready_.size() + pump_overflow_.size()));
  ledger_->parked_starved->Set(
      static_cast<double>(CountEntries(parked_by_class_)));
  ledger_->parked_suspended->Set(
      static_cast<double>(CountEntries(parked_by_instance_)));
  ledger_->running_jobs->Set(static_cast<double>(jobs_.size()));
}

DispatchStats Dispatcher::Stats() const {
  DispatchStats stats = ledger_->Stats(sim_->Now());
  stats.ready = ready_.size() + pump_overflow_.size();
  stats.parked_starved = CountEntries(parked_by_class_);
  stats.parked_suspended = CountEntries(parked_by_instance_);
  stats.running_jobs = jobs_.size();
  return stats;
}

std::vector<RunningJob> Dispatcher::RunningJobs() const {
  std::vector<RunningJob> out;
  for (const auto& [job_id, pending] : jobs_) {
    out.push_back({job_id, pending.instance_id, pending.path, pending.node,
                   pending.cost});
  }
  return out;
}

Duration Dispatcher::EstimateRemainingWork(const ProcessInstance& inst) const {
  // Outstanding jobs contribute their known costs.
  double seconds = 0;
  if (auto it = jobs_by_instance_.find(inst.id());
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      seconds += jobs_.at(job_id).cost.ToSeconds();
    }
  }
  // Ready/waiting activities are estimated at the mean completed cost.
  double mean = inst.stats().activities_completed > 0
                    ? inst.stats().cpu_seconds /
                          static_cast<double>(inst.stats().activities_completed)
                    : 0;
  size_t outstanding = inst.ActivitiesInState(TaskState::kReady) +
                       inst.ActivitiesInState(TaskState::kRetryWait) +
                       inst.ActivitiesInState(TaskState::kEventWait) +
                       inst.ActivitiesInState(TaskState::kInactive);
  // Repeated addition (not mean * outstanding) keeps the result
  // bit-identical to a per-node accumulation.
  for (size_t i = 0; i < outstanding; ++i) seconds += mean;
  return Duration::Seconds(seconds);
}

std::vector<TaskRow> Dispatcher::ListTasks(const ProcessInstance& inst) const {
  std::map<std::string, std::string> nodes_by_path;
  if (auto it = jobs_by_instance_.find(inst.id());
      it != jobs_by_instance_.end()) {
    for (cluster::JobId job_id : it->second) {
      const PendingJob& pending = jobs_.at(job_id);
      nodes_by_path[pending.path] = pending.node;
    }
  }
  std::vector<TaskRow> rows;
  inst.ForEachNode([&](const TaskNode* node) {
    auto it = nodes_by_path.find(node->path);
    rows.push_back({node->path, node->state,
                    it != nodes_by_path.end() ? it->second : std::string(),
                    node->started, node->finished, node->cost,
                    node->attempts});
  });
  return rows;
}

}  // namespace biopera::core
