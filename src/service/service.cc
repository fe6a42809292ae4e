#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <sstream>

#include "common/logging.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/json.h"

namespace biopera::service {

namespace {

/// Wall-clock delta helper for barrier accounting (never feeds virtual
/// time or any determinism-bearing state).
uint64_t WallNowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

ShardedService::ShardedService(std::string root_dir,
                               core::ActivityRegistry* registry,
                               ServiceOptions options)
    : root_dir_(std::move(root_dir)),
      registry_(registry),
      options_(std::move(options)),
      fs_(options_.fs != nullptr ? options_.fs : Fs::Default()) {
  if (options_.shards < 1) options_.shards = 1;
  fleet_clock_ = std::make_unique<FleetClock>(this);
  fleet_obs_.reset(new obs::Observability{
      .spans = obs::SpanSink(options_.fleet_span_capacity)});
  fleet_obs_->SetClock(fleet_clock_.get());
  slo_rules_ =
      options_.slo_rules.empty() ? DefaultSloRules() : options_.slo_rules;
  // Register the service-level families up front so METRICS key order is
  // deterministic regardless of which events fire first.
  obs::Registry& reg = fleet_obs_->metrics;
  submitted_metric_ = reg.GetCounter("service_submitted_total");
  admitted_metric_ = reg.GetCounter("service_admitted_total");
  rejected_metric_ = reg.GetCounter("service_rejected_total");
  barriers_metric_ = reg.GetCounter("service_barriers_total");
  backlog_drained_metric_ = reg.GetCounter("service_backlog_drained_total");
  backlog_gauge_ = reg.GetGauge("service_backlog_depth");
  live_gauge_ = reg.GetGauge("service_live_instances");
  barrier_wall_gauge_ = reg.GetGauge("service_barrier_wall_seconds_total");
}

ShardedService::~ShardedService() = default;

std::string ShardedService::ShardDir(int index) const {
  return root_dir_ + "/" + StrFormat("shard-%03d", index);
}

std::string ShardedService::ManifestPath() const {
  return root_dir_ + "/MANIFEST";
}

Status ShardedService::Startup() {
  if (started_) return Status::FailedPrecondition("service already started");
  if (!fs_->CreateDirs(root_dir_).ok()) {
    return Status::IOError("cannot create service root " + root_dir_);
  }

  // Hosted shards = requested routing shards plus every pre-existing
  // shard directory beyond them: a shrink keeps old shards hosted (and
  // recovering, and serving queries) but routes no new work to them, so
  // they drain instead of orphaning instances.
  int hosted = options_.shards;
  for (int i = hosted;; ++i) {
    if (!fs_->Exists(ShardDir(i))) break;
    hosted = i + 1;
  }

  EngineShard::Options shard_options = options_.shard;
  shard_options.engine.seed = options_.seed;
  if (options_.pool != nullptr &&
      shard_options.engine.executor == options_.pool) {
    // The barrier pool cannot be re-entered from inside a shard pump
    // (ThreadPool::RunBatch is single-caller); hosted engines fall back
    // to inline kernel execution.
    shard_options.engine.executor = nullptr;
  }

  for (int i = 0; i < hosted; ++i) {
    auto shard = std::make_unique<EngineShard>(i, ShardDir(i), registry_,
                                               shard_options, fs_);
    if (!shard->ok()) {
      return Status::IOError(
          StrFormat("shard %d: store open failed under %s", i,
                    root_dir_.c_str()));
    }
    if (options_.configure_cluster) {
      options_.configure_cluster(i, shard->cluster.get());
    }
    BIOPERA_RETURN_IF_ERROR(shard->engine->Startup());
    shards_.push_back(std::move(shard));
  }
  router_ = std::make_unique<Router>(options_.shards);
  barrier_profiler_ = std::make_unique<obs::BarrierProfiler>(
      hosted, &fleet_obs_->metrics, options_.barrier_profile_records);
  step_sensors_.resize(hosted);
  placement_metrics_.resize(hosted);
  local_to_global_.resize(hosted);
  for (int i = 0; i < hosted; ++i) {
    placement_metrics_[i] = fleet_obs_->metrics.GetCounter(
        "service_placements_total", {{"shard", StrFormat("%d", i)}});
  }
  BIOPERA_RETURN_IF_ERROR(LoadManifest());
  BIOPERA_ASSIGN_OR_RETURN(manifest_, fs_->OpenForAppend(ManifestPath()));
  RefreshLiveness();
  UpdateGauges();
  started_ = true;
  return Status::OK();
}

Status ShardedService::LoadManifest() {
  Result<std::string> text = fs_->ReadFileToString(ManifestPath());
  if (text.status().IsNotFound()) return Status::OK();  // fresh service
  BIOPERA_RETURN_IF_ERROR(text.status());
  manifest_torn_ = !text->empty() && text->back() != '\n';
  std::istringstream in(*text);
  std::string line;
  while (std::getline(in, line)) {
    // instance <global> <shard> <local-id> <tenant-json-escaped>
    std::istringstream row(line);
    std::string kind;
    row >> kind;
    if (kind != "instance") continue;
    InstanceRec rec;
    std::string tenant_escaped;
    row >> rec.global_id >> rec.shard >> rec.instance_id >> tenant_escaped;
    if (rec.global_id.empty() || rec.shard < 0 ||
        rec.shard >= static_cast<int>(shards_.size())) {
      continue;  // tolerate trailing garbage from a torn append
    }
    rec.tenant = obs::JsonUnescape(tenant_escaped).value_or(tenant_escaped);
    // g<seq> handles: keep the sequence monotone across restarts.
    if (rec.global_id.size() > 1 && rec.global_id[0] == 'g') {
      uint64_t seq = std::strtoull(rec.global_id.c_str() + 1, nullptr, 10);
      next_seq_ = std::max(next_seq_, seq + 1);
    }
    tenants_[rec.tenant];        // materialize the row
    TenantMetricsFor(rec.tenant);  // ...and its metric keys
    // Not live until the shard's recovery report for it is applied (the
    // RefreshLiveness that Startup runs next).
    rec.terminal = true;
    local_to_global_[rec.shard][rec.instance_id] = rec.global_id;
    instances_[rec.global_id] = std::move(rec);
  }
  return Status::OK();
}

Status ShardedService::AppendManifest(const InstanceRec& rec) {
  std::string line = manifest_torn_ ? "\n" : "";
  line += StrFormat("instance %s %d %s %s\n", rec.global_id.c_str(),
                    rec.shard, rec.instance_id.c_str(),
                    obs::JsonEscape(rec.tenant).c_str());
  BIOPERA_RETURN_IF_ERROR(manifest_->Append(line));
  manifest_torn_ = false;
  return manifest_->Flush();
}

Status ShardedService::RegisterTemplate(const ocr::ProcessDef& def) {
  for (auto& shard : shards_) {
    BIOPERA_RETURN_IF_ERROR(shard->engine->RegisterTemplate(def));
  }
  return Status::OK();
}

bool ShardedService::WithinQuota(const std::string& tenant) const {
  if (options_.max_live_instances != 0 &&
      live_ >= options_.max_live_instances) {
    return false;
  }
  if (options_.max_live_per_tenant != 0) {
    auto it = tenants_.find(tenant);
    if (it != tenants_.end() && it->second.live >= options_.max_live_per_tenant)
      return false;
  }
  return true;
}

ShardedService::TenantMetrics& ShardedService::TenantMetricsFor(
    const std::string& tenant) {
  auto it = tenant_metrics_.find(tenant);
  if (it != tenant_metrics_.end()) return it->second;
  obs::Registry& reg = fleet_obs_->metrics;
  const obs::Labels labels = {{"tenant", tenant}};
  TenantMetrics tm;
  tm.admitted = reg.GetCounter("service_admitted_total", labels);
  tm.rejected = reg.GetCounter("service_rejected_total", labels);
  tm.backlog = reg.GetGauge("service_backlog_depth", labels);
  tm.live = reg.GetGauge("service_live_instances", labels);
  // Admission wait in virtual hours: first bucket < 36 virtual seconds,
  // top bucket beyond a month — wide enough for backlog storms.
  obs::HistogramOptions wait_options;
  wait_options.first_bound = 0.01;
  wait_options.growth = 3.0;
  wait_options.num_buckets = 12;
  tm.admission_wait =
      reg.GetHistogram("service_admission_wait_hours", labels, wait_options);
  return tenant_metrics_.emplace(tenant, tm).first->second;
}

void ShardedService::UpdateGauges() {
  backlog_gauge_->Set(static_cast<double>(backlog_depth_));
  live_gauge_->Set(static_cast<double>(live_));
  for (const auto& [tenant, tstats] : tenants_) {
    TenantMetrics& tm = TenantMetricsFor(tenant);
    tm.backlog->Set(static_cast<double>(tstats.backlog));
    tm.live->Set(static_cast<double>(tstats.live));
  }
}

Result<Ticket> ShardedService::Admit(const Submission& submission,
                                     const std::string& global_id,
                                     TimePoint submitted,
                                     uint64_t admission_span) {
  const std::string& key =
      submission.key.empty() ? global_id : submission.key;
  int target = router_->Place(key);
  EngineShard* shard = shards_[target].get();
  auto started = shard->engine->StartProcess(
      submission.template_name, submission.args, submission.priority);
  if (!started.ok()) {
    fleet_obs_->spans.End(admission_span, "failed",
                          {{"error", started.status().ToString()}});
    return started.status();
  }
  const std::string& instance_id = *started;
  InstanceRec rec;
  rec.global_id = global_id;
  rec.tenant = submission.tenant;
  rec.instance_id = instance_id;
  rec.shard = target;
  rec.submitted = submitted;
  rec.submit_known = true;
  Status persisted = AppendManifest(rec);
  if (!persisted.ok()) {
    BIOPERA_LOG(kWarning) << "manifest append failed: "
                          << persisted.ToString();
  }
  instances_[global_id] = rec;
  local_to_global_[target][instance_id] = global_id;
  ++live_;
  TenantStats& tstats = tenants_[submission.tenant];
  ++tstats.admitted;
  ++tstats.live;
  admitted_metric_->Increment();
  TenantMetrics& tm = TenantMetricsFor(submission.tenant);
  tm.admitted->Increment();
  tm.admission_wait->Observe((VirtualNow() - submitted).ToSeconds() / 3600.0);
  if (target < static_cast<int>(placement_metrics_.size())) {
    placement_metrics_[target]->Increment();
  }
  fleet_obs_->spans.End(admission_span, "admitted",
                        {{"shard", StrFormat("%d", target)},
                         {"instance", instance_id}});
  Ticket ticket;
  ticket.global_id = global_id;
  ticket.shard = target;
  ticket.instance_id = instance_id;
  return ticket;
}

Result<Ticket> ShardedService::Submit(const Submission& submission) {
  if (!started_) return Status::FailedPrecondition("service not started");
  submitted_metric_->Increment();
  const std::string global_id = StrFormat(
      "g%llu", static_cast<unsigned long long>(next_seq_++));
  const TimePoint submitted = VirtualNow();
  if (WithinQuota(submission.tenant)) {
    // Open the admission span before placement so an immediate admit
    // still leaves a (zero-duration) front-door record on the timeline.
    uint64_t span = fleet_obs_->spans.Begin(
        obs::SpanKind::kAdmission, global_id, 0, 0, global_id, "", "",
        {{"tenant", submission.tenant}});
    Result<Ticket> ticket = Admit(submission, global_id, submitted, span);
    if (ticket.ok()) UpdateGauges();
    return ticket;
  }
  if (backlog_depth_ >= options_.max_backlog) {
    ++tenants_[submission.tenant].rejected;
    rejected_metric_->Increment();
    TenantMetricsFor(submission.tenant).rejected->Increment();
    fleet_obs_->spans.EmitInstant(obs::SpanKind::kAdmission, global_id, 0,
                                  global_id, "", "",
                                  {{"tenant", submission.tenant}},
                                  "rejected");
    --next_seq_;  // the handle was never issued
    return Status::Unavailable("admission quota reached and backlog full");
  }
  BacklogEntry entry;
  entry.global_id = global_id;
  entry.submission = submission;
  entry.submitted = submitted;
  entry.span = fleet_obs_->spans.Begin(
      obs::SpanKind::kAdmission, global_id, 0, 0, global_id, "", "",
      {{"tenant", submission.tenant}, {"backlogged", "1"}});
  backlog_[submission.tenant].push_back(std::move(entry));
  ++backlog_depth_;
  ++tenants_[submission.tenant].backlog;
  UpdateGauges();
  Ticket ticket;
  ticket.global_id = global_id;
  ticket.backlogged = true;
  return ticket;
}

void ShardedService::DrainBacklog() {
  if (backlog_depth_ == 0) return;
  // Round-robin across tenants (FIFO within one): each cycle admits at
  // most one submission per tenant, so a heavy tenant cannot starve the
  // others while quotas free up.
  bool progressed = true;
  while (backlog_depth_ > 0 && progressed) {
    progressed = false;
    // Start the cycle after the tenant that was served last.
    auto start = backlog_.upper_bound(backlog_cursor_);
    for (size_t visited = 0; visited < backlog_.size() + 1; ++visited) {
      if (backlog_.empty()) break;
      if (start == backlog_.end()) start = backlog_.begin();
      auto current = start++;
      const std::string tenant = current->first;
      if (current->second.empty()) {
        backlog_.erase(current);
        continue;
      }
      if (!WithinQuota(tenant)) continue;
      BacklogEntry entry = std::move(current->second.front());
      current->second.pop_front();
      --backlog_depth_;
      TenantStats& tstats = tenants_[tenant];
      if (tstats.backlog > 0) --tstats.backlog;
      backlog_cursor_ = tenant;
      Result<Ticket> admitted =
          Admit(entry.submission, entry.global_id, entry.submitted,
                entry.span);
      if (admitted.ok()) {
        backlog_drained_metric_->Increment();
      } else {
        BIOPERA_LOG(kWarning)
            << "backlogged submission " << entry.global_id
            << " failed to start: " << admitted.status().ToString();
        ++tstats.rejected;
        rejected_metric_->Increment();
        TenantMetricsFor(tenant).rejected->Increment();
      }
      progressed = true;
      if (current->second.empty()) backlog_.erase(tenant);
    }
  }
}

void ShardedService::RefreshLiveness() {
  for (size_t shard = 0; shard < shards_.size(); ++shard) {
    core::Engine& engine = *shards_[shard]->engine;
    const auto& admitted = local_to_global_[shard];
    for (const std::string& local_id : engine.TakeStateChanges()) {
      auto placed = admitted.find(local_id);
      if (placed == admitted.end()) continue;  // not started by this service
      InstanceRec& rec = instances_.at(placed->second);
      auto state = engine.GetInstanceState(local_id);
      const bool live = state.ok() &&  // archived or dropped: not live
                        (*state == core::InstanceState::kRunning ||
                         *state == core::InstanceState::kSuspended);
      if (live != rec.terminal) continue;  // liveness did not flip
      rec.terminal = !live;
      TenantStats& tstats = tenants_[rec.tenant];
      if (live) {
        ++live_;
        ++tstats.live;
      } else {
        --live_;
        --tstats.live;
      }
    }
  }
}

void ShardedService::AdvanceAll(TimePoint target) {
  const TimePoint virtual_start = VirtualNow();
  const uint64_t barrier_seq = barriers_metric_->value() + 1;
  const uint64_t barrier_span = fleet_obs_->spans.Begin(
      obs::SpanKind::kBarrier,
      StrFormat("barrier %llu",
                static_cast<unsigned long long>(barrier_seq)),
      0, 0, "", "", "", {{"target", target.ToString()}});

  // One raw profile sample per shard: the shard's own RunUntil wall time
  // (measured on the pumping thread), then the pump/kernel/store buckets
  // drained from its wall profile after the join (ThreadPool::RunBatch
  // joins, so the drains are ordered after every pump).
  std::vector<obs::BarrierProfiler::RawSample> raw(shards_.size());
  const uint64_t t0 = WallNowNs();
  if (options_.pool != nullptr && shards_.size() > 1) {
    std::vector<std::function<void()>> tasks;
    tasks.reserve(shards_.size());
    for (size_t i = 0; i < shards_.size(); ++i) {
      EngineShard* s = shards_[i].get();
      obs::BarrierProfiler::RawSample* sample = &raw[i];
      tasks.push_back([s, target, sample] {
        const uint64_t s0 = WallNowNs();
        s->sim.RunUntil(target);
        sample->step_ns = WallNowNs() - s0;
      });
    }
    options_.pool->RunBatch(std::move(tasks));
  } else {
    for (size_t i = 0; i < shards_.size(); ++i) {
      const uint64_t s0 = WallNowNs();
      shards_[i]->sim.RunUntil(target);
      raw[i].step_ns = WallNowNs() - s0;
    }
  }
  const uint64_t wall_ns = WallNowNs() - t0;
  barrier_wall_ns_ += wall_ns;
  barriers_metric_->Increment();
  barrier_wall_gauge_->Set(static_cast<double>(barrier_wall_ns_) / 1e9);

  for (size_t i = 0; i < shards_.size(); ++i) {
    uint64_t buckets[obs::WallProfile::kNumBuckets];
    shards_[i]->wall_profile.Drain(buckets);
    raw[i].pump_ns = buckets[obs::WallProfile::kPump];
    raw[i].kernel_ns = buckets[obs::WallProfile::kKernel];
    raw[i].store_ns = buckets[obs::WallProfile::kStore];
  }
  const TimePoint virtual_end = VirtualNow();
  if (barrier_profiler_ != nullptr) {
    barrier_profiler_->Record(wall_ns, virtual_start, virtual_end, raw);
  }
  barrier_bounds_.push_back(virtual_end);

  // Streaming straggler sensors: each shard's *virtual* busy time this
  // barrier (deterministic), not its wall time.
  for (size_t i = 0; i < shards_.size(); ++i) {
    const uint64_t busy =
        shards_[i]->engine->GetDispatchStats().busy_virtual_us;
    const uint64_t delta = busy - step_sensors_[i].last_busy_us;
    step_sensors_[i].last_busy_us = busy;
    if (delta > 0) {
      step_sensors_[i].step.Observe(static_cast<double>(delta) / 1e6);
    }
  }
  fleet_obs_->spans.End(barrier_span, "advanced");
}

bool ShardedService::StepBarrier() {
  DrainBacklog();
  // Barrier target: the earliest pending event among shards that still
  // have regular work, plus the quantum. Shards with only daemon events
  // (periodic monitors) do not drive the barrier, but are advanced to
  // the same target so the lockstep clock never skews.
  bool any = false;
  TimePoint earliest;
  for (auto& shard : shards_) {
    if (shard->sim.NumPendingRegular() == 0) continue;
    TimePoint t;
    if (shard->sim.NextEventTime(&t) && (!any || t < earliest)) {
      earliest = t;
      any = true;
    }
  }
  if (!any) return false;
  AdvanceAll(earliest + options_.barrier_quantum);
  RefreshLiveness();
  DrainBacklog();
  UpdateGauges();
  EvaluateHealth();
  return true;
}

void ShardedService::RunUntilQuiescent(size_t max_barriers) {
  size_t steps = 0;
  while (StepBarrier()) {
    if (max_barriers != 0 && ++steps >= max_barriers) break;
  }
}

void ShardedService::AdvanceUntil(TimePoint t) {
  DrainBacklog();
  AdvanceAll(t);
  RefreshLiveness();
  DrainBacklog();
  UpdateGauges();
  EvaluateHealth();
}

TimePoint ShardedService::VirtualNow() const {
  TimePoint now;
  for (const auto& shard : shards_) now = std::max(now, shard->sim.Now());
  return now;
}

Result<Ticket> ShardedService::Find(const std::string& global_id) const {
  auto it = instances_.find(global_id);
  if (it == instances_.end()) {
    // Backlogged submissions have a handle but no placement yet.
    for (const auto& [tenant, queue] : backlog_) {
      for (const BacklogEntry& entry : queue) {
        if (entry.global_id == global_id) {
          Ticket ticket;
          ticket.global_id = global_id;
          ticket.backlogged = true;
          return ticket;
        }
      }
    }
    return Status::NotFound("no instance " + global_id);
  }
  Ticket ticket;
  ticket.global_id = global_id;
  ticket.shard = it->second.shard;
  ticket.instance_id = it->second.instance_id;
  return ticket;
}

Result<core::InstanceState> ShardedService::GetState(
    const std::string& global_id) const {
  BIOPERA_ASSIGN_OR_RETURN(Ticket ticket, Find(global_id));
  if (ticket.backlogged) {
    return Status::Unavailable(global_id + " is queued for admission");
  }
  return shards_[ticket.shard]->engine->GetInstanceState(ticket.instance_id);
}

Result<ocr::Value> ShardedService::GetWhiteboardValue(
    const std::string& global_id, const std::string& var) const {
  BIOPERA_ASSIGN_OR_RETURN(Ticket ticket, Find(global_id));
  if (ticket.backlogged) {
    return Status::Unavailable(global_id + " is queued for admission");
  }
  return shards_[ticket.shard]->engine->GetWhiteboardValue(
      ticket.instance_id, var);
}

size_t ShardedService::LiveInstances() const { return live_; }

ServiceStats ShardedService::GetStats() const {
  ServiceStats stats;
  stats.submitted = submitted_metric_->value();
  stats.admitted = admitted_metric_->value();
  stats.rejected = rejected_metric_->value();
  stats.barriers = barriers_metric_->value();
  stats.barrier_wall_ns = barrier_wall_ns_;
  stats.backlog_depth = backlog_depth_;
  stats.live = live_;
  for (const auto& shard : shards_) {
    core::Engine::DispatchStats ds = shard->engine->GetDispatchStats();
    stats.pump_runs += ds.pump_runs;
    stats.dispatched += ds.dispatched;
    stats.running_jobs += ds.running_jobs;
    stats.queue_depth += ds.ready + ds.parked_starved + ds.parked_suspended;
  }
  return stats;
}

std::map<std::string, ShardedService::TenantStats>
ShardedService::GetTenantStats() const {
  return tenants_;
}

std::string ShardedService::BuildCrossShardReport() const {
  std::ostringstream out;
  size_t done = 0, failed = 0, live = 0;
  uint64_t tasks_done = 0, tasks_total = 0;
  struct ShardRow {
    size_t live = 0, done = 0, failed = 0;
    core::Engine::DispatchStats dispatch;
    uint64_t epoch = 0;
  };
  std::vector<ShardRow> rows(shards_.size());
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardRow& row = rows[i];
    row.dispatch = shards_[i]->engine->GetDispatchStats();
    row.epoch = shards_[i]->engine->writer_epoch();
    for (const auto& summary : shards_[i]->engine->ListInstances()) {
      tasks_done += summary.tasks_done;
      tasks_total += summary.tasks_total;
      switch (summary.state) {
        case core::InstanceState::kDone:
          ++row.done;
          ++done;
          break;
        case core::InstanceState::kFailed:
        case core::InstanceState::kAborted:
          ++row.failed;
          ++failed;
          break;
        default:
          ++row.live;
          ++live;
          break;
      }
    }
  }
  out << "=== cross-shard run report @ " << VirtualNow().ToString()
      << " ===\n";
  out << StrFormat(
      "shards: %d hosted / %d routed   instances: %zu live, %zu done, "
      "%zu failed   backlog: %zu\n",
      hosted_shards(), routed_shards(), live, done, failed, backlog_depth_);
  double pct = tasks_total == 0
                   ? 0.0
                   : 100.0 * static_cast<double>(tasks_done) /
                         static_cast<double>(tasks_total);
  out << StrFormat("activities: %llu / %llu (%.1f%%)\n",
                   static_cast<unsigned long long>(tasks_done),
                   static_cast<unsigned long long>(tasks_total), pct);
  out << "shard  live  done  fail  queue  running  pumps  dispatched  "
         "epoch\n";
  for (size_t i = 0; i < rows.size(); ++i) {
    const ShardRow& row = rows[i];
    out << StrFormat(
        "%5zu %5zu %5zu %5zu %6zu %8zu %6llu %11llu %6llu%s\n", i, row.live,
        row.done, row.failed,
        row.dispatch.ready + row.dispatch.parked_starved +
            row.dispatch.parked_suspended,
        row.dispatch.running_jobs,
        static_cast<unsigned long long>(row.dispatch.pump_runs),
        static_cast<unsigned long long>(row.dispatch.dispatched),
        static_cast<unsigned long long>(row.epoch),
        static_cast<int>(i) >= options_.shards ? "  (draining)" : "");
  }
  if (!tenants_.empty()) {
    out << "tenant  live  backlog  admitted  rejected\n";
    for (const auto& [tenant, tstats] : tenants_) {
      out << StrFormat("%s  %zu  %zu  %llu  %llu\n", tenant.c_str(),
                       tstats.live, tstats.backlog,
                       static_cast<unsigned long long>(tstats.admitted),
                       static_cast<unsigned long long>(tstats.rejected));
    }
  }
  return out.str();
}

std::map<std::string, double> ShardedService::CollectSloSensors() const {
  std::map<std::string, double> sensors;
  sensors["backlog_depth"] = static_cast<double>(backlog_depth_);
  const uint64_t rejected = rejected_metric_->value();
  const uint64_t decided = admitted_metric_->value() + rejected;
  sensors["rejection_ratio"] =
      decided == 0 ? 0.0
                   : static_cast<double>(rejected) /
                         static_cast<double>(decided);
  double wait_p99 = 0.0;
  for (const auto& [tenant, tm] : tenant_metrics_) {
    if (tm.admission_wait != nullptr) {
      wait_p99 = std::max(wait_p99, tm.admission_wait->Percentile(99.0));
    }
  }
  sensors["admission_wait_p99_hours"] = wait_p99;
  // Straggler skew: slowest shard's streaming p90 busy-time over the
  // fleet mean p90. 1.0 when balanced (or before any data).
  double max_p90 = 0.0, sum_p90 = 0.0;
  int with_data = 0;
  for (const auto& sensor : step_sensors_) {
    if (sensor.step.count == 0) continue;
    const double p90 = sensor.step.p90.Estimate();
    max_p90 = std::max(max_p90, p90);
    sum_p90 += p90;
    ++with_data;
  }
  sensors["shard_busy_skew"] =
      (with_data == 0 || sum_p90 <= 0.0)
          ? 1.0
          : max_p90 / (sum_p90 / static_cast<double>(with_data));
  return sensors;
}

HealthReport ShardedService::EvaluateHealth() {
  HealthReport report = EvaluateSlo(slo_rules_, CollectSloSensors());
  for (const SloVerdict& verdict : report.verdicts) {
    HealthState& last = rule_state_[verdict.rule.name];  // defaults to kOk
    if (verdict.state == last) continue;
    fleet_obs_->spans.EmitInstant(
        obs::SpanKind::kSloTransition, verdict.rule.name, /*parent=*/0,
        /*instance=*/"", /*task=*/"", /*node=*/"",
        {{"rule", verdict.rule.name},
         {"sensor", verdict.rule.sensor},
         {"value", StrFormat("%.3f", verdict.value)},
         {"from", HealthStateName(last)},
         {"to", HealthStateName(verdict.state)}},
        HealthStateName(verdict.state));
    last = verdict.state;
  }
  overall_health_ = report.overall;
  return report;
}

std::string ShardedService::BuildFleetReport() const {
  std::ostringstream out;
  out << "=== fleet report @ " << VirtualNow().ToString() << " ===\n";
  out << StrFormat(
      "submitted=%llu admitted=%llu rejected=%llu backlog=%zu live=%zu "
      "barriers=%llu\n",
      static_cast<unsigned long long>(submitted_metric_->value()),
      static_cast<unsigned long long>(admitted_metric_->value()),
      static_cast<unsigned long long>(rejected_metric_->value()),
      backlog_depth_, live_,
      static_cast<unsigned long long>(barriers_metric_->value()));
  if (!tenants_.empty()) {
    out << "--- tenants (admission wait in virtual hours) ---\n";
    out << "tenant  live  backlog  admitted  rejected  wait_p50  wait_p99\n";
    for (const auto& [tenant, tstats] : tenants_) {
      double p50 = 0.0, p99 = 0.0;
      auto it = tenant_metrics_.find(tenant);
      if (it != tenant_metrics_.end() && it->second.admission_wait != nullptr) {
        p50 = it->second.admission_wait->Percentile(50.0);
        p99 = it->second.admission_wait->Percentile(99.0);
      }
      out << StrFormat("%s  %zu  %zu  %llu  %llu  %.3f  %.3f\n",
                       tenant.c_str(), tstats.live, tstats.backlog,
                       static_cast<unsigned long long>(tstats.admitted),
                       static_cast<unsigned long long>(tstats.rejected), p50,
                       p99);
    }
  }
  out << "--- streaming straggler sensors ---\n";
  for (size_t i = 0; i < step_sensors_.size(); ++i) {
    out << step_sensors_[i].step.ToRow(
               StrFormat("shard %zu step-busy (virtual s)", i))
        << "\n";
  }
  for (size_t i = 0; i < shards_.size(); ++i) {
    out << shards_[i]->job_cost_sensor.ToRow(
               StrFormat("shard %zu job-cost (virtual s)", i))
        << "\n";
  }
  out << "--- SLO ---\n";
  out << EvaluateSlo(slo_rules_, CollectSloSensors()).ToText();
  return out.str();
}

std::string ShardedService::ExportFleetSpans() const {
  std::vector<obs::FleetSource> sources;
  sources.push_back({-1, &fleet_obs_->spans});
  for (size_t i = 0; i < shards_.size(); ++i) {
    sources.push_back({static_cast<int>(i), &shards_[i]->obs.spans});
  }
  return obs::FederateSpansJsonl(sources);
}

std::string ShardedService::ExportFleetChrome() const {
  std::vector<obs::FleetSource> sources;
  sources.push_back({-1, &fleet_obs_->spans});
  for (size_t i = 0; i < shards_.size(); ++i) {
    sources.push_back({static_cast<int>(i), &shards_[i]->obs.spans});
  }
  return obs::FederateChromeTrace(sources);
}

std::string ShardedService::ExportFleetLineage() const {
  std::vector<std::pair<int, std::string>> sources;
  for (size_t i = 0; i < shards_.size(); ++i) {
    sources.emplace_back(static_cast<int>(i),
                         shards_[i]->engine->ExportAllLineageJsonl());
  }
  return obs::MergeJsonlByShard(sources);
}

std::string ShardedService::ExportBarrierProfile() const {
  if (barrier_profiler_ == nullptr) return "";
  return barrier_profiler_->ExportChromeTrace();
}

Result<obs::CriticalPathReport> ShardedService::FleetCriticalPath(
    const std::string& global_id) const {
  auto it = instances_.find(global_id);
  if (it == instances_.end()) {
    return Status::NotFound("no instance " + global_id);
  }
  const InstanceRec& rec = it->second;
  obs::FleetPathInput input;
  input.shard_spans = &shards_[rec.shard]->obs.spans;
  input.shard = rec.shard;
  input.instance = rec.instance_id;
  // Manifest-recovered instances predate this service generation: no
  // submit time is known, so stamp "now" — the analyzer then leaves the
  // shard-local report unextended.
  input.submitted = rec.submit_known ? rec.submitted : VirtualNow();
  input.barriers = barrier_bounds_;
  return obs::AnalyzeFleetCriticalPath(input);
}

std::string ShardedService::ExportShardSpans(int shard) const {
  return shards_[shard]->obs.spans.ExportJsonl();
}

}  // namespace biopera::service
