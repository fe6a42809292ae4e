#include "cluster/cluster.h"

#include <algorithm>
#include <cassert>

#include "common/logging.h"
#include "common/strings.h"

namespace biopera::cluster {

bool NodeConfig::ServesClass(std::string_view cls) const {
  if (cls.empty() || resource_classes.empty()) return true;
  for (const std::string& c : StrSplit(resource_classes, ',')) {
    if (StripWhitespace(c) == cls) return true;
  }
  return false;
}

double ClusterSim::Node::RatePerJob() const {
  if (!up || jobs.empty()) return 0;
  double free = std::max(
      0.0, static_cast<double>(config.num_cpus) - external_busy);
  double share = std::min(1.0, free / static_cast<double>(jobs.size()));
  return config.speed * share;
}

double ClusterSim::Node::EffectiveBusyCpus() const {
  if (!up || jobs.empty()) return 0;
  double free = std::max(
      0.0, static_cast<double>(config.num_cpus) - external_busy);
  return std::min(static_cast<double>(jobs.size()), free);
}

ClusterSim::ClusterSim(Simulator* sim) : sim_(sim) {
  AttachChannel(&own_channel_);
  UpdateTrace();
}

void ClusterSim::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ != nullptr && !obs_->spans.has_clock()) obs_->SetClock(sim_);
}

Status ClusterSim::AddNode(const NodeConfig& config) {
  if (config.num_cpus <= 0 || config.speed <= 0) {
    return Status::InvalidArgument("node " + config.name +
                                   ": cpus and speed must be positive");
  }
  if (nodes_.contains(config.name)) {
    return Status::AlreadyExists("node " + config.name);
  }
  Node node;
  node.config = config;
  node.last_update = sim_->Now();
  auto [it, inserted] = nodes_.emplace(config.name, std::move(node));
  (void)inserted;
  ArmHeartbeat(&it->second);  // no-op unless heartbeats are enabled
  UpdateTrace();
  return Status::OK();
}

Status ClusterSim::RemoveNode(const std::string& name) {
  Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  // Treat as a crash first so running jobs are reported lost; the crash
  // also cancels the node's completion and heartbeat events, whose
  // closures hold `node`.
  if (node->up) BIOPERA_RETURN_IF_ERROR(CrashNode(name));
  nodes_.erase(name);
  UpdateTrace();
  return Status::OK();
}

std::vector<NodeConfig> ClusterSim::Nodes() const {
  std::vector<NodeConfig> out;
  for (const auto& [name, node] : nodes_) out.push_back(node.config);
  return out;
}

Result<NodeConfig> ClusterSim::GetNode(const std::string& name) const {
  const Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  return node->config;
}

bool ClusterSim::IsUp(const std::string& name) const {
  const Node* node = Find(name);
  return node != nullptr && node->up;
}

int ClusterSim::AvailableCpus() const {
  int total = 0;
  for (const auto& [name, node] : nodes_) {
    if (node.up) total += node.config.num_cpus;
  }
  return total;
}

ClusterSim::Node* ClusterSim::Find(const std::string& name) {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

const ClusterSim::Node* ClusterSim::Find(const std::string& name) const {
  auto it = nodes_.find(name);
  return it == nodes_.end() ? nullptr : &it->second;
}

void ClusterSim::Advance(Node* node) {
  TimePoint now = sim_->Now();
  double elapsed = (now - node->last_update).ToSeconds();
  if (elapsed > 0) {
    double rate = node->RatePerJob();
    if (rate > 0) {
      for (Job& job : node->jobs) {
        job.remaining_seconds =
            std::max(0.0, job.remaining_seconds - elapsed * rate);
      }
    }
  }
  node->last_update = now;
}

void ClusterSim::Reschedule(Node* node) {
  double rate = node->RatePerJob();
  for (Job& job : node->jobs) {
    if (job.completion != kInvalidEventId) {
      sim_->Cancel(job.completion);
      job.completion = kInvalidEventId;
    }
    if (rate > 0) {
      Duration eta = Duration::Seconds(job.remaining_seconds / rate);
      JobId id = job.id;
      // Node addresses are stable in nodes_, and every path that drops a
      // job or erases its node cancels this event first.
      job.completion =
          sim_->Schedule(eta, [this, node, id] { CompleteJob(node, id); });
    }
  }
}

void ClusterSim::KillAllJobs() {
  for (auto& [name, node] : nodes_) {
    Advance(&node);
    for (Job& job : node.jobs) {
      if (job.completion != kInvalidEventId) sim_->Cancel(job.completion);
      wasted_seconds_ += job.initial_seconds - job.remaining_seconds;
    }
    node.jobs.clear();
  }
  job_locations_.clear();
  UpdateTrace();
}

size_t ClusterSim::NumRunningJobs() const { return job_locations_.size(); }

Result<std::string> ClusterSim::JobNode(JobId id) const {
  auto it = job_locations_.find(id);
  if (it == job_locations_.end()) {
    return Status::NotFound("job not running");
  }
  return it->second;
}

Result<Duration> ClusterSim::JobRemaining(JobId id) const {
  auto it = job_locations_.find(id);
  if (it == job_locations_.end()) {
    return Status::NotFound("job not running");
  }
  const Node* node = Find(it->second);
  for (const Job& job : node->jobs) {
    if (job.id == id) {
      // Account for progress since the node's last bookkeeping update.
      double elapsed = (sim_->Now() - node->last_update).ToSeconds();
      double remaining =
          std::max(0.0, job.remaining_seconds - elapsed * node->RatePerJob());
      return Duration::Seconds(remaining);
    }
  }
  return Status::Internal("job location desync");
}

void ClusterSim::CompleteJob(Node* node, JobId id) {
  Advance(node);
  auto job = std::find_if(node->jobs.begin(), node->jobs.end(),
                          [&](const Job& j) { return j.id == id; });
  if (job == node->jobs.end()) return;  // raced with a kill
  uint64_t fence = job->fence;
  node->jobs.erase(job);
  job_locations_.erase(id);
  // Remember the outcome so a duplicated launch of this attempt re-sends
  // the report instead of re-running the work.
  finished_jobs_[id] = fence;
  ReportCompletion(node, id, fence);
  Reschedule(node);  // survivors get a bigger share
  UpdateTrace();
}

void ClusterSim::ReportCompletion(Node* node, JobId id, uint64_t fence) {
  comms::Message msg;
  msg.type = comms::MessageType::kCompletion;
  msg.node = node->config.name;
  msg.job = id;
  msg.fence = fence;
  if (!channel_->SendReport(msg)) {
    node->pending_reports.push_back(std::move(msg));
  }
}

void ClusterSim::FlushReports(Node* node) {
  // Strictly enqueue (FIFO) order: the deque is drained front-first and
  // every path that queues appends at the back, so a reconnect replays
  // the outage's reports in exactly the order the node produced them.
  while (!node->pending_reports.empty() &&
         channel_->ReportLinkUp(node->config.name)) {
    comms::Message msg = std::move(node->pending_reports.front());
    node->pending_reports.pop_front();
    channel_->SendReport(msg);
  }
}

Status ClusterSim::CrashNode(const std::string& name) {
  Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  if (!node->up) return Status::OK();
  Advance(node);
  node->up = false;
  CancelHeartbeat(node);
  // Running jobs die with the node; queued reports die with the PEC.
  std::vector<JobId> lost;
  for (Job& job : node->jobs) {
    if (job.completion != kInvalidEventId) sim_->Cancel(job.completion);
    wasted_seconds_ += job.initial_seconds - job.remaining_seconds;
    lost.push_back(job.id);
  }
  node->jobs.clear();
  node->pending_reports.clear();
  for (JobId id : lost) job_locations_.erase(id);
  UpdateTrace();
  if (obs_ != nullptr) {
    obs_->spans.Begin(obs::SpanKind::kNodeOutage, "node down", /*parent=*/0,
                      /*link=*/0, /*instance=*/"", /*task=*/"", name,
                      {{"jobs_lost", StrFormat("%zu", lost.size())}});
  }
  // The server detects the dead PEC (heartbeat timeout) and classifies the
  // node's active jobs as failed (paper §5.4 events 3 and 7). In lease
  // mode there is no such modelling shortcut: the crash only shows up as
  // missed leases and the engine's suspicion machinery takes over.
  if (listener_ != nullptr && heartbeat_interval_ <= Duration::Zero()) {
    listener_->OnNodeDown(name);
    for (JobId id : lost) {
      listener_->OnJobFailed(id, name, "node crash");
    }
  }
  return Status::OK();
}

Status ClusterSim::RepairNode(const std::string& name) {
  Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  if (node->up) return Status::OK();
  node->up = true;
  node->last_update = sim_->Now();
  ArmHeartbeat(node);
  UpdateTrace();
  if (obs_ != nullptr) {
    obs_->spans.End(
        obs_->spans.FindOpen(obs::SpanKind::kNodeOutage, "", name),
        "repaired");
  }
  if (listener_ != nullptr && heartbeat_interval_ <= Duration::Zero()) {
    listener_->OnNodeUp(name);
  }
  return Status::OK();
}

Status ClusterSim::SetNodeCpus(const std::string& name, int num_cpus) {
  Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  if (num_cpus <= 0) return Status::InvalidArgument("num_cpus must be > 0");
  Advance(node);
  node->config.num_cpus = num_cpus;
  Reschedule(node);
  UpdateTrace();
  if (listener_ != nullptr) listener_->OnConfigChanged(node->config);
  return Status::OK();
}

Status ClusterSim::SetExternalLoad(const std::string& name,
                                   double busy_cpus) {
  Node* node = Find(name);
  if (node == nullptr) return Status::NotFound("node " + name);
  busy_cpus = std::clamp(busy_cpus, 0.0,
                         static_cast<double>(node->config.num_cpus));
  Advance(node);
  node->external_busy = busy_cpus;
  Reschedule(node);
  UpdateTrace();
  // Raw load change; the PEC's adaptive monitor decides whether to
  // propagate a report (wired externally via the monitor module). The PEC
  // reports the *external* load fraction — it can tell its own jobs apart.
  if (node->up) {
    comms::Message msg;
    msg.type = comms::MessageType::kLoad;
    msg.node = name;
    msg.load = node->external_busy / node->config.num_cpus;
    channel_->SendReport(msg);  // ephemeral: not queued when the link is down
  }
  return Status::OK();
}

double ClusterSim::ExternalLoad(const std::string& name) const {
  const Node* node = Find(name);
  return node == nullptr ? 0 : node->external_busy;
}

double ClusterSim::ExternalLoadFraction(const std::string& name) const {
  const Node* node = Find(name);
  if (node == nullptr || node->config.num_cpus == 0) return 0;
  return node->external_busy / node->config.num_cpus;
}

Status ClusterSim::SetConnected(const std::string& name, bool connected) {
  if (Find(name) == nullptr) return Status::NotFound("node " + name);
  // Symmetric outage on the channel; OnChannelLink flushes on reconnect.
  channel_->SetConnected(name, connected);
  return Status::OK();
}

void ClusterSim::SetAllConnected(bool connected) {
  for (const auto& [name, node] : nodes_) {
    channel_->SetConnected(name, connected);
  }
}

// ---------------------------------------------------------------------------
// Message channel (the engine <-> PEC seam)
// ---------------------------------------------------------------------------

void ClusterSim::AttachChannel(comms::Channel* channel) {
  channel_ = channel;
  channel_->BindSimulator(sim_);
  channel_->SetCommandHandler(this);
  channel_->SetLinkObserver(
      [this](const std::string& name) { OnChannelLink(name); });
}

void ClusterSim::DetachChannel(comms::Channel* channel) {
  if (channel_ != channel || channel_ == &own_channel_) return;
  channel_->SetCommandHandler(nullptr);
  channel_->SetLinkObserver(nullptr);
  AttachChannel(&own_channel_);
}

void ClusterSim::OnChannelLink(const std::string& name) {
  if (Node* node = Find(name); node != nullptr) FlushReports(node);
  if (listener_ != nullptr) listener_->OnLinkChanged(name);
}

Status ClusterSim::HandleCommand(const comms::Message& msg) {
  switch (msg.type) {
    case comms::MessageType::kLaunch:
      return HandleLaunch(msg);
    case comms::MessageType::kKill:
      return HandleKill(msg);
    case comms::MessageType::kProbe:
      return HandleProbe(msg);
    default:
      return Status::InvalidArgument("not a command");
  }
}

Status ClusterSim::HandleLaunch(const comms::Message& msg) {
  // Every attempt carries the engine's fencing token; the dedup memory
  // below is keyed by it.
  if (msg.fence == 0) {
    return Status::InvalidArgument(
        StrFormat("launch of job %llu carries no fence",
                  static_cast<unsigned long long>(msg.job)));
  }
  Node* node = Find(msg.node);
  if (node == nullptr) return Status::NotFound("node " + msg.node);
  // Exactly-once dedup. A tombstoned attempt was killed — a late
  // duplicate of its launch must not resurrect it.
  if (auto dead = dead_jobs_.find(msg.job);
      dead != dead_jobs_.end() && dead->second == msg.fence) {
    return Status::OK();
  }
  // A finished attempt re-sends its report (maybe the first was lost)
  // instead of burning CPU on a rerun.
  if (auto fin = finished_jobs_.find(msg.job);
      fin != finished_jobs_.end() && fin->second == msg.fence) {
    if (node->up) ReportCompletion(node, msg.job, msg.fence);
    return Status::OK();
  }
  // Already running with the same fence: benign duplicate, idempotent.
  if (auto loc = job_locations_.find(msg.job); loc != job_locations_.end()) {
    Node* running_on = Find(loc->second);
    for (const Job& job : running_on->jobs) {
      if (job.id == msg.job && job.fence == msg.fence) return Status::OK();
    }
    return Status::AlreadyExists(
        StrFormat("job %llu already running under another fence",
                  static_cast<unsigned long long>(msg.job)));
  }
  if (!node->up) {
    return Status::Unavailable("node " + node->config.name + " is down");
  }
  Advance(node);
  node->jobs.push_back(Job{msg.job, msg.work.ToSeconds(),
                           msg.work.ToSeconds(), msg.fence, kInvalidEventId});
  job_locations_[msg.job] = node->config.name;
  Reschedule(node);
  UpdateTrace();
  return Status::OK();
}

Status ClusterSim::HandleKill(const comms::Message& msg) {
  auto it = job_locations_.find(msg.job);
  if (it == job_locations_.end()) {
    // The launch may still be in flight (delayed or reordered past this
    // kill): tombstone the attempt so it can never start afterwards.
    if (!finished_jobs_.contains(msg.job)) dead_jobs_[msg.job] = msg.fence;
    return Status::NotFound(StrFormat(
        "job %llu not running", static_cast<unsigned long long>(msg.job)));
  }
  Node* node = Find(it->second);
  assert(node != nullptr);
  Advance(node);
  auto job = std::find_if(node->jobs.begin(), node->jobs.end(),
                          [&](const Job& j) { return j.id == msg.job; });
  assert(job != node->jobs.end());
  if (job->completion != kInvalidEventId) sim_->Cancel(job->completion);
  wasted_seconds_ += job->initial_seconds - job->remaining_seconds;
  // Tombstone the killed attempt against delayed duplicates of its launch.
  dead_jobs_[msg.job] = job->fence;
  node->jobs.erase(job);
  job_locations_.erase(it);
  Reschedule(node);
  UpdateTrace();
  return Status::OK();
}

Status ClusterSim::HandleProbe(const comms::Message& msg) {
  Node* node = Find(msg.node);
  if (node == nullptr) return Status::NotFound("node " + msg.node);
  if (!node->up) return Status::Unavailable("node " + msg.node + " is down");
  // A reachable PEC answers immediately — this is how a falsely suspected
  // node reconciles without waiting a full heartbeat interval.
  SendHeartbeat(node);
  return Status::OK();
}

void ClusterSim::EnableHeartbeats(Duration interval) {
  heartbeat_interval_ = interval;
  for (auto& [name, node] : nodes_) ArmHeartbeat(&node);
}

void ClusterSim::ArmHeartbeat(Node* node) {
  if (heartbeat_interval_ <= Duration::Zero() || !node->up ||
      node->heartbeat != kInvalidEventId) {
    return;
  }
  // A daemon: heartbeats alone never keep the simulation alive. CrashNode
  // (and so RemoveNode) cancels it, so it only fires on an up node.
  node->heartbeat = sim_->ScheduleDaemon(heartbeat_interval_, [this, node] {
    node->heartbeat = kInvalidEventId;
    SendHeartbeat(node);
    ArmHeartbeat(node);
  });
}

void ClusterSim::CancelHeartbeat(Node* node) {
  if (node->heartbeat != kInvalidEventId) {
    sim_->Cancel(node->heartbeat);
    node->heartbeat = kInvalidEventId;
  }
}

void ClusterSim::SendHeartbeat(Node* node) {
  comms::Message msg;
  msg.type = comms::MessageType::kHeartbeat;
  msg.node = node->config.name;
  channel_->SendReport(msg);  // ephemeral: lost when the report link is down
}

void ClusterSim::Annotate(std::string label) {
  events_.push_back({sim_->Now(), std::move(label)});
}

void ClusterSim::UpdateTrace() {
  double t_days = sim_->Now().SinceEpoch().ToDays();
  double avail = 0, util = 0;
  for (const auto& [name, node] : nodes_) {
    if (!node.up) continue;
    avail += node.config.num_cpus;
    util += node.EffectiveBusyCpus();
  }
  availability_.Set(t_days, avail);
  utilization_.Set(t_days, util);
}

}  // namespace biopera::cluster
