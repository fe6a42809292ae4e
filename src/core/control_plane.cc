#include "core/control_plane.h"

#include <utility>

namespace biopera::core {

ControlPlane::Metrics::Metrics(obs::Registry* registry)
    : suspected(registry->GetCounter("engine_comms_nodes_suspected_total")),
      condemned(registry->GetCounter("engine_comms_nodes_condemned_total")),
      reconciled(registry->GetCounter("engine_comms_nodes_reconciled_total")),
      fenced_reports(
          registry->GetCounter("engine_comms_reports_fenced_total")),
      duplicate_reports(
          registry->GetCounter("engine_comms_reports_duplicate_total")),
      kill_retries(registry->GetCounter("engine_comms_kill_retries_total")),
      kills_abandoned(
          registry->GetCounter("engine_comms_kills_abandoned_total")),
      suspected_nodes(registry->GetGauge("engine_comms_nodes_suspected")) {}

ControlPlane::ControlPlane(Simulator* sim, comms::Channel* channel,
                           const EngineOptions& options, obs::SpanSink* spans,
                           obs::Registry* metrics, ControlPlaneHost* host)
    : sim_(sim),
      channel_(channel),
      options_(options),
      spans_(spans),
      metrics_(metrics),
      host_(host) {
  if (options_.heartbeat_interval > Duration::Zero()) leases_.emplace();
}

ControlPlane::~ControlPlane() {
  CancelKills();
  if (leases_) sim_->Cancel(leases_->check);
}

void ControlPlane::HandleReport(const comms::Message& msg) {
  switch (msg.type) {
    case comms::MessageType::kHeartbeat:
      HandleHeartbeat(msg.node);
      return;
    case comms::MessageType::kLoad:
      host_->OnLoadReport(msg.node, msg.load);
      return;
    case comms::MessageType::kCompletion:
    case comms::MessageType::kFailure:
      break;
    default:
      return;  // commands never arrive on the report plane
  }
  std::optional<uint64_t> fence = host_->OutstandingFence(msg.job);
  if (!fence) {
    // Already applied (a duplicated or reordered report), or a zombie from
    // an attempt this server no longer tracks (killed, condemned,
    // pre-crash). Idempotent drop either way.
    metrics_.duplicate_reports->Increment();
    return;
  }
  if (msg.fence != *fence) {
    // A live job id but the wrong attempt epoch: the fencing token does
    // the tie-break (docs/COMMS.md). Only the current attempt may apply.
    metrics_.fenced_reports->Increment();
    return;
  }
  host_->JobReported(msg.job, msg.type == comms::MessageType::kFailure,
                     msg.reason);
}

void ControlPlane::SendKill(const std::string& node, cluster::JobId job,
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
      sim_->Cancel(it->second.retry);
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

void ControlPlane::ScheduleKillRetry(cluster::JobId job) {
  auto it = pending_kills_.find(job);
  if (it == pending_kills_.end()) return;
  PendingKill& kill = it->second;
  if (kill.attempts >= kKillRetryLimit) {
    // Retry budget exhausted: the fence still guarantees the zombie's
    // eventual report cannot double-apply.
    metrics_.kills_abandoned->Increment();
    pending_kills_.erase(it);
    return;
  }
  Duration delay = comms::RetryBackoff(kKillRetryBase, kKillRetryMax,
                                       options_.seed, kill.node, job,
                                       kill.attempts);
  ++kill.attempts;
  // A regular event (not a daemon): an owed kill keeps the run alive, but
  // only until the bounded retries run out.
  kill.retry = sim_->Schedule(delay, [this, job] {
    auto retry_it = pending_kills_.find(job);
    if (retry_it == pending_kills_.end()) return;
    retry_it->second.retry = kInvalidEventId;
    metrics_.kill_retries->Increment();
    SendKill(retry_it->second.node, job, retry_it->second.fence);
  });
}

void ControlPlane::FlushKills(const std::string& node) {
  std::vector<cluster::JobId> due;
  for (const auto& [job, kill] : pending_kills_) {
    if (kill.node == node) due.push_back(job);
  }
  for (cluster::JobId job : due) {
    auto it = pending_kills_.find(job);
    if (it == pending_kills_.end()) continue;
    sim_->Cancel(it->second.retry);
    it->second.retry = kInvalidEventId;
    SendKill(node, job, it->second.fence);
  }
}

void ControlPlane::CancelKills() {
  for (const auto& [job, kill] : pending_kills_) sim_->Cancel(kill.retry);
  pending_kills_.clear();
}

void ControlPlane::RenewLeases(const std::vector<cluster::NodeConfig>& nodes) {
  if (!leases_) return;
  // Every node starts with a fresh lease; nodes that are actually dead
  // miss their heartbeats and get suspected, then condemned.
  leases_->nodes.clear();
  metrics_.suspected_nodes->Set(0);
  for (const cluster::NodeConfig& node : nodes) {
    leases_->nodes[node.name].last_heartbeat = sim_->Now();
  }
  ArmLeaseCheck();
}

void ControlPlane::DropLeases(std::string_view outcome) {
  if (!leases_) return;
  sim_->Cancel(leases_->check);
  leases_->check = kInvalidEventId;
  if (spans_ != nullptr) {
    for (const auto& [name, lease] : leases_->nodes) {
      spans_->End(lease.suspicion_span, std::string(outcome));
    }
  }
  leases_->nodes.clear();
  metrics_.suspected_nodes->Set(0);
}

std::optional<LeaseState> ControlPlane::GetLeaseState(
    const std::string& node) const {
  if (!leases_) return std::nullopt;
  auto it = leases_->nodes.find(node);
  return it == leases_->nodes.end() ? LeaseState::kUnknown : it->second.state;
}

void ControlPlane::ArmLeaseCheck() {
  leases_->check = sim_->ScheduleDaemon(options_.heartbeat_interval, [this] {
    leases_->check = kInvalidEventId;
    CheckLeases();
    ArmLeaseCheck();
  });
}

void ControlPlane::CheckLeases() {
  const TimePoint now = sim_->Now();
  const Duration suspect_after =
      options_.heartbeat_interval * options_.lease_misses_to_suspect;
  // Decide first, act second: SuspectNode's probe can reconcile a node
  // synchronously, and a condemnation re-queues work — neither may mutate
  // the table mid-scan.
  std::vector<std::string> to_suspect;
  std::vector<std::string> to_condemn;
  for (const auto& [name, lease] : leases_->nodes) {
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
  for (const std::string& name : to_condemn) {
    if (EndSuspicion(name, LeaseState::kCondemned)) host_->NodeCondemned(name);
  }
}

void ControlPlane::HandleHeartbeat(const std::string& node) {
  if (!leases_) return;
  // Nodes may join after Startup.
  NodeLease& lease = leases_->nodes.try_emplace(node).first->second;
  lease.last_heartbeat = sim_->Now();
  switch (lease.state) {
    case LeaseState::kSuspected:
      // A false suspicion: running jobs were never touched, so nothing is
      // lost and nothing re-executes.
      if (EndSuspicion(node, LeaseState::kUp)) host_->OnNodeUp(node);
      break;
    case LeaseState::kCondemned:
      // The node outlived its condemnation (it really crashed and came
      // back, or a long partition healed). Rejoin: its old jobs were
      // already re-queued; pending kills fence off any zombies.
      lease.state = LeaseState::kUp;
      metrics_.reconciled->Increment();
      host_->OnNodeUp(node);
      FlushKills(node);
      break;
    default:
      break;
  }
}

void ControlPlane::SuspectNode(const std::string& node) {
  auto it = leases_->nodes.find(node);
  if (it == leases_->nodes.end() || it->second.state != LeaseState::kUp) {
    return;
  }
  NodeLease& lease = it->second;
  lease.state = LeaseState::kSuspected;
  lease.suspected_at = sim_->Now();
  metrics_.suspected->Increment();
  metrics_.suspected_nodes->Add(1);
  if (spans_ != nullptr) {
    lease.suspicion_span = spans_->Begin(
        obs::SpanKind::kSuspicion, "suspected " + node, /*parent=*/0,
        /*link=*/0, /*instance=*/"", /*task=*/"", node, {});
  }
  // Stop placing work on the suspect; jobs already there keep running — a
  // false suspicion must not lose them.
  host_->NodeSuspected(node);
  // Ask directly. A reachable PEC answers with a heartbeat, reconciling
  // the suspicion (possibly synchronously, on a lossless channel).
  comms::Message probe;
  probe.type = comms::MessageType::kProbe;
  probe.node = node;
  (void)channel_->SendCommand(probe);
}

bool ControlPlane::EndSuspicion(const std::string& node, LeaseState state) {
  auto it = leases_->nodes.find(node);
  if (it == leases_->nodes.end() ||
      it->second.state != LeaseState::kSuspected) {
    return false;
  }
  NodeLease& lease = it->second;
  lease.state = state;
  const bool reconciled = state == LeaseState::kUp;
  (reconciled ? metrics_.reconciled : metrics_.condemned)->Increment();
  metrics_.suspected_nodes->Add(-1);
  if (spans_ != nullptr) {
    spans_->End(lease.suspicion_span, reconciled ? "reconciled" : "condemned");
    lease.suspicion_span = 0;
  }
  return true;
}

}  // namespace biopera::core
