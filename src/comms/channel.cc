#include "comms/channel.h"

#include <algorithm>

namespace biopera::comms {

bool IsCommand(MessageType type) {
  switch (type) {
    case MessageType::kLaunch:
    case MessageType::kKill:
    case MessageType::kProbe:
      return true;
    default:
      return false;
  }
}

std::string_view FaultPointName(MessageType type) {
  switch (type) {
    case MessageType::kLaunch: return "cmd.launch";
    case MessageType::kKill: return "cmd.kill";
    case MessageType::kProbe: return "cmd.probe";
    case MessageType::kHeartbeat: return "rpt.heartbeat";
    case MessageType::kCompletion: return "rpt.completion";
    case MessageType::kFailure: return "rpt.failure";
    case MessageType::kLoad: return "rpt.load";
  }
  return "unknown";
}

void Channel::SetCommandLink(const std::string& node, bool up) {
  bool changed = up ? command_down_.erase(node) > 0
                    : command_down_.insert(node).second;
  if (changed) NotifyLink(node);
}

void Channel::SetReportLink(const std::string& node, bool up) {
  bool changed =
      up ? report_down_.erase(node) > 0 : report_down_.insert(node).second;
  if (changed) NotifyLink(node);
}

void Channel::SetConnected(const std::string& node, bool up) {
  bool changed = up ? command_down_.erase(node) > 0
                    : command_down_.insert(node).second;
  changed |=
      up ? report_down_.erase(node) > 0 : report_down_.insert(node).second;
  if (changed) NotifyLink(node);
}

Status Channel::DeliverCommand(const Message& msg) {
  if (!CommandLinkUp(msg.node)) {
    return Status::Unavailable("command link to " + msg.node + " is down");
  }
  if (commands_ == nullptr) return Status::OK();
  return commands_->HandleCommand(msg);
}

bool Channel::DeliverReport(const Message& msg) {
  if (!ReportLinkUp(msg.node)) return false;
  if (reports_ != nullptr) reports_->HandleReport(msg);
  return true;
}

Status Channel::SendCommand(const Message& msg) { return DeliverCommand(msg); }

bool Channel::SendReport(const Message& msg) { return DeliverReport(msg); }

// ---------------------------------------------------------------------------
// FaultChannel
// ---------------------------------------------------------------------------

void FaultChannel::ArmDrop(const std::string& point, uint64_t at_hit) {
  armed_ = Armed{point, at_hit, FaultKind::kDrop, Duration::Zero()};
}

void FaultChannel::ArmDup(const std::string& point, uint64_t at_hit) {
  armed_ = Armed{point, at_hit, FaultKind::kDup, Duration::Zero()};
}

void FaultChannel::ArmDelay(const std::string& point, uint64_t at_hit,
                            Duration delay) {
  armed_ = Armed{point, at_hit, FaultKind::kDelay, delay};
}

void FaultChannel::ArmReorder(const std::string& point, uint64_t at_hit) {
  armed_ = Armed{point, at_hit, FaultKind::kReorder, Duration::Zero()};
}

void FaultChannel::SetRandomFaults(const FaultProfile& profile, Rng* rng) {
  profile_ = profile;
  rng_ = rng;
}

FaultChannel::FaultKind FaultChannel::Account(std::string_view point,
                                              Duration* delay_out) {
  uint64_t hit = ++hits_[std::string(point)];
  if (armed_.has_value() && armed_->point == point && hit == armed_->at_hit) {
    FaultKind kind = armed_->kind;
    *delay_out = armed_->delay;
    armed_.reset();  // one-shot, like FaultFs::ArmError
    ++faults_injected_;
    return kind;
  }
  if (rng_ != nullptr) {
    double r = rng_->NextDouble();
    double edge = profile_.drop;
    if (r < edge) {
      ++faults_injected_;
      return FaultKind::kDrop;
    }
    if (r < (edge += profile_.dup)) {
      ++faults_injected_;
      return FaultKind::kDup;
    }
    if (r < (edge += profile_.delay)) {
      *delay_out =
          profile_.delay_min + (profile_.delay_max - profile_.delay_min) *
                                   rng_->NextDouble();
      ++faults_injected_;
      return FaultKind::kDelay;
    }
    if (r < edge + profile_.reorder) {
      ++faults_injected_;
      return FaultKind::kReorder;
    }
  }
  return FaultKind::kNone;
}

void FaultChannel::Deliver(const Message& msg) {
  if (IsCommand(msg.type)) {
    Status st = DeliverCommand(msg);
    // An async-applied launch that bounced (node gone, link cut while the
    // message was in flight) is NACKed back as a failure report, the way
    // a PEC-side connect error would surface; the engine's normal retry
    // path takes it from there. AlreadyExists means a benign duplicate.
    if (msg.type == MessageType::kLaunch && !st.ok() &&
        st.code() != StatusCode::kAlreadyExists) {
      Message nack;
      nack.type = MessageType::kFailure;
      nack.node = msg.node;
      nack.job = msg.job;
      nack.fence = msg.fence;
      nack.reason = "launch undeliverable: " + st.ToString();
      DeliverReport(nack);
    }
  } else {
    DeliverReport(msg);
  }
}

void FaultChannel::DeliverLater(Message msg, Duration delay) {
  if (sim() == nullptr) {  // nothing to schedule on: degrade to in-order
    Deliver(msg);
    return;
  }
  sim()->Schedule(delay, [this, msg = std::move(msg)] { Deliver(msg); });
}

void FaultChannel::DeliverHeld(const std::string& node) {
  auto it = held_.find(node);
  if (it == held_.end()) return;
  std::vector<Message> batch = std::move(it->second);
  held_.erase(it);
  for (const Message& held : batch) Deliver(held);
}

Status FaultChannel::SendCommand(const Message& msg) {
  Duration delay;
  switch (Account(FaultPointName(msg.type), &delay)) {
    case FaultKind::kDrop:
      // Lost in flight; the sender has no receipt to miss.
      return Status::OK();
    case FaultKind::kDup: {
      Status st = Channel::SendCommand(msg);
      Channel::SendCommand(msg);  // the duplicate's outcome is unobserved
      DeliverHeld(msg.node);
      return st;
    }
    case FaultKind::kDelay:
      DeliverLater(msg, delay);
      return Status::OK();
    case FaultKind::kReorder:
      if (sim() == nullptr) return Channel::SendCommand(msg);
      held_[msg.node].push_back(msg);
      // Fallback so a held message is never stranded by silence.
      sim()->Schedule(Duration::Seconds(1),
                      [this, node = msg.node] { DeliverHeld(node); });
      return Status::OK();
    case FaultKind::kNone:
      break;
  }
  Status st = Channel::SendCommand(msg);
  DeliverHeld(msg.node);
  return st;
}

bool FaultChannel::SendReport(const Message& msg) {
  Duration delay;
  switch (Account(FaultPointName(msg.type), &delay)) {
    case FaultKind::kDrop:
      return true;  // lost in flight, not a visible link failure
    case FaultKind::kDup: {
      bool delivered = Channel::SendReport(msg);
      if (delivered) Channel::SendReport(msg);
      DeliverHeld(msg.node);
      return delivered;
    }
    case FaultKind::kDelay:
      DeliverLater(msg, delay);
      return true;
    case FaultKind::kReorder:
      if (sim() == nullptr) return Channel::SendReport(msg);
      held_[msg.node].push_back(msg);
      sim()->Schedule(Duration::Seconds(1),
                      [this, node = msg.node] { DeliverHeld(node); });
      return true;
    case FaultKind::kNone:
      break;
  }
  bool delivered = Channel::SendReport(msg);
  DeliverHeld(msg.node);
  return delivered;
}

Duration RetryBackoff(Duration base, Duration max, uint64_t seed,
                      std::string_view node, uint64_t job, int attempt) {
  Duration backoff = base;
  for (int i = 0; i < attempt && backoff < max; ++i) backoff = backoff * 2.0;
  backoff = std::min(backoff, max);
  // FNV-1a over the retry identity; cheap, stable across platforms.
  uint64_t h = 1469598103934665603ull;
  auto mix = [&h](uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  mix(seed);
  for (char c : node) {
    h ^= static_cast<uint8_t>(c);
    h *= 1099511628211ull;
  }
  mix(job);
  mix(static_cast<uint64_t>(attempt));
  int64_t span = std::max<int64_t>(base.micros(), 1);
  return backoff + Duration::Micros(static_cast<int64_t>(h % span));
}

}  // namespace biopera::comms
