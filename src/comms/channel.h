#ifndef BIOPERA_COMMS_CHANNEL_H_
#define BIOPERA_COMMS_CHANNEL_H_

#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/rng.h"
#include "common/time.h"
#include "sim/simulator.h"

namespace biopera::comms {

/// The engine <-> PEC wire protocol: commands flow from the server to a
/// node, reports flow back. Each direction uses its own (asymmetric)
/// link, mirroring how a real grid node can receive commands while its
/// replies are blackholed — the failure mode the lease-based detector
/// exists for.
enum class MessageType {
  // Commands (server -> node).
  kLaunch,     // start a job: job, fence, work
  kKill,       // stop a job: job, fence
  kProbe,      // "are you there?" — a reachable PEC answers with kHeartbeat
  // Reports (node -> server).
  kHeartbeat,  // periodic lease renewal
  kCompletion, // job finished: job, fence
  kFailure,    // job failed: job, fence, reason
  kLoad,       // external-load sample: load
};

bool IsCommand(MessageType type);

/// The fault-point name of a message type: "cmd.launch", "rpt.completion",
/// ... — the granularity at which FaultChannel arms and counts faults
/// (mirroring FaultFs's "<class>.<op>" points).
std::string_view FaultPointName(MessageType type);

/// One message on the control plane. Unused fields stay at their
/// defaults; `node` is the destination of a command and the origin of a
/// report.
struct Message {
  MessageType type = MessageType::kProbe;
  std::string node;
  uint64_t job = 0;
  /// Attempt-epoch fencing token stamped by the engine at launch and
  /// echoed in every report about the job: writer_epoch << 20 | counter,
  /// never 0. The PEC refuses a launch with fence 0 (InvalidArgument).
  uint64_t fence = 0;
  Duration work;       // kLaunch: estimated reference-CPU cost
  std::string reason;  // kFailure: why
  double load = 0;     // kLoad: external busy fraction (0..1)
};

/// Receiver of commands (implemented by ClusterSim): the PEC side.
class CommandHandler {
 public:
  virtual ~CommandHandler() = default;
  /// Handles a command addressed to `msg.node`. The returned status
  /// reaches the sender only when the channel delivered synchronously;
  /// async (delayed) deliveries discard it.
  virtual Status HandleCommand(const Message& msg) = 0;
};

/// Receiver of reports (implemented by the engine): the server side.
class ReportHandler {
 public:
  virtual ~ReportHandler() = default;
  virtual void HandleReport(const Message& msg) = 0;
};

/// Virtual-time message channel between the engine and the PECs. The
/// default implementation delivers synchronously in the caller's stack —
/// byte-identical to the direct calls it replaced — but owns per-link,
/// per-direction connectivity: a down command link fails sends with
/// Unavailable (the sender sees the connect refusal), a down report link
/// makes SendReport return false (the PEC queues and retries on
/// reconnect). FaultChannel subclasses this to inject in-flight loss.
class Channel {
 public:
  Channel() = default;
  virtual ~Channel() = default;
  Channel(const Channel&) = delete;
  Channel& operator=(const Channel&) = delete;

  /// Needed only by decorators that schedule deliveries (delays,
  /// reorders); the plain channel never consults it.
  void BindSimulator(Simulator* sim) { sim_ = sim; }
  Simulator* sim() const { return sim_; }

  void SetCommandHandler(CommandHandler* handler) { commands_ = handler; }
  void SetReportHandler(ReportHandler* handler) { reports_ = handler; }
  CommandHandler* command_handler() const { return commands_; }
  ReportHandler* report_handler() const { return reports_; }

  /// Called (synchronously) whenever either link of `node` changes state.
  void SetLinkObserver(std::function<void(const std::string&)> observer) {
    link_observer_ = std::move(observer);
  }

  // --- Per-link asymmetric connectivity (absent = up) ----------------------
  void SetCommandLink(const std::string& node, bool up);
  void SetReportLink(const std::string& node, bool up);
  /// Both directions at once (the symmetric SetConnected of old).
  void SetConnected(const std::string& node, bool up);
  bool CommandLinkUp(const std::string& node) const {
    return !command_down_.contains(node);
  }
  bool ReportLinkUp(const std::string& node) const {
    return !report_down_.contains(node);
  }

  // --- Transfer ------------------------------------------------------------
  /// Sends a command to `msg.node`. Unavailable when the command link is
  /// down (never silently applied); otherwise the handler's status.
  virtual Status SendCommand(const Message& msg);
  /// Sends a report from `msg.node`. False when the report link is down —
  /// the caller still owns the message and queues it for reconnect.
  virtual bool SendReport(const Message& msg);

 protected:
  /// Link-checked delivery used by subclasses for re-sends of messages
  /// they held back (delays, reorders).
  Status DeliverCommand(const Message& msg);
  bool DeliverReport(const Message& msg);

 private:
  void NotifyLink(const std::string& node) {
    if (link_observer_) link_observer_(node);
  }

  Simulator* sim_ = nullptr;
  CommandHandler* commands_ = nullptr;
  ReportHandler* reports_ = nullptr;
  std::function<void(const std::string&)> link_observer_;
  std::set<std::string> command_down_;
  std::set<std::string> report_down_;
};

/// Probability profile for SetRandomFaults. Probabilities are evaluated
/// in the order drop, dup, delay, reorder against a single uniform draw
/// per message, so they must sum to <= 1.
struct FaultProfile {
  double drop = 0;
  double dup = 0;
  double delay = 0;
  double reorder = 0;
  Duration delay_min = Duration::Seconds(1);
  Duration delay_max = Duration::Minutes(5);
};

/// Channel decorator injecting message-level faults at named, counted
/// fault points (one per message type: see FaultPointName), mirroring
/// FaultFs. Faults model in-flight loss: the sender is told the send
/// succeeded (a dropped command returns OK, a dropped report returns
/// true) because a real network gives no such receipt — recovery is the
/// job of the lease detector, the watchdog and the fencing protocol, and
/// the chaos tests assert exactly that.
class FaultChannel : public Channel {
 public:
  FaultChannel() = default;

  /// One-shot scripted faults at the `at_hit`-th hit (1-based) of `point`.
  void ArmDrop(const std::string& point, uint64_t at_hit);
  void ArmDup(const std::string& point, uint64_t at_hit);
  void ArmDelay(const std::string& point, uint64_t at_hit, Duration delay);
  void ArmReorder(const std::string& point, uint64_t at_hit);

  /// Seeded random faults on every message. The rng must outlive the
  /// channel; draws happen in message-send order, so a given seed yields
  /// the same fault history on every run.
  void SetRandomFaults(const FaultProfile& profile, Rng* rng);
  void StopRandomFaults() { rng_ = nullptr; }

  /// Hit counts per fault point, armed or not.
  const std::map<std::string, uint64_t>& Hits() const { return hits_; }
  uint64_t faults_injected() const { return faults_injected_; }

  Status SendCommand(const Message& msg) override;
  bool SendReport(const Message& msg) override;

 private:
  enum class FaultKind { kNone, kDrop, kDup, kDelay, kReorder };
  struct Armed {
    std::string point;
    uint64_t at_hit = 0;
    FaultKind kind = FaultKind::kNone;
    Duration delay;
  };

  /// Counts the hit and decides this message's fate (consuming the armed
  /// fault or the rng draws).
  FaultKind Account(std::string_view point, Duration* delay_out);
  /// Delivers `msg` after `delay` on the bound simulator (a regular
  /// event: an in-flight message keeps the run alive until it lands).
  /// Links are re-checked at delivery time; a launch that can no longer
  /// be applied is NACKed with a synthesized kFailure report.
  void DeliverLater(Message msg, Duration delay);
  void DeliverHeld(const std::string& node);
  void Deliver(const Message& msg);

  std::map<std::string, uint64_t> hits_;
  std::optional<Armed> armed_;
  FaultProfile profile_;
  Rng* rng_ = nullptr;
  uint64_t faults_injected_ = 0;
  /// Reorder holding cells, per destination/origin node: a held message
  /// is released right after the next message touching the same node (or
  /// by a fallback timer, so it is never held forever).
  std::map<std::string, std::vector<Message>> held_;
};

/// Deterministic retry backoff: base * 2^attempt plus a jitter in
/// [0, base) derived by FNV-1a hashing (seed, node, job, attempt) — two
/// engines with the same seed retry on identical schedules, while
/// distinct jobs decorrelate (no retry storms in lockstep).
Duration RetryBackoff(Duration base, Duration max, uint64_t seed,
                      std::string_view node, uint64_t job, int attempt);

}  // namespace biopera::comms

#endif  // BIOPERA_COMMS_CHANNEL_H_
