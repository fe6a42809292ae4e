#ifndef BIOPERA_CORE_CONTROL_PLANE_H_
#define BIOPERA_CORE_CONTROL_PLANE_H_

#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "core/engine_options.h"
#include "obs/metrics.h"
#include "obs/span.h"
#include "sim/simulator.h"

namespace biopera::core {

/// Kill-command retry policy: an undeliverable kKill is retried with
/// exponential backoff (base doubling to max, plus deterministic
/// per-(node, job, attempt) jitter: comms::RetryBackoff) at most
/// kKillRetryLimit times; undeliverable kills are also flushed at once
/// when the command link comes back.
inline constexpr Duration kKillRetryBase = Duration::Seconds(2);
inline constexpr Duration kKillRetryMax = Duration::Minutes(4);
inline constexpr int kKillRetryLimit = 8;

enum class LeaseState { kUp, kSuspected, kCondemned, kUnknown };

/// What the control plane needs from the engine: the job table's fences,
/// where a verified report goes, and the lease detector's verdicts.
class ControlPlaneHost {
 public:
  virtual ~ControlPlaneHost() = default;
  /// The fence of `job`'s outstanding attempt; nullopt when it has none.
  virtual std::optional<uint64_t> OutstandingFence(cluster::JobId job) = 0;
  virtual void JobReported(cluster::JobId job, bool failed,
                           const std::string& reason) = 0;
  virtual void OnLoadReport(const std::string& node, double load) = 0;
  /// Place no work on `node`; its jobs keep running.
  virtual void NodeSuspected(const std::string& node) = 0;
  /// A suspected or condemned `node` heartbeated: place work on it again.
  virtual void OnNodeUp(const std::string& node) = 0;
  /// `node` stayed silent through the grace period: re-queue its jobs.
  virtual void NodeCondemned(const std::string& node) = 0;
};

/// The engine's side of the lossy control plane (docs/COMMS.md): report
/// intake with its duplicate and fence checks, the kill registry, and, in
/// lease mode only (EngineOptions::heartbeat_interval > 0), the lease
/// detector. It lives as long as the engine; the destructor cancels its
/// kill retries and lease check.
class ControlPlane {
 public:
  /// Everything passed in must outlive the control plane.
  ControlPlane(Simulator* sim, comms::Channel* channel,
               const EngineOptions& options, obs::SpanSink* spans,
               obs::Registry* metrics, ControlPlaneHost* host);
  ~ControlPlane();
  ControlPlane(const ControlPlane&) = delete;
  ControlPlane& operator=(const ControlPlane&) = delete;

  /// A completion or failure reaches the host only for the outstanding
  /// attempt of its job; a duplicate or zombie report is counted, dropped.
  void HandleReport(const comms::Message& msg);

  /// Sends a kKill for (node, job, fence). A delivered kill (OK, or
  /// NotFound: the job is already gone) settles the job's entry; an
  /// undeliverable one is retried instead of being lost.
  void SendKill(const std::string& node, cluster::JobId job, uint64_t fence);
  /// The command link to `node` came back: re-send its queued kills now.
  void FlushKills(const std::string& node);
  /// Forgets every queued kill (the server crashed and took the jobs).
  void CancelKills();

  /// Gives every node a fresh lease and arms the periodic check.
  void RenewLeases(const std::vector<cluster::NodeConfig>& nodes);
  /// Cancels the check and empties the table, ending each suspicion span
  /// with `outcome`.
  void DropLeases(std::string_view outcome);
  /// nullopt without a lease detector.
  std::optional<LeaseState> GetLeaseState(const std::string& node) const;

 private:
  struct PendingKill {
    std::string node;
    uint64_t fence = 0;
    int attempts = 0;
    EventId retry = kInvalidEventId;
  };
  struct NodeLease {
    TimePoint last_heartbeat;
    LeaseState state = LeaseState::kUp;
    TimePoint suspected_at;
    uint64_t suspicion_span = 0;
  };
  /// The lease detector: the lease table and its periodic check.
  struct Leases {
    std::map<std::string, NodeLease> nodes;
    EventId check = kInvalidEventId;
  };
  struct Metrics {
    explicit Metrics(obs::Registry* registry);
    obs::Counter* suspected;
    obs::Counter* condemned;
    obs::Counter* reconciled;
    obs::Counter* fenced_reports;
    obs::Counter* duplicate_reports;
    obs::Counter* kill_retries;
    obs::Counter* kills_abandoned;
    obs::Gauge* suspected_nodes;
  };

  void ScheduleKillRetry(cluster::JobId job);

  void ArmLeaseCheck();
  void CheckLeases();
  void HandleHeartbeat(const std::string& node);
  void SuspectNode(const std::string& node);
  /// Moves a suspected `node` to `state` (kUp: reconciled, or kCondemned);
  /// false when it is not suspected.
  bool EndSuspicion(const std::string& node, LeaseState state);

  Simulator* sim_;
  comms::Channel* channel_;
  const EngineOptions& options_;
  obs::SpanSink* spans_;
  Metrics metrics_;
  ControlPlaneHost* host_;
  /// Undeliverable kills awaiting a retry or a link-up flush.
  std::map<cluster::JobId, PendingKill> pending_kills_;
  std::optional<Leases> leases_;
};

}  // namespace biopera::core

#endif  // BIOPERA_CORE_CONTROL_PLANE_H_
