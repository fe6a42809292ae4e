#ifndef BIOPERA_CLUSTER_CLUSTER_H_
#define BIOPERA_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "comms/channel.h"
#include "common/result.h"
#include "common/stats.h"
#include "common/time.h"
#include "obs/trace.h"
#include "sim/simulator.h"

namespace biopera::cluster {

using JobId = uint64_t;

/// Static description of one cluster node, as kept in BioOpera's
/// configuration space (paper §3.2): hardware and OS characteristics used
/// for placement decisions.
struct NodeConfig {
  std::string name;
  int num_cpus = 1;
  /// Speed relative to the reference CPU of the Darwin cost model.
  double speed = 1.0;
  std::string os = "linux";
  /// Comma-separated resource classes this node serves; empty = any.
  /// (The paper dedicates the slower ik-sun machines to refinement.)
  std::string resource_classes;

  /// True if this node may run activities of `cls` ("" matches any node).
  bool ServesClass(std::string_view cls) const;
};

/// Engine-facing notifications from the simulated cluster that do not
/// travel as channel reports: node availability and job losses in
/// instant-notification mode, hardware reconfiguration, and link state.
/// Completions and load samples are reports on the channel (the
/// comms::ReportHandler side).
class ClusterListener {
 public:
  virtual ~ClusterListener() = default;
  virtual void OnJobFailed(JobId id, const std::string& node,
                           const std::string& reason) = 0;
  virtual void OnNodeDown(const std::string& node) = 0;
  virtual void OnNodeUp(const std::string& node) = 0;
  virtual void OnConfigChanged(const NodeConfig& config) = 0;
  /// Either channel link of `node` changed state. The engine uses it to
  /// flush queued kills and re-pump.
  virtual void OnLinkChanged(const std::string& node) { (void)node; }
};

/// A timestamped annotation on the experiment timeline (the numbered
/// events of Figures 5 and 6).
struct TraceEvent {
  TimePoint time;
  std::string label;
};

/// Discrete-event model of a compute cluster running BioOpera jobs
/// "nice" (lowest priority): external (other users') load takes CPUs
/// first, the remaining capacity is shared equally among BioOpera jobs on
/// the node. Job progress integrates node speed x share over time, so
/// completions respond to failures, external load changes, and mid-run
/// hardware upgrades exactly as the engine would observe on real hardware.
class ClusterSim : public comms::CommandHandler {
 public:
  explicit ClusterSim(Simulator* sim);
  ClusterSim(const ClusterSim&) = delete;
  ClusterSim& operator=(const ClusterSim&) = delete;

  void SetListener(ClusterListener* listener) { listener_ = listener; }
  ClusterListener* listener() const { return listener_; }

  // --- Message channel -----------------------------------------------------
  /// The control plane always runs on a channel: the cluster owns a plain
  /// (synchronous, lossless) comms::Channel and is attached to it from
  /// construction. AttachChannel routes the control plane through
  /// `channel` instead (a FaultChannel, say): the cluster becomes its
  /// command handler, completion and load reports travel on it (gated by
  /// the per-node report link), and SetConnected maps onto its links. The
  /// channel must be non-null and outlive the attachment.
  void AttachChannel(comms::Channel* channel);
  /// Detaches `channel` if it is the attached one (engine teardown) and
  /// falls back to the cluster's own channel.
  void DetachChannel(comms::Channel* channel);
  /// The attached channel; never null.
  comms::Channel* channel() const { return channel_; }
  /// PEC side of the protocol: launch / kill / probe, with the
  /// exactly-once dedup memory (fence-keyed finished-job and tombstone
  /// tables) absorbing duplicated, delayed and reordered commands. A
  /// launch without a fence is refused InvalidArgument.
  Status HandleCommand(const comms::Message& msg) override;

  /// Lease mode: starts per-node heartbeat daemons on the channel (every
  /// `interval` each up node emits a kHeartbeat report) and silences
  /// CrashNode/RepairNode towards the listener — the server must detect
  /// death via missed leases and rebirth via resumed heartbeats, as on a
  /// real network. Heartbeats are ephemeral: a down report link drops
  /// them (that is the signal the engine's failure detector feeds on).
  void EnableHeartbeats(Duration interval);

  /// Attaches an observability context: each node's down -> up window
  /// becomes a node_outage span in its span sink (stamped with this
  /// cluster's virtual clock). nullptr detaches.
  void SetObservability(obs::Observability* obs);
  obs::Observability* observability() const { return obs_; }

  // --- Topology -----------------------------------------------------------
  Status AddNode(const NodeConfig& config);
  Status RemoveNode(const std::string& name);
  std::vector<NodeConfig> Nodes() const;
  Result<NodeConfig> GetNode(const std::string& name) const;
  bool IsUp(const std::string& name) const;
  /// Total CPUs across nodes that are up.
  int AvailableCpus() const;

  // --- Job control ----------------------------------------------------------
  // Jobs start and stop only through kLaunch / kKill commands on the
  // channel (HandleCommand).
  /// Kills every running job (server crash semantics: ongoing processes
  /// are stopped; the recovered server re-dispatches from the store).
  void KillAllJobs();
  size_t NumRunningJobs() const;
  /// Node a job currently runs on; NotFound if not running.
  Result<std::string> JobNode(JobId id) const;
  /// Remaining reference-CPU work of a running job.
  Result<Duration> JobRemaining(JobId id) const;

  // --- Environment changes (failure injector / load generator) ------------
  /// Crashes a node: running jobs are lost. Without heartbeats the
  /// listener hears OnNodeDown and OnJobFailed per lost job at once; in
  /// lease mode it hears nothing.
  Status CrashNode(const std::string& name);
  Status RepairNode(const std::string& name);
  /// Changes the number of CPUs (the ik-linux mid-run upgrade of Fig. 6).
  Status SetNodeCpus(const std::string& name, int num_cpus);
  /// Sets how many CPUs external users occupy on the node (may be
  /// fractional; clamped to [0, num_cpus]).
  Status SetExternalLoad(const std::string& name, double busy_cpus);
  double ExternalLoad(const std::string& name) const;
  /// ExternalLoad as a fraction of the node's CPUs, from one lookup: what
  /// a node's load monitor samples. 0 for an unknown node or one with no
  /// CPUs.
  double ExternalLoadFraction(const std::string& name) const;
  /// Disconnects / reconnects a node from the network (both channel
  /// links): commands are refused and completion reports queue at the
  /// node, flushing on reconnect.
  Status SetConnected(const std::string& name, bool connected);
  /// Convenience: network outage over the whole cluster.
  void SetAllConnected(bool connected);

  // --- Tracing (Figures 5 and 6) -------------------------------------------
  /// Availability: CPUs on nodes that are up, over time (days).
  const StepSeries& AvailabilitySeries() const { return availability_; }
  /// Utilization: CPUs effectively computing BioOpera jobs, over time.
  const StepSeries& UtilizationSeries() const { return utilization_; }
  void Annotate(std::string label);
  const std::vector<TraceEvent>& Events() const { return events_; }

  /// Total reference-CPU work consumed by jobs that were killed or lost to
  /// crashes before completing — the work a re-execution has to redo.
  /// Measures the §3.3 checkpoint-granularity effect ("smaller activities
  /// result in less work lost when failures occur").
  Duration WastedWork() const { return Duration::Seconds(wasted_seconds_); }

  Simulator* sim() { return sim_; }

 private:
  struct Job {
    JobId id;
    double remaining_seconds;  // at reference speed 1.0
    double initial_seconds;
    /// Fencing token of the launch that started this attempt; echoed in
    /// every report.
    uint64_t fence = 0;
    EventId completion = kInvalidEventId;
  };
  struct Node {
    NodeConfig config;
    bool up = true;
    double external_busy = 0;
    std::vector<Job> jobs;
    TimePoint last_update;
    /// Completion reports queued while the report link is down, flushed
    /// strictly in enqueue (FIFO) order on reconnect — locked by a
    /// cluster_test regression.
    std::deque<comms::Message> pending_reports;
    /// Lease-mode heartbeat daemon (kInvalidEventId when disabled/down).
    EventId heartbeat = kInvalidEventId;

    double RatePerJob() const;
    double EffectiveBusyCpus() const;
  };

  Node* Find(const std::string& name);
  const Node* Find(const std::string& name) const;
  /// Folds elapsed progress into `remaining_seconds` of each job.
  void Advance(Node* node);
  /// Re-schedules completion events after any rate change.
  void Reschedule(Node* node);
  void CompleteJob(Node* node, JobId id);
  /// Sends the completion report of attempt (`id`, `fence`), queueing it
  /// while the report link is down.
  void ReportCompletion(Node* node, JobId id, uint64_t fence);
  void FlushReports(Node* node);
  void UpdateTrace();

  // -- Channel protocol --
  Status HandleLaunch(const comms::Message& msg);
  Status HandleKill(const comms::Message& msg);
  Status HandleProbe(const comms::Message& msg);
  /// A link of `name` changed: flush queued reports if the report link is
  /// up, notify the listener.
  void OnChannelLink(const std::string& name);
  void ArmHeartbeat(Node* node);
  void CancelHeartbeat(Node* node);
  void SendHeartbeat(Node* node);

  Simulator* sim_;
  ClusterListener* listener_ = nullptr;
  obs::Observability* obs_ = nullptr;
  comms::Channel own_channel_;
  comms::Channel* channel_ = nullptr;
  /// Non-zero in lease mode (EnableHeartbeats).
  Duration heartbeat_interval_ = Duration::Zero();
  std::map<std::string, Node> nodes_;
  std::map<JobId, std::string> job_locations_;
  /// Exactly-once memory (fence-keyed, so a new engine epoch reusing job
  /// ids is unaffected). finished_jobs_: fence of the last completed
  /// attempt per job — a duplicated launch re-sends the report instead of
  /// re-running. dead_jobs_: attempts killed (or killed-in-flight) — a
  /// delayed duplicate launch cannot resurrect them.
  std::map<JobId, uint64_t> finished_jobs_;
  std::map<JobId, uint64_t> dead_jobs_;
  StepSeries availability_;
  StepSeries utilization_;
  std::vector<TraceEvent> events_;
  double wasted_seconds_ = 0;
};

}  // namespace biopera::cluster

#endif  // BIOPERA_CLUSTER_CLUSTER_H_
