#ifndef BIOPERA_CLUSTER_FAILURE_H_
#define BIOPERA_CLUSTER_FAILURE_H_

#include <functional>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "common/rng.h"

namespace biopera {
class FaultFs;
}

namespace biopera::cluster {

/// Schedules environment events against a ClusterSim: scripted (exact
/// times, for reproducing the numbered events of Figures 5 and 6) or
/// random (rates, for robustness tests). The paper stresses that its
/// failures "were not injected but part of the everyday operation"; here
/// the injector plays the role of that everyday operation.
class FailureInjector {
 public:
  explicit FailureInjector(ClusterSim* cluster);

  // --- Scripted events ------------------------------------------------------
  /// Node crash at `at`, repaired `downtime` later. Annotates the
  /// cluster's event list.
  void ScheduleNodeOutage(TimePoint at, Duration downtime,
                          const std::string& node, const std::string& label);
  /// Crash + repair of every node (cluster-wide failure).
  void ScheduleClusterOutage(TimePoint at, Duration downtime,
                             const std::string& label);
  /// Network partition of the whole cluster.
  void ScheduleNetworkOutage(TimePoint at, Duration downtime,
                             const std::string& label);
  /// CPU upgrade on all nodes at `at` (Fig. 6: one to two processors).
  void ScheduleCpuUpgrade(TimePoint at, int new_cpus,
                          const std::string& label);
  /// Arbitrary scripted action with an event-list annotation.
  void ScheduleAction(TimePoint at, const std::string& label,
                      std::function<void()> action);
  /// Storage outage: the fault filesystem reports ENOSPC for every
  /// space-consuming operation during [at, at + duration). Models the
  /// paper's month-long run losing its database disk without losing the
  /// computation — the engine rides it out in degraded mode.
  void ScheduleDiskFullWindow(TimePoint at, Duration duration,
                              FaultFs* fault_fs, const std::string& label);

  // --- Random failures ------------------------------------------------------
  /// Starts a Poisson process of node crashes: mean time between failures
  /// across the cluster `mtbf`, each down for Exponential(`mean_downtime`).
  /// Runs until the simulator drains or `StopRandomFailures` is called.
  void StartRandomNodeFailures(Duration mtbf, Duration mean_downtime,
                               Rng* rng);
  void StopRandomFailures();

  /// Starts a Poisson process of *link* partitions on the control-plane
  /// channel: every Exponential(`mtbf`) a random node loses a random
  /// direction — its command link, its report link, or both — for
  /// Exponential(`mean_duration`). Asymmetric partitions are the failure
  /// mode the lease detector exists for: a node that can receive commands
  /// but whose reports are blackholed looks exactly like a dead one.
  void StartRandomPartitions(comms::Channel* channel, Duration mtbf,
                             Duration mean_duration, Rng* rng);
  void StopRandomPartitions();

  /// Starts a Poisson process of link *flaps*: every Exponential(`mtbf`)
  /// a random node's links bounce down/up several times in quick
  /// succession (each leg Exponential(`mean_flap`) long) — the reconnect
  /// storm that shakes out report-flush-order and duplicate-suppression
  /// bugs.
  void StartRandomFlaps(comms::Channel* channel, Duration mtbf,
                        Duration mean_flap, Rng* rng);
  void StopRandomFlaps();

 private:
  void ScheduleNextRandomFailure();
  void ScheduleNextRandomPartition();
  void ScheduleNextRandomFlap();

  ClusterSim* cluster_;
  bool random_active_ = false;
  Duration mtbf_;
  Duration mean_downtime_;
  Rng* rng_ = nullptr;
  EventId random_event_ = kInvalidEventId;

  comms::Channel* partition_channel_ = nullptr;
  bool partitions_active_ = false;
  Duration partition_mtbf_;
  Duration partition_mean_duration_;
  Rng* partition_rng_ = nullptr;
  EventId partition_event_ = kInvalidEventId;

  comms::Channel* flap_channel_ = nullptr;
  bool flaps_active_ = false;
  Duration flap_mtbf_;
  Duration flap_mean_;
  Rng* flap_rng_ = nullptr;
  EventId flap_event_ = kInvalidEventId;
};

}  // namespace biopera::cluster

#endif  // BIOPERA_CLUSTER_FAILURE_H_
