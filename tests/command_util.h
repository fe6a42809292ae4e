#ifndef BIOPERA_TESTS_COMMAND_UTIL_H_
#define BIOPERA_TESTS_COMMAND_UTIL_H_

// The engine's side of the command plane for cluster tests: kLaunch /
// kKill builders, and a sender that stamps every launch with a fresh
// fence, as the engine does.

#include <cstdint>
#include <map>
#include <string>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "common/status.h"
#include "common/time.h"

namespace biopera::testing {

inline comms::Message LaunchCommand(const std::string& node, uint64_t job,
                                    uint64_t fence,
                                    Duration work = Duration::Minutes(10)) {
  return {.type = comms::MessageType::kLaunch,
          .node = node,
          .job = job,
          .fence = fence,
          .work = work};
}

inline comms::Message KillCommand(const std::string& node, uint64_t job,
                                  uint64_t fence) {
  return {.type = comms::MessageType::kKill,
          .node = node,
          .job = job,
          .fence = fence};
}

/// Launches and kills jobs on a ClusterSim the way the engine does: every
/// launch carries a fresh fence, and a kill names the node and fence of
/// the job's last accepted launch. A command is refused Unavailable while
/// the node's command link is down and is otherwise handed straight to
/// the cluster — the plain channel's delivery — so a FaultChannel
/// attached to the cluster injects faults into reports only.
class CommandSender {
 public:
  explicit CommandSender(cluster::ClusterSim* cluster) : cluster_(cluster) {}

  Status Launch(cluster::JobId job, const std::string& node, Duration work) {
    const uint64_t fence = ++last_fence_;
    Status st = Send(LaunchCommand(node, job, fence, work));
    if (st.ok()) launched_[job] = {node, fence};
    return st;
  }

  /// NotFound for a job never launched or no longer running.
  Status Kill(cluster::JobId job) {
    auto it = launched_.find(job);
    if (it == launched_.end()) return Status::NotFound("job never launched");
    return Send(KillCommand(it->second.node, job, it->second.fence));
  }

 private:
  struct Attempt {
    std::string node;
    uint64_t fence = 0;
  };

  Status Send(const comms::Message& msg) {
    if (!cluster_->channel()->CommandLinkUp(msg.node)) {
      return Status::Unavailable("command link to " + msg.node + " is down");
    }
    return cluster_->HandleCommand(msg);
  }

  cluster::ClusterSim* cluster_;
  uint64_t last_fence_ = 0;
  std::map<cluster::JobId, Attempt> launched_;
};

}  // namespace biopera::testing

#endif  // BIOPERA_TESTS_COMMAND_UTIL_H_
