// Unit tests for the cluster simulator: job progress under speeds, shares
// and external load; failures; network partitions; reconfiguration; traces.
#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/external_load.h"
#include "cluster/failure.h"
#include "sim/simulator.h"
#include "tests/command_util.h"
#include "tests/test_util.h"

namespace biopera::cluster {
namespace {

/// Records every cluster notification and channel report for inspection.
class RecordingListener : public ClusterListener, public comms::ReportHandler {
 public:
  void HandleReport(const comms::Message& msg) override {
    if (msg.type == comms::MessageType::kCompletion) {
      finished.push_back({msg.job, msg.node});
    } else if (msg.type == comms::MessageType::kLoad) {
      loads[msg.node] = msg.load;
    } else if (msg.type == comms::MessageType::kHeartbeat) {
      ++heartbeats;
      ++heartbeats_from[msg.node];
    }
  }
  void OnJobFailed(JobId id, const std::string& node,
                   const std::string& reason) override {
    failed.push_back({id, node});
    reasons.push_back(reason);
  }
  void OnNodeDown(const std::string& node) override {
    down.push_back(node);
  }
  void OnNodeUp(const std::string& node) override { up.push_back(node); }
  void OnConfigChanged(const NodeConfig& config) override {
    config_changes.push_back(config.name);
  }

  std::vector<std::pair<JobId, std::string>> finished;
  std::vector<std::pair<JobId, std::string>> failed;
  std::vector<std::string> reasons;
  std::vector<std::string> down;
  std::vector<std::string> up;
  std::map<std::string, double> loads;
  std::vector<std::string> config_changes;
  int heartbeats = 0;
  std::map<std::string, int> heartbeats_from;
};

struct Fixture {
  Fixture() : cluster(&sim), commands(&cluster) {
    cluster.SetListener(&listener);
    cluster.channel()->SetReportHandler(&listener);
  }
  Simulator sim;
  ClusterSim cluster;
  RecordingListener listener;
  testing::CommandSender commands;
};

TEST(NodeConfigTest, ServesClass) {
  NodeConfig node;
  node.resource_classes = "align, refine";
  EXPECT_TRUE(node.ServesClass(""));
  EXPECT_TRUE(node.ServesClass("align"));
  EXPECT_TRUE(node.ServesClass("refine"));
  EXPECT_FALSE(node.ServesClass("io"));
  NodeConfig any;
  EXPECT_TRUE(any.ServesClass("align"));
}

TEST(ClusterTest, AddRemoveNodes) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n1", .num_cpus = 2}));
  EXPECT_TRUE(f.cluster.AddNode({.name = "n1"}).code() ==
              StatusCode::kAlreadyExists);
  EXPECT_TRUE(f.cluster.AddNode({.name = "bad", .num_cpus = 0})
                  .IsInvalidArgument());
  EXPECT_EQ(f.cluster.AvailableCpus(), 2);
  ASSERT_OK(f.cluster.RemoveNode("n1"));
  EXPECT_TRUE(f.cluster.RemoveNode("n1").IsNotFound());
  EXPECT_EQ(f.cluster.AvailableCpus(), 0);
}

TEST(ClusterTest, JobRunsAtNodeSpeed) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "fast", .num_cpus = 1, .speed = 2.0}));
  ASSERT_OK(f.commands.Launch(1, "fast", Duration::Seconds(100)));
  f.sim.Run();
  ASSERT_EQ(f.listener.finished.size(), 1u);
  // 100 reference-seconds at speed 2 finish in 50.
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 50);
}

TEST(ClusterTest, JobsShareCpusFairly) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(100)));
  f.sim.Run();
  ASSERT_EQ(f.listener.finished.size(), 2u);
  // Two jobs on one CPU: the first finishes after 200s of sharing...
  // both have equal remaining, so both complete at t=200.
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 200);
}

TEST(ClusterTest, SurvivorSpeedsUpAfterCompletion) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(50)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(100)));
  f.sim.Run();
  // Shared until job 1 finishes at t=100 (50 each done); then job 2 runs
  // alone for its remaining 50 -> t=150.
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 150);
}

TEST(ClusterTest, MultiCpuNodeRunsJobsInParallel) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2, .speed = 1.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(100)));
  f.sim.Run();
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 100);
}

TEST(ClusterTest, ExternalLoadStallsNiceJobs) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  f.sim.RunFor(Duration::Seconds(50));
  // An external user saturates the node for 100s.
  ASSERT_OK(f.cluster.SetExternalLoad("n", 1.0));
  f.sim.RunFor(Duration::Seconds(100));
  EXPECT_TRUE(f.listener.finished.empty());  // stalled
  ASSERT_OK(f.cluster.SetExternalLoad("n", 0.0));
  f.sim.Run();
  ASSERT_EQ(f.listener.finished.size(), 1u);
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 200);
}

TEST(ClusterTest, PartialExternalLoadSlowsJobs) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2, .speed = 1.0}));
  ASSERT_OK(f.cluster.SetExternalLoad("n", 1.0));  // one of two CPUs busy
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  f.sim.Run();
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 100);  // full speed
  // Load report carries the external fraction.
  EXPECT_DOUBLE_EQ(f.listener.loads["n"], 0.5);
}

TEST(ClusterTest, KillJobRemovesIt) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  f.sim.RunFor(Duration::Seconds(10));
  ASSERT_OK(f.commands.Kill(1));
  EXPECT_TRUE(f.commands.Kill(1).IsNotFound());
  f.sim.Run();
  EXPECT_TRUE(f.listener.finished.empty());
  EXPECT_EQ(f.cluster.NumRunningJobs(), 0u);
  // 10 seconds of progress were wasted.
  EXPECT_NEAR(f.cluster.WastedWork().ToSeconds(), 10, 1e-6);
}

TEST(ClusterTest, DuplicateJobIdRejected) {
  // The second launch carries a fresh fence: a new attempt of a job id
  // that is still running, not a duplicate of the first.
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(10)));
  EXPECT_EQ(f.commands.Launch(1, "n", Duration::Seconds(10)).code(),
            StatusCode::kAlreadyExists);
  EXPECT_EQ(f.cluster.NumRunningJobs(), 1u);
}

TEST(ClusterTest, JobRemainingTracksProgress) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1, .speed = 2.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  f.sim.RunFor(Duration::Seconds(20));
  ASSERT_OK_AND_ASSIGN(Duration remaining, f.cluster.JobRemaining(1));
  EXPECT_NEAR(remaining.ToSeconds(), 60, 1e-6);  // 40 ref-seconds done
  ASSERT_OK_AND_ASSIGN(std::string node, f.cluster.JobNode(1));
  EXPECT_EQ(node, "n");
}

TEST(ClusterTest, CrashReportsNodeDownAndJobFailures) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(100)));
  f.sim.RunFor(Duration::Seconds(10));
  ASSERT_OK(f.cluster.CrashNode("n"));
  EXPECT_EQ(f.listener.down, (std::vector<std::string>{"n"}));
  EXPECT_EQ(f.listener.failed.size(), 2u);
  EXPECT_EQ(f.listener.reasons[0], "node crash");
  EXPECT_FALSE(f.cluster.IsUp("n"));
  EXPECT_EQ(f.cluster.AvailableCpus(), 0);
  // Idempotent crash; repair restores.
  ASSERT_OK(f.cluster.CrashNode("n"));
  ASSERT_OK(f.cluster.RepairNode("n"));
  EXPECT_EQ(f.listener.up, (std::vector<std::string>{"n"}));
  EXPECT_TRUE(f.cluster.IsUp("n"));
}

TEST(ClusterTest, HeartbeatsSilenceCrashAndRepairNotifications) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Hours(1)));
  f.cluster.EnableHeartbeats(Duration::Seconds(30));
  f.sim.RunFor(Duration::Seconds(95));
  EXPECT_EQ(f.listener.heartbeats, 3);
  // Lease mode: the crash loses the job but tells the listener nothing;
  // the server has to notice the missing heartbeats.
  ASSERT_OK(f.cluster.CrashNode("n"));
  EXPECT_EQ(f.cluster.NumRunningJobs(), 0u);
  f.sim.RunFor(Duration::Minutes(5));
  EXPECT_EQ(f.listener.heartbeats, 3);
  ASSERT_OK(f.cluster.RepairNode("n"));
  EXPECT_TRUE(f.listener.down.empty());
  EXPECT_TRUE(f.listener.failed.empty());
  EXPECT_TRUE(f.listener.up.empty());
  EXPECT_TRUE(f.listener.config_changes.empty());
  // The repaired PEC heartbeats again.
  f.sim.RunFor(Duration::Seconds(95));
  EXPECT_EQ(f.listener.heartbeats, 6);
}

// Completion and heartbeat events hold their node's address. Removing an
// up node must cancel them, so nothing fires into the erased node (the
// sanitizer build turns a dangling one into a failure) and a new node of
// the same name starts clean.
TEST(ClusterTest, RemovedNodeLeavesNoEventsBehind) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2}));
  ASSERT_OK(f.cluster.AddNode({.name = "other", .num_cpus = 1}));
  f.cluster.EnableHeartbeats(Duration::Seconds(30));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(200)));
  f.sim.RunFor(Duration::Seconds(45));
  EXPECT_EQ(f.listener.heartbeats_from["n"], 1);
  const size_t pending = f.sim.NumPending();
  ASSERT_OK(f.cluster.RemoveNode("n"));
  // Two completions and one heartbeat left the event loop at once.
  EXPECT_EQ(f.sim.NumPending(), pending - 3);
  EXPECT_EQ(f.cluster.NumRunningJobs(), 0u);

  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(3, "n", Duration::Seconds(50)));
  f.sim.RunFor(Duration::Seconds(300));
  // Only the new node's job completes (at t = 95), and only the new node
  // heartbeats: every 30 s from its arrival at t = 45 until t = 345.
  ASSERT_EQ(f.listener.finished.size(), 1u);
  EXPECT_EQ(f.listener.finished[0].first, 3u);
  EXPECT_EQ(f.listener.heartbeats_from["n"], 1 + 10);
  EXPECT_EQ(f.listener.heartbeats_from["other"], 11);
}

TEST(ClusterTest, StartJobOnDownNodeFails) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.cluster.CrashNode("n"));
  EXPECT_TRUE(f.commands.Launch(1, "n", Duration::Seconds(1)).IsUnavailable());
  EXPECT_TRUE(
      f.commands.Launch(2, "ghost", Duration::Seconds(1)).IsNotFound());
}

TEST(ClusterTest, DisconnectedReportsQueueAndFlushOnReconnect) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(10)));
  ASSERT_OK(f.cluster.SetConnected("n", false));
  f.sim.Run();
  EXPECT_TRUE(f.listener.finished.empty());  // report held at the node
  ASSERT_OK(f.cluster.SetConnected("n", true));
  ASSERT_EQ(f.listener.finished.size(), 1u);
}

TEST(ClusterTest, ReconnectFlushesReportsInEnqueueOrder) {
  // Regression: the flush drains the deque front-first and every queueing
  // path appends at the back, so a reconnect replays the outage's reports
  // in exactly the order the node produced them.
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 3}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(10)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(20)));
  ASSERT_OK(f.commands.Launch(3, "n", Duration::Seconds(30)));
  ASSERT_OK(f.cluster.SetConnected("n", false));
  f.sim.Run();  // all three complete behind the partition, in 1-2-3 order
  EXPECT_TRUE(f.listener.finished.empty());
  ASSERT_OK(f.cluster.SetConnected("n", true));
  ASSERT_EQ(f.listener.finished.size(), 3u);
  EXPECT_EQ(f.listener.finished[0].first, 1u);
  EXPECT_EQ(f.listener.finished[1].first, 2u);
  EXPECT_EQ(f.listener.finished[2].first, 3u);
}

TEST(ClusterTest, DisconnectedNodeRefusesCommands) {
  // Commands against an unreachable node have defined semantics: they
  // fail Unavailable and are never silently applied.
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.cluster.SetConnected("n", false));
  EXPECT_TRUE(
      f.commands.Launch(2, "n", Duration::Seconds(100)).IsUnavailable());
  EXPECT_EQ(f.cluster.NumRunningJobs(), 1u);
  EXPECT_TRUE(f.commands.Kill(1).IsUnavailable());
  EXPECT_EQ(f.cluster.NumRunningJobs(), 1u);
  ASSERT_OK(f.cluster.SetConnected("n", true));
  ASSERT_OK(f.commands.Kill(1));
  EXPECT_EQ(f.cluster.NumRunningJobs(), 0u);
}

TEST(ClusterTest, CrashDropsQueuedReports) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(10)));
  ASSERT_OK(f.cluster.SetConnected("n", false));
  f.sim.Run();  // job completes; report queued
  ASSERT_OK(f.cluster.CrashNode("n"));
  ASSERT_OK(f.cluster.RepairNode("n"));
  ASSERT_OK(f.cluster.SetConnected("n", true));
  EXPECT_TRUE(f.listener.finished.empty());  // the PEC died with its queue
}

TEST(ClusterTest, CpuUpgradeSpeedsRunningJobs) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Seconds(100)));
  f.sim.RunFor(Duration::Seconds(100));  // each is half done (share 0.5)
  ASSERT_OK(f.cluster.SetNodeCpus("n", 2));
  EXPECT_EQ(f.listener.config_changes, (std::vector<std::string>{"n"}));
  f.sim.Run();
  // Remaining 50 ref-seconds each now run in parallel.
  EXPECT_DOUBLE_EQ(f.sim.Now().SinceEpoch().ToSeconds(), 150);
}

TEST(ClusterTest, KillAllJobs) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "a", .num_cpus = 1}));
  ASSERT_OK(f.cluster.AddNode({.name = "b", .num_cpus = 1}));
  ASSERT_OK(f.commands.Launch(1, "a", Duration::Seconds(100)));
  ASSERT_OK(f.commands.Launch(2, "b", Duration::Seconds(100)));
  f.cluster.KillAllJobs();
  EXPECT_EQ(f.cluster.NumRunningJobs(), 0u);
  f.sim.Run();
  EXPECT_TRUE(f.listener.finished.empty());
}

TEST(ClusterTest, TraceSeriesTracksAvailabilityAndUtilization) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 4}));
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Hours(24)));
  ASSERT_OK(f.commands.Launch(2, "n", Duration::Hours(24)));
  f.sim.RunFor(Duration::Hours(12));
  const StepSeries& avail = f.cluster.AvailabilitySeries();
  const StepSeries& util = f.cluster.UtilizationSeries();
  EXPECT_DOUBLE_EQ(avail.At(0.3), 4);
  EXPECT_DOUBLE_EQ(util.At(0.3), 2);
  ASSERT_OK(f.cluster.CrashNode("n"));
  double now_days = f.sim.Now().SinceEpoch().ToDays();
  EXPECT_DOUBLE_EQ(avail.At(now_days + 0.01), 0);
  EXPECT_DOUBLE_EQ(util.At(now_days + 0.01), 0);
}

TEST(ClusterTest, AnnotationsRecorded) {
  Fixture f;
  f.sim.RunFor(Duration::Days(2));
  f.cluster.Annotate("something happened");
  ASSERT_EQ(f.cluster.Events().size(), 1u);
  EXPECT_EQ(f.cluster.Events()[0].label, "something happened");
  EXPECT_DOUBLE_EQ(f.cluster.Events()[0].time.SinceEpoch().ToDays(), 2);
}

// --- FailureInjector -------------------------------------------------------------

TEST(FailureInjectorTest, ScriptedNodeOutage) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  FailureInjector inject(&f.cluster);
  inject.ScheduleNodeOutage(TimePoint::Zero() + Duration::Hours(1),
                            Duration::Hours(2), "n", "maintenance");
  f.sim.RunFor(Duration::Minutes(90));
  EXPECT_FALSE(f.cluster.IsUp("n"));
  f.sim.RunFor(Duration::Hours(2));
  EXPECT_TRUE(f.cluster.IsUp("n"));
  ASSERT_EQ(f.cluster.Events().size(), 1u);
}

TEST(FailureInjectorTest, NetworkOutageQueuesReports) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 1}));
  FailureInjector inject(&f.cluster);
  inject.ScheduleNetworkOutage(TimePoint::Zero() + Duration::Seconds(5),
                               Duration::Seconds(100), "outage");
  ASSERT_OK(f.commands.Launch(1, "n", Duration::Seconds(10)));
  f.sim.RunFor(Duration::Seconds(50));
  EXPECT_TRUE(f.listener.finished.empty());
  f.sim.RunFor(Duration::Seconds(60));
  EXPECT_EQ(f.listener.finished.size(), 1u);
}

TEST(FailureInjectorTest, RandomFailuresEventuallyCrashNodes) {
  Fixture f;
  for (int i = 0; i < 4; ++i) {
    ASSERT_OK(f.cluster.AddNode(
        {.name = "n" + std::to_string(i), .num_cpus = 1}));
  }
  Rng rng(1);
  FailureInjector inject(&f.cluster);
  inject.StartRandomNodeFailures(Duration::Hours(1), Duration::Minutes(10),
                                 &rng);
  f.sim.RunFor(Duration::Days(2));
  inject.StopRandomFailures();
  EXPECT_GT(f.cluster.Events().size(), 10u);  // many crash annotations
  EXPECT_FALSE(f.listener.down.empty());
  EXPECT_FALSE(f.listener.up.empty());
}

// --- ExternalLoadGenerator ----------------------------------------------------------

TEST(ExternalLoadTest, EpisodesToggleLoad) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 2}));
  Rng rng(3);
  ExternalLoadOptions options;
  options.mean_busy = Duration::Hours(2);
  options.mean_idle = Duration::Hours(2);
  ExternalLoadGenerator gen(&f.cluster, options, &rng);
  gen.Start();
  // Over 10 days the node must alternate between loaded and idle.
  bool saw_busy = false, saw_idle = false;
  for (int h = 0; h < 240; ++h) {
    f.sim.RunFor(Duration::Hours(1));
    double load = f.cluster.ExternalLoad("n");
    saw_busy |= load > 0;
    saw_idle |= load == 0;
  }
  EXPECT_TRUE(saw_busy);
  EXPECT_TRUE(saw_idle);
}

TEST(ExternalLoadTest, HeavyPeriodSaturatesAllNodes) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "a", .num_cpus = 2}));
  ASSERT_OK(f.cluster.AddNode({.name = "b", .num_cpus = 4}));
  Rng rng(4);
  ExternalLoadOptions options;
  options.mean_idle = Duration::Days(1000);  // no background episodes
  ExternalLoadGenerator gen(&f.cluster, options, &rng);
  gen.Start();
  gen.ScheduleHeavyPeriod(TimePoint::Zero() + Duration::Hours(1),
                          Duration::Hours(5), "busy");
  f.sim.RunFor(Duration::Hours(2));
  EXPECT_DOUBLE_EQ(f.cluster.ExternalLoad("a"), 2);
  EXPECT_DOUBLE_EQ(f.cluster.ExternalLoad("b"), 4);
  f.sim.RunFor(Duration::Hours(5));
  EXPECT_DOUBLE_EQ(f.cluster.ExternalLoad("a"), 0);
  EXPECT_DOUBLE_EQ(f.cluster.ExternalLoad("b"), 0);
}

TEST(ExternalLoadTest, FractionIsLoadOverCpusBitForBit) {
  Fixture f;
  ASSERT_OK(f.cluster.AddNode({.name = "n", .num_cpus = 3}));
  ASSERT_OK(f.cluster.SetExternalLoad("n", 1.7));
  // The monitor probe's sample: exactly the load over the CPU count.
  EXPECT_EQ(f.cluster.ExternalLoadFraction("n"),
            f.cluster.ExternalLoad("n") / 3);
  ASSERT_OK(f.cluster.SetNodeCpus("n", 2));
  EXPECT_EQ(f.cluster.ExternalLoadFraction("n"),
            f.cluster.ExternalLoad("n") / 2);
  EXPECT_EQ(f.cluster.ExternalLoadFraction("missing"), 0);
}

}  // namespace
}  // namespace biopera::cluster
