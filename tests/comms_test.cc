// Tests for the control-plane message seam: channel link semantics and
// fault points, deterministic retry backoff, the PEC-side exactly-once
// protocol (duplicate launches, tombstones, report re-sends), and the
// engine's lease-based failure detector (suspicion, reconciliation,
// condemnation with fenced zombie reports).
#include <gtest/gtest.h>

#include <vector>

#include "cluster/cluster.h"
#include "comms/channel.h"
#include "common/rng.h"
#include "core/engine.h"
#include "obs/invariants.h"
#include "obs/trace.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/command_util.h"
#include "tests/test_util.h"

namespace biopera::comms {
namespace {

/// Records everything delivered on either side of a channel.
struct Recorder : public CommandHandler, public ReportHandler {
  Status HandleCommand(const Message& msg) override {
    commands.push_back(msg);
    return command_status;
  }
  void HandleReport(const Message& msg) override { reports.push_back(msg); }

  std::vector<Message> commands;
  std::vector<Message> reports;
  Status command_status = Status::OK();
};

Message Launch(const std::string& node, uint64_t job, uint64_t fence = 1) {
  Message msg;
  msg.type = MessageType::kLaunch;
  msg.node = node;
  msg.job = job;
  msg.fence = fence;
  msg.work = Duration::Minutes(10);
  return msg;
}

Message Completion(const std::string& node, uint64_t job) {
  Message msg;
  msg.type = MessageType::kCompletion;
  msg.node = node;
  msg.job = job;
  return msg;
}

TEST(ChannelTest, LinksAreAsymmetric) {
  Channel chan;
  Recorder rec;
  chan.SetCommandHandler(&rec);
  chan.SetReportHandler(&rec);

  // A down command link refuses sends -- never a silent apply -- while
  // reports from the same node still flow.
  chan.SetCommandLink("n0", false);
  EXPECT_TRUE(chan.SendCommand(Launch("n0", 1)).IsUnavailable());
  EXPECT_TRUE(rec.commands.empty());
  EXPECT_TRUE(chan.SendReport(Completion("n0", 1)));
  ASSERT_EQ(rec.reports.size(), 1u);

  // And vice versa: a down report link drops reports, commands flow.
  chan.SetCommandLink("n0", true);
  chan.SetReportLink("n0", false);
  EXPECT_FALSE(chan.SendReport(Completion("n0", 2)));
  EXPECT_EQ(rec.reports.size(), 1u);
  ASSERT_OK(chan.SendCommand(Launch("n0", 2)));
  ASSERT_EQ(rec.commands.size(), 1u);
  EXPECT_EQ(rec.commands[0].job, 2u);
}

TEST(ChannelTest, SetConnectedDrivesBothLinksAndObserver) {
  Channel chan;
  std::vector<std::string> notified;
  chan.SetLinkObserver([&](const std::string& node) {
    notified.push_back(node);
  });
  chan.SetConnected("n0", false);
  EXPECT_FALSE(chan.CommandLinkUp("n0"));
  EXPECT_FALSE(chan.ReportLinkUp("n0"));
  chan.SetConnected("n0", true);
  EXPECT_TRUE(chan.CommandLinkUp("n0"));
  EXPECT_TRUE(chan.ReportLinkUp("n0"));
  // Both transitions observed (at least once per direction change).
  EXPECT_GE(notified.size(), 2u);
  for (const auto& n : notified) EXPECT_EQ(n, "n0");
}

TEST(FaultChannelTest, ArmedDropIsSilentToTheSender) {
  FaultChannel chan;
  Recorder rec;
  chan.SetCommandHandler(&rec);
  chan.ArmDrop("cmd.launch", /*at_hit=*/2);
  ASSERT_OK(chan.SendCommand(Launch("n0", 1)));
  // The dropped send still reports OK: a real network gives no receipt.
  ASSERT_OK(chan.SendCommand(Launch("n0", 2)));
  ASSERT_EQ(rec.commands.size(), 1u);
  EXPECT_EQ(rec.commands[0].job, 1u);
  EXPECT_EQ(chan.Hits().at("cmd.launch"), 2u);
  EXPECT_EQ(chan.faults_injected(), 1u);
}

TEST(FaultChannelTest, ArmedDupDeliversTwice) {
  FaultChannel chan;
  Recorder rec;
  chan.SetReportHandler(&rec);
  chan.ArmDup("rpt.completion", /*at_hit=*/1);
  EXPECT_TRUE(chan.SendReport(Completion("n0", 7)));
  ASSERT_EQ(rec.reports.size(), 2u);
  EXPECT_EQ(rec.reports[0].job, 7u);
  EXPECT_EQ(rec.reports[1].job, 7u);
}

TEST(FaultChannelTest, ArmedDelayDeliversOnTheSimulator) {
  Simulator sim;
  FaultChannel chan;
  chan.BindSimulator(&sim);
  Recorder rec;
  chan.SetCommandHandler(&rec);
  chan.ArmDelay("cmd.kill", /*at_hit=*/1, Duration::Seconds(30));
  Message kill;
  kill.type = MessageType::kKill;
  kill.node = "n0";
  kill.job = 3;
  ASSERT_OK(chan.SendCommand(kill));
  EXPECT_TRUE(rec.commands.empty());  // in flight
  sim.Run();
  ASSERT_EQ(rec.commands.size(), 1u);
  EXPECT_EQ(rec.commands[0].job, 3u);
  EXPECT_EQ(sim.Now().SinceEpoch(), Duration::Seconds(30));
}

TEST(FaultChannelTest, ReorderHoldsUntilTheNextMessage) {
  Simulator sim;
  FaultChannel chan;
  chan.BindSimulator(&sim);
  Recorder rec;
  chan.SetReportHandler(&rec);
  chan.ArmReorder("rpt.completion", /*at_hit=*/1);
  EXPECT_TRUE(chan.SendReport(Completion("n0", 1)));
  EXPECT_TRUE(rec.reports.empty());  // held
  EXPECT_TRUE(chan.SendReport(Completion("n0", 2)));
  // The held message is released right after its successor: 2 then 1.
  ASSERT_EQ(rec.reports.size(), 2u);
  EXPECT_EQ(rec.reports[0].job, 2u);
  EXPECT_EQ(rec.reports[1].job, 1u);
}

TEST(FaultChannelTest, ReorderFallbackTimerReleasesLoneMessages) {
  Simulator sim;
  FaultChannel chan;
  chan.BindSimulator(&sim);
  Recorder rec;
  chan.SetReportHandler(&rec);
  chan.ArmReorder("rpt.completion", /*at_hit=*/1);
  EXPECT_TRUE(chan.SendReport(Completion("n0", 9)));
  EXPECT_TRUE(rec.reports.empty());
  sim.Run();  // no successor ever arrives: the fallback timer fires
  ASSERT_EQ(rec.reports.size(), 1u);
  EXPECT_EQ(rec.reports[0].job, 9u);
}

TEST(FaultChannelTest, RandomFaultsAreSeedDeterministic) {
  FaultProfile profile;
  profile.drop = 0.2;
  profile.dup = 0.2;
  auto run = [&profile](uint64_t seed) {
    Simulator sim;
    FaultChannel chan;
    chan.BindSimulator(&sim);
    Recorder rec;
    chan.SetReportHandler(&rec);
    Rng rng(seed);
    chan.SetRandomFaults(profile, &rng);
    for (uint64_t i = 0; i < 200; ++i) {
      chan.SendReport(Completion("n" + std::to_string(i % 3), i));
    }
    sim.Run();
    std::vector<uint64_t> jobs;
    for (const auto& msg : rec.reports) jobs.push_back(msg.job);
    return std::make_pair(chan.faults_injected(), jobs);
  };
  auto a = run(11);
  auto b = run(11);
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
  EXPECT_GT(a.first, 0u);              // the profile actually fired
  EXPECT_NE(a.second.size(), 200u);    // and changed the delivery history
  auto c = run(12);
  EXPECT_TRUE(a.first != c.first || a.second != c.second);
}

TEST(RetryBackoffTest, DeterministicBoundedAndMonotonic) {
  const Duration base = Duration::Seconds(2);
  const Duration max = Duration::Minutes(4);
  Duration prev = Duration::Zero();
  for (int attempt = 0; attempt < 12; ++attempt) {
    Duration d = RetryBackoff(base, max, /*seed=*/7, "node0", 42, attempt);
    EXPECT_EQ(d, RetryBackoff(base, max, 7, "node0", 42, attempt));
    EXPECT_GE(d, base);
    // Exponential part capped at max, jitter strictly below base.
    EXPECT_LT(d, max + base);
    EXPECT_GE(d + base, prev);  // grows, modulo jitter
    prev = d;
  }
  // Distinct jobs and nodes decorrelate the jitter (no retry storms in
  // lockstep): at least one of a handful of neighbours must differ.
  bool differs = false;
  for (uint64_t job = 1; job <= 8; ++job) {
    if (RetryBackoff(base, max, 7, "node0", job, 3) !=
        RetryBackoff(base, max, 7, "node0", 42, 3)) {
      differs = true;
    }
  }
  EXPECT_TRUE(differs);
}

}  // namespace
}  // namespace biopera::comms

namespace biopera::cluster {
namespace {

/// Server side of the protocol for the cluster tests: collects reports.
struct ReportLog : public comms::ReportHandler {
  void HandleReport(const comms::Message& msg) override {
    reports.push_back(msg);
  }
  std::vector<comms::Message> reports;
};

struct ProtocolWorld {
  ProtocolWorld() : cluster(&sim) {
    chan.SetReportHandler(&log);
    EXPECT_OK(cluster.AddNode({.name = "n0", .num_cpus = 1}));
    EXPECT_OK(cluster.AddNode({.name = "n1", .num_cpus = 1}));
  }

  static comms::Message Launch(uint64_t job, uint64_t fence) {
    return testing::LaunchCommand("n0", job, fence);
  }
  static comms::Message Kill(uint64_t job, uint64_t fence) {
    return testing::KillCommand("n0", job, fence);
  }

  Simulator sim;
  ClusterSim cluster;
  comms::Channel& chan = *cluster.channel();  // the cluster's own
  ReportLog log;
};

// Commands against an unreachable node have defined semantics -- they
// fail Unavailable and are never silently applied.
TEST(CommandSemanticsTest, DisconnectedNodeRefusesStartAndKill) {
  ProtocolWorld w;
  ASSERT_OK(w.chan.SendCommand(w.Launch(1, 100)));
  w.chan.SetCommandLink("n0", false);

  Status start = w.chan.SendCommand(w.Launch(2, 200));
  EXPECT_TRUE(start.IsUnavailable()) << start.ToString();
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);  // nothing silently started

  Status kill = w.chan.SendCommand(w.Kill(1, 100));
  EXPECT_TRUE(kill.IsUnavailable()) << kill.ToString();
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);  // nothing silently killed

  // Reconnect: both commands now apply.
  w.chan.SetCommandLink("n0", true);
  ASSERT_OK(w.chan.SendCommand(w.Launch(2, 200)));
  ASSERT_OK(w.chan.SendCommand(w.Kill(1, 100)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);
}

TEST(ProtocolTest, LaunchWithoutFenceIsRefused) {
  ProtocolWorld w;
  Status st = w.cluster.HandleCommand(w.Launch(1, /*fence=*/0));
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_EQ(w.cluster.NumRunningJobs(), 0u);
  w.sim.Run();
  EXPECT_TRUE(w.log.reports.empty());
}

TEST(ProtocolTest, DuplicateLaunchIsIdempotent) {
  ProtocolWorld w;
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 100)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);
  // The network duplicated the launch: same job, same fence -- absorbed.
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 100)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);
  // A different fence is a protocol violation, not a duplicate.
  Status st = w.cluster.HandleCommand(w.Launch(1, 200));
  EXPECT_EQ(st.code(), StatusCode::kAlreadyExists) << st.ToString();
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);
}

TEST(ProtocolTest, FinishedAttemptResendsItsReportInsteadOfRerunning) {
  ProtocolWorld w;
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 100)));
  w.sim.Run();
  ASSERT_EQ(w.log.reports.size(), 1u);
  EXPECT_EQ(w.log.reports[0].type, comms::MessageType::kCompletion);
  EXPECT_EQ(w.log.reports[0].fence, 100u);
  // A delayed duplicate of the launch arrives after completion: the PEC
  // re-sends the (possibly lost) report and does not burn CPU again.
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 100)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 0u);
  ASSERT_EQ(w.log.reports.size(), 2u);
  EXPECT_EQ(w.log.reports[1].type, comms::MessageType::kCompletion);
  EXPECT_EQ(w.log.reports[1].job, 1u);
  EXPECT_EQ(w.log.reports[1].fence, 100u);
}

TEST(ProtocolTest, KillTombstonesAnInFlightLaunch) {
  ProtocolWorld w;
  // The kill overtook its launch (reordered): NotFound, but the attempt
  // is tombstoned...
  EXPECT_TRUE(w.cluster.HandleCommand(w.Kill(1, 100)).IsNotFound());
  // ...so the late launch cannot resurrect it.
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 100)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 0u);
  // A fresh attempt (new fence) of the same job id is unaffected.
  ASSERT_OK(w.cluster.HandleCommand(w.Launch(1, 200)));
  EXPECT_EQ(w.cluster.NumRunningJobs(), 1u);
}

TEST(ProtocolTest, ProbeAnswersWithAnImmediateHeartbeat) {
  ProtocolWorld w;
  comms::Message probe;
  probe.type = comms::MessageType::kProbe;
  probe.node = "n0";
  ASSERT_OK(w.cluster.HandleCommand(probe));
  ASSERT_EQ(w.log.reports.size(), 1u);
  EXPECT_EQ(w.log.reports[0].type, comms::MessageType::kHeartbeat);
  EXPECT_EQ(w.log.reports[0].node, "n0");
  // A crashed node cannot answer.
  ASSERT_OK(w.cluster.CrashNode("n0"));
  EXPECT_TRUE(w.cluster.HandleCommand(probe).IsUnavailable());
  EXPECT_EQ(w.log.reports.size(), 1u);
}

TEST(ProtocolTest, HeartbeatsAreEphemeralAcrossAReportPartition) {
  ProtocolWorld w;
  w.cluster.EnableHeartbeats(Duration::Seconds(30));
  w.sim.RunFor(Duration::Seconds(95));
  size_t before = w.log.reports.size();
  EXPECT_GE(before, 4u);  // two nodes, three intervals
  // Heartbeats from a report-partitioned node are dropped, not queued:
  // after the partition heals there is no burst of stale heartbeats.
  w.chan.SetReportLink("n0", false);
  w.sim.RunFor(Duration::Seconds(120));
  w.chan.SetReportLink("n0", true);
  for (size_t i = before; i < w.log.reports.size(); ++i) {
    EXPECT_NE(w.log.reports[i].node, "n0");
  }
}

}  // namespace
}  // namespace biopera::cluster

namespace biopera::core {
namespace {

using ocr::ProcessBuilder;
using ocr::TaskBuilder;
using ocr::Value;

struct LeaseWorld {
  explicit LeaseWorld(EngineOptions options = {}, int nodes = 2) {
    auto opened = RecordStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < nodes; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 1,
                                  .speed = 1.0}));
    }
    chan.BindSimulator(&sim);
    options.observability = &obs;
    options.channel = &chan;
    options.heartbeat_interval = Duration::Seconds(30);
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
    EXPECT_OK(registry.Register(
        "work", [](const ActivityInput&) -> Result<ActivityOutput> {
          ActivityOutput out;
          out.fields["y"] = Value(1);
          out.cost = Duration::Minutes(10);
          return out;
        }));
    EXPECT_OK(engine->Startup());
  }

  double Metric(const std::string& key) {
    auto snapshot = obs.metrics.Snapshot();
    const auto* entry = snapshot.Find(key);
    return entry == nullptr ? 0.0 : entry->value;
  }

  testing::TempDir dir;
  obs::Observability obs;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  comms::FaultChannel chan;
  ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

ocr::ProcessDef TwoStep() {
  auto def = ProcessBuilder("twostep")
                 .Data("done")
                 .Task(TaskBuilder::Activity("a", "work"))
                 .Task(TaskBuilder::Activity("b", "work")
                           .Output("out.y", "wb.done"))
                 .Connect("a", "b")
                 .Build();
  EXPECT_TRUE(def.ok());
  return std::move(*def);
}

TEST(LeaseTest, FalseSuspicionReconcilesWithoutLosingTheJob) {
  LeaseWorld w;
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  const std::string victim = jobs[0].node;
  EXPECT_EQ(w.engine->GetLeaseState(victim), Engine::LeaseState::kUp);

  // Blackhole only the reports: the node still computes and can still
  // receive commands, but its heartbeats vanish -- to the server this is
  // indistinguishable from death, until it isn't.
  w.chan.SetReportLink(victim, false);
  w.sim.RunFor(Duration::Minutes(2));  // > misses(3) * interval(30s)
  EXPECT_EQ(w.engine->GetLeaseState(victim), Engine::LeaseState::kSuspected);
  EXPECT_EQ(w.Metric("engine_comms_nodes_suspected_total"), 1.0);

  // The partition heals inside the condemnation grace: the next
  // heartbeat reconciles the false suspicion and the job survives.
  w.chan.SetReportLink(victim, true);
  w.sim.RunFor(Duration::Minutes(1));
  EXPECT_EQ(w.engine->GetLeaseState(victim), Engine::LeaseState::kUp);
  EXPECT_EQ(w.Metric("engine_comms_nodes_reconciled_total"), 1.0);
  EXPECT_EQ(w.Metric("engine_comms_nodes_condemned_total"), 0.0);

  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  // The run's span record satisfies the exactly-once invariant.
  EXPECT_TRUE(obs::CheckExactlyOnce(w.obs.spans).empty());
}

TEST(LeaseTest, CondemnationReschedulesAndFencesZombieReports) {
  LeaseWorld w;
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  const std::string victim = jobs[0].node;

  // Full partition, long enough to condemn: suspicion after 90s of
  // silence plus the 2-minute grace.
  w.chan.SetConnected(victim, false);
  w.sim.RunFor(Duration::Minutes(6));
  EXPECT_EQ(w.engine->GetLeaseState(victim), Engine::LeaseState::kCondemned);
  EXPECT_EQ(w.Metric("engine_comms_nodes_condemned_total"), 1.0);
  // The orphaned task was re-queued away from the condemned node.
  jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_NE(jobs[0].node, victim);

  // Behind the partition the old attempt completed (10 min of work): its
  // report is queued. Let the replacement attempt finish first, then
  // heal -- the zombie report arrives for a job the server no longer
  // knows and must be dropped, not double-applied.
  w.sim.RunFor(Duration::Minutes(30));
  w.chan.SetConnected(victim, true);
  // Heartbeats are daemons: advance time so the next one can rejoin the
  // condemned node.
  w.sim.RunFor(Duration::Minutes(2));
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  EXPECT_GE(w.Metric("engine_comms_reports_duplicate_total"), 1.0);
  EXPECT_EQ(w.engine->GetLeaseState(victim), Engine::LeaseState::kUp);
  EXPECT_EQ(w.Metric("engine_comms_nodes_reconciled_total"), 1.0);
  auto violations = obs::CheckExactlyOnce(w.obs.spans);
  EXPECT_TRUE(violations.empty())
      << (violations.empty() ? "" : violations[0].ToText());
}

TEST(LeaseTest, LegacyModeReportsUnknownLeaseState) {
  // Without heartbeats the detector is off: lease state degenerates to
  // node existence.
  testing::TempDir dir;
  Simulator sim;
  auto store = RecordStore::Open(dir.path()).value();
  cluster::ClusterSim cluster(&sim);
  ASSERT_OK(cluster.AddNode({.name = "node0", .num_cpus = 1}));
  ActivityRegistry registry;
  Engine engine(&sim, &cluster, store.get(), &registry, {});
  ASSERT_OK(engine.Startup());
  EXPECT_EQ(engine.GetLeaseState("node0"), Engine::LeaseState::kUp);
  EXPECT_EQ(engine.GetLeaseState("ghost"), Engine::LeaseState::kUnknown);
}

}  // namespace
}  // namespace biopera::core
