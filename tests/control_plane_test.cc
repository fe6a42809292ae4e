// The control plane on its own: a fake host stands in for the engine, a
// fake PEC answers commands, and link state is set on a plain channel. No
// Engine is constructed.
#include "core/control_plane.h"

#include <gtest/gtest.h>

#include <map>
#include <optional>
#include <string>
#include <vector>

namespace biopera::core {
namespace {

/// Records every command it is sent and answers with `reply`.
class FakePec : public comms::CommandHandler {
 public:
  Status HandleCommand(const comms::Message& msg) override {
    commands.push_back(msg);
    return reply;
  }
  std::vector<comms::Message> commands;
  Status reply = Status::OK();
};

/// Records what the control plane reports.
class FakeHost : public ControlPlaneHost {
 public:
  std::optional<uint64_t> OutstandingFence(cluster::JobId job) override {
    auto it = fences.find(job);
    if (it == fences.end()) return std::nullopt;
    return it->second;
  }
  void JobReported(cluster::JobId job, bool failed,
                   const std::string&) override {
    reported.push_back(failed ? -static_cast<int64_t>(job)
                              : static_cast<int64_t>(job));
  }
  void OnLoadReport(const std::string& node, double) override {
    events.push_back("load " + node);
  }
  void NodeSuspected(const std::string& node) override {
    events.push_back("suspected " + node);
  }
  void OnNodeUp(const std::string& node) override {
    events.push_back("up " + node);
  }
  void NodeCondemned(const std::string& node) override {
    events.push_back("condemned " + node);
  }

  std::map<cluster::JobId, uint64_t> fences;
  std::vector<int64_t> reported;  // job id, negated for a failure
  std::vector<std::string> events;
};

class ControlPlaneTest : public ::testing::Test {
 protected:
  ControlPlaneTest() { channel_.SetCommandHandler(&pec_); }

  /// Builds the control plane (after the test set its options).
  ControlPlane& Plane() {
    if (!plane_) {
      plane_.emplace(&sim_, &channel_, options_, /*spans=*/nullptr,
                     &metrics_, &host_);
    }
    return *plane_;
  }

  uint64_t Counter(const std::string& name) {
    return metrics_.GetCounter(name)->value();
  }
  uint64_t Retries() { return Counter("engine_comms_kill_retries_total"); }
  uint64_t Abandoned() {
    return Counter("engine_comms_kills_abandoned_total");
  }
  static Duration Backoff(cluster::JobId job, int attempt) {
    return comms::RetryBackoff(kKillRetryBase, kKillRetryMax,
                               EngineOptions().seed, "n1", job, attempt);
  }

  Simulator sim_;
  comms::Channel channel_;
  FakePec pec_;
  obs::Registry metrics_;
  EngineOptions options_;
  FakeHost host_;
  std::optional<ControlPlane> plane_;
};

TEST_F(ControlPlaneTest, UndeliverableKillIsRetriedOnTheBackoffDelays) {
  channel_.SetCommandLink("n1", false);
  const TimePoint start = sim_.Now();
  Plane().SendKill("n1", 7, 42);
  EXPECT_TRUE(pec_.commands.empty());
  TimePoint due = start;
  for (int attempt = 0; attempt < 3; ++attempt) {
    due = due + Backoff(7, attempt);
    ASSERT_TRUE(sim_.Step());
    EXPECT_EQ(sim_.Now(), due);
    EXPECT_EQ(Retries(), static_cast<uint64_t>(attempt + 1));
  }
  EXPECT_TRUE(pec_.commands.empty());
  // The link heals; the next retry delivers and settles the kill.
  channel_.SetCommandLink("n1", true);
  ASSERT_TRUE(sim_.Step());
  EXPECT_EQ(sim_.Now(), due + Backoff(7, 3));
  ASSERT_EQ(pec_.commands.size(), 1u);
  EXPECT_EQ(pec_.commands[0].type, comms::MessageType::kKill);
  EXPECT_EQ(pec_.commands[0].job, 7u);
  EXPECT_EQ(pec_.commands[0].fence, 42u);
  EXPECT_EQ(sim_.NumPending(), 0u);
  EXPECT_EQ(Retries(), 4u);
}

TEST_F(ControlPlaneTest, LinkUpFlushesTheKillAtOnceAndCancelsItsRetry) {
  channel_.SetCommandLink("n1", false);
  Plane().SendKill("n1", 7, 42);
  Plane().SendKill("n1", 8, 43);
  sim_.RunFor(Duration::Seconds(1));  // before any retry is due
  EXPECT_EQ(sim_.NumPending(), 2u);
  channel_.SetCommandLink("n1", true);
  Plane().FlushKills("n1");
  ASSERT_EQ(pec_.commands.size(), 2u);
  EXPECT_EQ(pec_.commands[0].job, 7u);
  EXPECT_EQ(pec_.commands[1].job, 8u);
  EXPECT_EQ(sim_.NumPending(), 0u);
  sim_.Run();
  EXPECT_EQ(Retries(), 0u);
  EXPECT_EQ(pec_.commands.size(), 2u);
}

TEST_F(ControlPlaneTest, KillIsAbandonedAfterTheRetryLimit) {
  channel_.SetCommandLink("n1", false);
  Plane().SendKill("n1", 7, 42);
  sim_.Run();
  EXPECT_EQ(Retries(), static_cast<uint64_t>(kKillRetryLimit));
  EXPECT_EQ(Abandoned(), 1u);
  EXPECT_TRUE(pec_.commands.empty());
  // Nothing is left to flush once the link comes back.
  channel_.SetCommandLink("n1", true);
  Plane().FlushKills("n1");
  EXPECT_TRUE(pec_.commands.empty());
}

TEST_F(ControlPlaneTest, KillOfAJobAlreadyGoneSettlesAtOnce) {
  pec_.reply = Status::NotFound("job 7 not running");
  Plane().SendKill("n1", 7, 42);
  EXPECT_EQ(pec_.commands.size(), 1u);
  EXPECT_EQ(sim_.NumPending(), 0u);
  // The same when it is a retry that finds the job gone.
  channel_.SetCommandLink("n1", false);
  Plane().SendKill("n1", 8, 43);
  channel_.SetCommandLink("n1", true);
  sim_.Run();
  EXPECT_EQ(pec_.commands.size(), 2u);
  EXPECT_EQ(Retries(), 1u);
  EXPECT_EQ(Abandoned(), 0u);
}

TEST_F(ControlPlaneTest, OnlyTheOutstandingAttemptsReportReachesTheHost) {
  host_.fences[5] = 99;
  comms::Message report;
  report.type = comms::MessageType::kCompletion;
  report.node = "n1";
  report.job = 5;
  report.fence = 98;  // an older attempt of job 5
  Plane().HandleReport(report);
  report.job = 6;  // no such job: a duplicate or a zombie
  Plane().HandleReport(report);
  report.job = 5;
  report.fence = 99;
  report.type = comms::MessageType::kFailure;
  Plane().HandleReport(report);
  EXPECT_EQ(host_.reported, (std::vector<int64_t>{-5}));
  EXPECT_EQ(Counter("engine_comms_reports_fenced_total"), 1u);
  EXPECT_EQ(Counter("engine_comms_reports_duplicate_total"), 1u);
  // Without leases a heartbeat is ignored; a load sample goes through.
  report.type = comms::MessageType::kHeartbeat;
  Plane().HandleReport(report);
  report.type = comms::MessageType::kLoad;
  Plane().HandleReport(report);
  EXPECT_EQ(host_.events, (std::vector<std::string>{"load n1"}));
  EXPECT_EQ(Plane().GetLeaseState("n1"), std::nullopt);
}

TEST_F(ControlPlaneTest, LeaseDetectorSuspectsReconcilesCondemnsAndRejoins) {
  options_.heartbeat_interval = Duration::Minutes(1);
  options_.lease_misses_to_suspect = 3;
  options_.lease_condemn_grace = Duration::Minutes(2);
  Plane().RenewLeases({{.name = "n1"}});
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kUp);
  EXPECT_EQ(Plane().GetLeaseState("n2"), LeaseState::kUnknown);
  comms::Message heartbeat;
  heartbeat.type = comms::MessageType::kHeartbeat;
  heartbeat.node = "n1";

  sim_.RunFor(Duration::Minutes(3));  // three missed heartbeats
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kSuspected);
  ASSERT_EQ(pec_.commands.size(), 1u);
  EXPECT_EQ(pec_.commands[0].type, comms::MessageType::kProbe);
  Plane().HandleReport(heartbeat);  // a false suspicion
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kUp);

  sim_.RunFor(Duration::Minutes(5));  // suspected at 6, condemned at 8
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kCondemned);
  channel_.SetCommandLink("n1", false);
  Plane().SendKill("n1", 7, 42);
  channel_.SetCommandLink("n1", true);
  Plane().HandleReport(heartbeat);  // back: rejoins, its kill is flushed
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kUp);
  EXPECT_EQ(pec_.commands.back().type, comms::MessageType::kKill);
  EXPECT_EQ(host_.events,
            (std::vector<std::string>{"suspected n1", "up n1",
                                      "suspected n1", "condemned n1",
                                      "up n1"}));
  EXPECT_EQ(Counter("engine_comms_nodes_condemned_total"), 1u);
  EXPECT_EQ(Counter("engine_comms_nodes_reconciled_total"), 2u);

  Plane().DropLeases("server_crashed");
  EXPECT_EQ(Plane().GetLeaseState("n1"), LeaseState::kUnknown);
  EXPECT_EQ(sim_.NumPending(), 0u);
}

}  // namespace
}  // namespace biopera::core
