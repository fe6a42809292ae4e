// Tests for engine configuration paths: the job-timeout watchdog,
// raw-load-report mode (adaptive monitoring off), progress estimation,
// and per-task listings.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/console.h"
#include "core/engine.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"

namespace biopera::core {
namespace {

using ocr::ProcessBuilder;
using ocr::TaskBuilder;
using ocr::Value;

struct World {
  explicit World(const EngineOptions& options = {}, int nodes = 2) {
    auto opened = RecordStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < nodes; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 1,
                                  .speed = 1.0}));
    }
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

  testing::TempDir dir;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
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

TEST(WatchdogTest, LostReportIsRescheduledAutomatically) {
  EngineOptions options;
  options.job_timeout_factor = 2.0;
  options.job_timeout_slack = Duration::Minutes(5);
  World w(options, /*nodes=*/2);
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  // Permanently partition the node running `a`: its completion report is
  // queued forever. Without a watchdog this would need a manual Restart.
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_OK(w.cluster->SetConnected(jobs[0].node, false));
  // The watchdog is a daemon event: advance past cost*2 + slack.
  w.sim.RunFor(Duration::Hours(2));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  // The history documents the automated re-scheduling.
  bool saw = false;
  for (const auto& line : w.engine->GetHistory(id)) {
    if (line.find("timed out; re-scheduling") != std::string::npos) {
      saw = true;
    }
  }
  EXPECT_TRUE(saw);
}

TEST(WatchdogTest, DisabledByDefault) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_OK(w.cluster->SetConnected(jobs[0].node, false));
  w.sim.RunFor(Duration::Days(2));
  // Stuck (as the paper's event 10 was): the operator must Restart.
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kRunning);
  ASSERT_OK(w.engine->Restart(id));
  ASSERT_OK(w.cluster->SetConnected(jobs[0].node, true));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(WatchdogTest, DoesNotFireForHealthyJobs) {
  EngineOptions options;
  options.job_timeout_factor = 3.0;
  options.job_timeout_slack = Duration::Minutes(1);
  World w(options);
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  // No task was re-scheduled by the watchdog.
  for (const auto& line : w.engine->GetHistory(id)) {
    EXPECT_EQ(line.find("timed out"), std::string::npos) << line;
  }
}

TEST(RawLoadReportTest, AwarenessUpdatesWithoutMonitors) {
  EngineOptions options;
  options.adaptive_monitoring = false;
  World w(options);
  // A raw PEC push must land in the awareness model directly.
  ASSERT_OK(w.cluster->SetExternalLoad("node0", 1.0));
  const auto* view = w.engine->awareness().Find("node0");
  ASSERT_NE(view, nullptr);
  EXPECT_DOUBLE_EQ(view->reported_load, 1.0);
  // And scheduling respects it immediately (node0 full, node1 free).
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Seconds(1));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].node, "node1");
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(ProgressTest, EstimateRemainingWorkTracksOutstandingWork) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  // Job `a` outstanding at its known 10-minute cost; `b` is inactive and
  // estimated at the mean completed cost (none yet -> 0).
  ASSERT_OK_AND_ASSIGN(Duration early, w.engine->EstimateRemainingWork(id));
  EXPECT_EQ(early, Duration::Minutes(10));
  w.sim.RunFor(Duration::Minutes(10));  // a done, b dispatched
  ASSERT_OK_AND_ASSIGN(Duration mid, w.engine->EstimateRemainingWork(id));
  EXPECT_EQ(mid, Duration::Minutes(10));  // b's job outstanding
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Duration done, w.engine->EstimateRemainingWork(id));
  EXPECT_EQ(done, Duration::Zero());
  EXPECT_TRUE(w.engine->EstimateRemainingWork("ghost").status().IsNotFound());
}

TEST(TaskRowsTest, ListTasksAndConsoleRender) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  ASSERT_OK_AND_ASSIGN(auto rows, w.engine->ListTasks(id));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].path, "a");
  EXPECT_EQ(rows[0].state, TaskState::kRunning);
  EXPECT_FALSE(rows[0].node.empty());
  EXPECT_EQ(rows[1].state, TaskState::kInactive);
  AdminConsole console(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string tasks, console.Execute("TASKS " + id));
  EXPECT_NE(tasks.find("Running"), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::string eta, console.Execute("ETA " + id));
  EXPECT_NE(eta.find("remaining"), std::string::npos);
  w.sim.Run();
}

TEST(RandomPolicyTest, EngineRunsWithRandomPolicy) {
  EngineOptions options;
  options.policy = "random";
  options.seed = 99;
  World w(options, /*nodes=*/4);
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(EngineOptionsTest, DefaultChannelIsTheClusters) {
  World w({}, /*nodes=*/1);
  EXPECT_EQ(w.engine->channel(), w.cluster->channel());
  // Link state lives in the cluster's channel, not in an engine: a
  // partition made between two engines still refuses the replacement's
  // launches.
  w.engine.reset();
  ASSERT_OK(w.cluster->SetConnected("node0", false));
  w.engine = std::make_unique<Engine>(&w.sim, w.cluster.get(), w.store.get(),
                                      &w.registry, EngineOptions{});
  EXPECT_EQ(w.engine->channel(), w.cluster->channel());
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.engine->RegisterTemplate(TwoStep()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("twostep"));
  w.sim.RunFor(Duration::Minutes(1));
  EXPECT_EQ(w.cluster->NumRunningJobs(), 0u);
  w.sim.RunFor(Duration::Hours(1));
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kRunning);
  // Healing the link lets the queued work run.
  ASSERT_OK(w.cluster->SetConnected("node0", true));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(BadPolicyTest, StartupFailsWithUnknownPolicy) {
  EngineOptions options;
  options.policy = "does_not_exist";
  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  ActivityRegistry registry;
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  EXPECT_TRUE(engine.Startup().IsInvalidArgument());
}

}  // namespace
}  // namespace biopera::core
