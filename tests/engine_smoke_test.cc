// End-to-end smoke tests: a small process through the full stack
// (simulator + cluster + store + engine), including crash recovery.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "obs/trace.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

using core::ActivityInput;
using core::ActivityOutput;
using core::ActivityRegistry;
using core::Engine;
using core::EngineOptions;
using core::InstanceState;
using ocr::ProcessBuilder;
using ocr::TaskBuilder;
using ocr::Value;

/// A two-step process: produce -> consume, with a conditional branch that
/// is skipped.
ocr::ProcessDef TinyProcess() {
  auto def = ProcessBuilder("tiny")
                 .Data("x", Value(5))
                 .Data("y")
                 .Data("z")
                 .Task(TaskBuilder::Activity("produce", "test.produce")
                           .Input("wb.x", "in.x")
                           .Output("out.doubled", "wb.y"))
                 .Task(TaskBuilder::Activity("consume", "test.consume")
                           .Input("wb.y", "in.y")
                           .Output("out.result", "wb.z"))
                 .Task(TaskBuilder::Activity("never", "test.never"))
                 .Connect("produce", "consume", "wb.y > 0")
                 .Connect("produce", "never", "wb.y < 0")
                 .Build();
  EXPECT_TRUE(def.ok()) << def.status().ToString();
  return std::move(*def);
}

void RegisterTinyActivities(ActivityRegistry* registry) {
  ASSERT_OK(registry->Register(
      "test.produce", [](const ActivityInput& in) -> Result<ActivityOutput> {
        ActivityOutput out;
        out.fields["doubled"] = Value(in.Get("x").AsInt() * 2);
        out.cost = Duration::Seconds(30);
        return out;
      }));
  ASSERT_OK(registry->Register(
      "test.consume", [](const ActivityInput& in) -> Result<ActivityOutput> {
        ActivityOutput out;
        out.fields["result"] = Value(in.Get("y").AsInt() + 1);
        out.cost = Duration::Seconds(10);
        return out;
      }));
  ASSERT_OK(registry->Register(
      "test.never", [](const ActivityInput&) -> Result<ActivityOutput> {
        ADD_FAILURE() << "dead-path task executed";
        return ActivityOutput{};
      }));
}

struct World {
  explicit World(const std::string& dir,
                 const EngineOptions& options = EngineOptions()) {
    auto opened = RecordStore::Open(dir);
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
  }

  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

TEST(EngineSmoke, RunsTinyProcessToCompletion) {
  testing::TempDir dir;
  World w(dir.path());
  RegisterTinyActivities(&w.registry);
  ASSERT_OK(w.cluster->AddNode({.name = "n1", .num_cpus = 2, .speed = 1.0}));
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.engine->RegisterTemplate(TinyProcess()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("tiny"));
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value z, w.engine->GetWhiteboardValue(id, "z"));
  EXPECT_EQ(z, Value(11));  // (5*2)+1
  // Statistics: two activities, 40 CPU-seconds.
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  EXPECT_DOUBLE_EQ(summary.stats.cpu_seconds, 40.0);
  // Dead path: "never" skipped, not failed.
  EXPECT_EQ(summary.tasks_failed, 0u);
  // Lineage recorded.
  ASSERT_OK_AND_ASSIGN(std::string writer, w.engine->GetLineage(id, "z"));
  EXPECT_EQ(writer, "consume");
}

TEST(EngineTest, DestroyedEngineLeavesNoEvents) {
  // An up engine with a starved entry (pump retry), a running job
  // (watchdog) and a failed activity waiting out its backoff (retry timer)
  // is destroyed on a live simulator: every event it armed goes with it,
  // so once the cluster kills its jobs nothing is left to run.
  testing::TempDir dir;
  EngineOptions options;
  options.job_timeout_factor = 2;
  World w(dir.path(), options);
  RegisterTinyActivities(&w.registry);
  ASSERT_OK(w.registry.Register(
      "test.fail", [](const ActivityInput&) -> Result<ActivityOutput> {
        return Status::Internal("boom");
      }));
  ASSERT_OK(w.cluster->AddNode({.name = "n1", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(w.engine->Startup());
  auto def = ProcessBuilder("busy")
                 .Data("x", Value(5))
                 .Task(TaskBuilder::Activity("a", "test.produce")
                           .Input("wb.x", "in.x"))
                 .Task(TaskBuilder::Activity("b", "test.produce")
                           .Input("wb.x", "in.x"))
                 .Task(TaskBuilder::Activity("c", "test.fail")
                           .Retry(3, Duration::Hours(1)))
                 .Build();
  ASSERT_OK(def.status());
  ASSERT_OK(w.engine->RegisterTemplate(*def));
  ASSERT_OK(w.engine->StartProcess("busy").status());
  EXPECT_EQ(w.engine->GetRunningJobs().size(), 1u);
  EXPECT_EQ(w.engine->GetDispatchStats().parked_starved, 1u);

  w.engine.reset();
  w.cluster->KillAllJobs();
  ASSERT_EQ(w.sim.NumPending(), 0u);
  w.sim.Run();
}

TEST(EngineSmoke, FailedStartLeavesNoInstance) {
  testing::TempDir dir;
  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  World w(dir.path(), options);
  int calls = 0;
  ASSERT_OK(w.registry.Register(
      "test.count", [&calls](const ActivityInput&) -> Result<ActivityOutput> {
        ++calls;
        ActivityOutput out;
        out.cost = Duration::Seconds(5);
        return out;
      }));
  ASSERT_OK(w.cluster->AddNode({.name = "n1", .num_cpus = 2, .speed = 1.0}));
  ASSERT_OK(w.engine->Startup());
  // "first" is ready at start and queued before "fan" fails to expand:
  // its LIST input is an int.
  auto def = ProcessBuilder("bad")
                 .Data("items", Value(5))
                 .Data("results")
                 .Task(TaskBuilder::Activity("first", "test.count"))
                 .Task(TaskBuilder::Parallel(
                           "fan", "wb.items",
                           TaskBuilder::Activity("body", "test.count")
                               .Input("item", "in.x"))
                           .Collect("wb.results"))
                 .Build();
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  ASSERT_OK(w.engine->RegisterTemplate(*def));
  for (int attempt = 0; attempt < 2; ++attempt) {
    Result<std::string> id = w.engine->StartProcess("bad");
    ASSERT_FALSE(id.ok());
    EXPECT_TRUE(id.status().IsInvalidArgument()) << id.status().ToString();
    EXPECT_TRUE(w.engine->ListInstances().empty());
  }
  w.sim.RunFor(Duration::Hours(1));
  EXPECT_EQ(calls, 0);
  EXPECT_EQ(w.cluster->NumRunningJobs(), 0u);
  EXPECT_EQ(obs.metrics.GetCounter("engine_tasks_dispatched_total")->value(),
            0u);
  EXPECT_EQ(w.engine->QueueDepth(), 0u);
  int failed_instance_spans = 0;
  obs.spans.ForEach([&](const obs::Span& span) {
    if (span.kind != obs::SpanKind::kInstance) return;
    EXPECT_FALSE(span.open) << span.name;
    if (span.outcome == "failed") ++failed_instance_spans;
  });
  EXPECT_EQ(failed_instance_spans, 2);
  // A restart finds what memory held: nothing.
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  EXPECT_TRUE(w.engine->ListInstances().empty());
}

TEST(EngineSmoke, SurvivesServerCrashMidProcess) {
  testing::TempDir dir;
  World w(dir.path());
  RegisterTinyActivities(&w.registry);
  ASSERT_OK(w.cluster->AddNode({.name = "n1", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.engine->RegisterTemplate(TinyProcess()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("tiny"));

  // Let `produce` finish (30s) and `consume` start, then crash the server
  // mid-`consume`.
  w.sim.RunFor(Duration::Seconds(35));
  w.engine->Crash();
  EXPECT_EQ(w.cluster->NumRunningJobs(), 0u);  // jobs die with the server
  w.sim.RunFor(Duration::Hours(1));

  // Recover and finish.
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value z, w.engine->GetWhiteboardValue(id, "z"));
  EXPECT_EQ(z, Value(11));
}

TEST(EngineSmoke, SurvivesNodeCrashWithRetry) {
  testing::TempDir dir;
  World w(dir.path());
  RegisterTinyActivities(&w.registry);
  ASSERT_OK(w.cluster->AddNode({.name = "n1", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(w.cluster->AddNode({.name = "n2", .num_cpus = 1, .speed = 1.0}));
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.engine->RegisterTemplate(TinyProcess()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("tiny"));

  // Crash whichever node got the first job, mid-flight.
  w.sim.RunFor(Duration::Seconds(5));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  ASSERT_OK(w.cluster->CrashNode(jobs[0].node));
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_GE(summary.stats.activities_failed, 1u);
}

}  // namespace
}  // namespace biopera
