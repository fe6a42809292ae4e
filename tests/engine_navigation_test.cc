// Engine navigation semantics: blocks, parallel tasks, subprocesses,
// conditional branching with dead-path elimination, failure handling,
// data mapping, lineage, suspend/resume/abort/restart, priorities.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "core/planner.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "store/spaces.h"
#include "tests/test_util.h"

namespace biopera::core {
namespace {

using cluster::ClusterSim;
using ocr::ProcessBuilder;
using ocr::ProcessDef;
using ocr::TaskBuilder;
using ocr::Value;

struct World {
  explicit World(const EngineOptions& options = {}, int nodes = 2,
                 int cpus = 2) {
    auto opened = RecordStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<ClusterSim>(&sim);
    for (int i = 0; i < nodes; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = cpus,
                                  .speed = 1.0}));
    }
    engine =
        std::make_unique<Engine>(&sim, cluster.get(), store.get(), &registry,
                                 options);
    // A generic activity: echoes parameter "x" into output "y" (plus 1 if
    // numeric), costs 10s.
    EXPECT_OK(registry.Register(
        "echo", [](const ActivityInput& in) -> Result<ActivityOutput> {
          ActivityOutput out;
          const Value& x = in.Get("x");
          out.fields["y"] = x.is_int() ? Value(x.AsInt() + 1)
                            : x.is_null() ? Value(1)
                                          : x;
          out.cost = Duration::Seconds(10);
          return out;
        }));
    // An activity that always fails.
    EXPECT_OK(registry.Register(
        "always_fail", [](const ActivityInput&) -> Result<ActivityOutput> {
          return Status::Internal("boom");
        }));
    // Fails until the third attempt.
    EXPECT_OK(registry.Register(
        "flaky", [this](const ActivityInput&) -> Result<ActivityOutput> {
          if (++flaky_calls < 3) return Status::Unavailable("flaky");
          ActivityOutput out;
          out.fields["ok"] = Value(true);
          return out;
        }));
    // The alternative implementation: always succeeds, tags its output.
    EXPECT_OK(registry.Register(
        "plan_b", [](const ActivityInput&) -> Result<ActivityOutput> {
          ActivityOutput out;
          out.fields["via"] = Value("plan_b");
          return out;
        }));
    EXPECT_OK(engine->Startup());
  }

  std::string Run(const ProcessDef& def, const Value::Map& args = {}) {
    EXPECT_OK(engine->RegisterTemplate(def));
    auto id = engine->StartProcess(def.name, args);
    EXPECT_TRUE(id.ok()) << id.status().ToString();
    sim.Run();
    return *id;
  }

  Value Wb(const std::string& id, const std::string& var) {
    auto v = engine->GetWhiteboardValue(id, var);
    return v.ok() ? *v : Value();
  }

  testing::TempDir dir;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<ClusterSim> cluster;
  ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
  int flaky_calls = 0;
};

ProcessDef Chain(const std::string& name, int n) {
  ProcessBuilder builder(name);
  builder.Data("x", Value(0));
  for (int i = 0; i < n; ++i) {
    builder.Task(TaskBuilder::Activity("t" + std::to_string(i), "echo")
                     .Input("wb.x", "in.x")
                     .Output("out.y", "wb.x"));
    if (i > 0) {
      builder.Connect("t" + std::to_string(i - 1), "t" + std::to_string(i));
    }
  }
  auto def = std::move(builder).Build();
  EXPECT_TRUE(def.ok());
  return std::move(*def);
}

TEST(NavigationTest, SequentialChainThreadsData) {
  World w;
  std::string id = w.Run(Chain("chain", 5));
  EXPECT_EQ(w.Wb(id, "x"), Value(5));
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(NavigationTest, IndependentTasksRunInParallel) {
  World w(EngineOptions(), /*nodes=*/3, /*cpus=*/2);
  ProcessBuilder builder("par");
  for (int i = 0; i < 6; ++i) {
    builder.Task(TaskBuilder::Activity("t" + std::to_string(i), "echo"));
  }
  auto def = std::move(builder).Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  // 6 x 10s tasks on 6 CPUs: the whole process takes ~10s, not 60.
  EXPECT_LT(summary.stats.WallTime().ToSeconds(), 15);
}

TEST(NavigationTest, ConditionalBranchTakesRightArm) {
  World w;
  auto def = ProcessBuilder("branch")
                 .Data("x", Value(5))
                 .Data("hi")
                 .Data("lo")
                 .Task(TaskBuilder::Activity("start", "echo")
                           .Input("wb.x", "in.x")
                           .Output("out.y", "wb.x"))
                 .Task(TaskBuilder::Activity("high", "echo")
                           .Output("out.y", "wb.hi"))
                 .Task(TaskBuilder::Activity("low", "echo")
                           .Output("out.y", "wb.lo"))
                 .Connect("start", "high", "wb.x > 3")
                 .Connect("start", "low", "wb.x <= 3")
                 .Build();
  std::string id = w.Run(*def);
  EXPECT_FALSE(w.Wb(id, "hi").is_null());
  EXPECT_TRUE(w.Wb(id, "lo").is_null());  // dead path
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(NavigationTest, DeadPathEliminationCascades) {
  // start -> a (false) -> b -> c: skipping a must cascade to b and c, and
  // the join task d (with connectors from start and c) still runs.
  World w;
  auto def = ProcessBuilder("cascade")
                 .Task(TaskBuilder::Activity("start", "echo"))
                 .Task(TaskBuilder::Activity("a", "echo"))
                 .Task(TaskBuilder::Activity("b", "echo"))
                 .Task(TaskBuilder::Activity("c", "echo"))
                 .Task(TaskBuilder::Activity("d", "echo"))
                 .Connect("start", "a", "false")
                 .Connect("a", "b")
                 .Connect("b", "c")
                 .Connect("start", "d")
                 .Connect("c", "d")
                 .Build();
  ASSERT_TRUE(def.ok()) << def.status().ToString();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  // Only start and d completed; a, b, c were skipped.
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  EXPECT_EQ(summary.tasks_done, 2u);
}

TEST(NavigationTest, JoinWaitsForAllIncoming) {
  World w(EngineOptions(), 3, 2);
  auto def = ProcessBuilder("join")
                 .Data("a_out")
                 .Data("b_out")
                 .Task(TaskBuilder::Activity("a", "echo")
                           .Output("out.y", "wb.a_out"))
                 .Task(TaskBuilder::Activity("b", "echo")
                           .Output("out.y", "wb.b_out"))
                 .Task(TaskBuilder::Activity("join", "echo")
                           .Input("wb.a_out", "in.x"))
                 .Connect("a", "join")
                 .Connect("b", "join")
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.stats.activities_completed, 3u);
  // join started only after both inputs: its whiteboard read saw a_out.
  EXPECT_FALSE(w.Wb(id, "a_out").is_null());
}

TEST(NavigationTest, BlocksScopeTheirChildren) {
  World w;
  auto def =
      ProcessBuilder("blocky")
          .Data("x", Value(0))
          .Task(TaskBuilder::Activity("pre", "echo")
                    .Input("wb.x", "in.x")
                    .Output("out.y", "wb.x"))
          .Task(TaskBuilder::Block("middle")
                    .Sub(TaskBuilder::Activity("m1", "echo")
                             .Input("wb.x", "in.x")
                             .Output("out.y", "wb.x"))
                    .Sub(TaskBuilder::Activity("m2", "echo")
                             .Input("wb.x", "in.x")
                             .Output("out.y", "wb.x"))
                    .Connect("m1", "m2"))
          .Task(TaskBuilder::Activity("post", "echo")
                    .Input("wb.x", "in.x")
                    .Output("out.y", "wb.x"))
          .Connect("pre", "middle")
          .Connect("middle", "post")
          .Build();
  std::string id = w.Run(*def);
  EXPECT_EQ(w.Wb(id, "x"), Value(4));  // pre, m1, m2, post each +1
}

TEST(NavigationTest, ParallelTaskExpandsAndCollects) {
  World w(EngineOptions(), 4, 2);
  auto def = ProcessBuilder("fan")
                 .Data("items", Value(Value::List{Value(10), Value(20),
                                                  Value(30)}))
                 .Data("results")
                 .Task(TaskBuilder::Parallel("fanout", "wb.items",
                                             TaskBuilder::Activity("body",
                                                                   "echo")
                                                 .Input("item", "in.x"))
                           .Collect("wb.results"))
                 .Build();
  std::string id = w.Run(*def);
  Value results = w.Wb(id, "results");
  ASSERT_TRUE(results.is_list());
  ASSERT_EQ(results.AsList().size(), 3u);
  // Body outputs collected in index order: y = item + 1.
  EXPECT_EQ(results.AsList()[0].AsMap().at("y"), Value(11));
  EXPECT_EQ(results.AsList()[1].AsMap().at("y"), Value(21));
  EXPECT_EQ(results.AsList()[2].AsMap().at("y"), Value(31));
}

TEST(NavigationTest, ParallelBodySeesIndex) {
  World w;
  ASSERT_OK(w.registry.Register(
      "index_echo", [](const ActivityInput& in) -> Result<ActivityOutput> {
        ActivityOutput out;
        out.fields["i"] = in.Get("idx");
        return out;
      }));
  auto def = ProcessBuilder("fan")
                 .Data("items", Value(Value::List{Value("a"), Value("b")}))
                 .Data("results")
                 .Task(TaskBuilder::Parallel(
                           "fanout", "wb.items",
                           TaskBuilder::Activity("body", "index_echo")
                               .Input("index", "in.idx"))
                           .Collect("wb.results"))
                 .Build();
  std::string id = w.Run(*def);
  Value results = w.Wb(id, "results");
  ASSERT_EQ(results.AsList().size(), 2u);
  EXPECT_EQ(results.AsList()[0].AsMap().at("i"), Value(0));
  EXPECT_EQ(results.AsList()[1].AsMap().at("i"), Value(1));
}

TEST(NavigationTest, EmptyParallelListCompletesImmediately) {
  World w;
  auto def = ProcessBuilder("fan")
                 .Data("items", Value(Value::List{}))
                 .Data("results")
                 .Task(TaskBuilder::Parallel("fanout", "wb.items",
                                             TaskBuilder::Activity("body",
                                                                   "echo"))
                           .Collect("wb.results"))
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  EXPECT_TRUE(w.Wb(id, "results").is_list());
  EXPECT_TRUE(w.Wb(id, "results").AsList().empty());
}

TEST(NavigationTest, NonListParallelInputFailsInstance) {
  World w;
  auto def = ProcessBuilder("fan")
                 .Data("items", Value(42))
                 .Task(TaskBuilder::Parallel("fanout", "wb.items",
                                             TaskBuilder::Activity("body",
                                                                   "echo")))
                 .Build();
  ASSERT_TRUE(def.ok());
  EXPECT_OK(w.engine->RegisterTemplate(*def));
  auto id = w.engine->StartProcess("fan");
  // The expansion error surfaces at StartProcess time (the parallel task
  // is a start task here).
  EXPECT_FALSE(id.ok());
}

TEST(NavigationTest, SubprocessMapsInputsAndOutputs) {
  World w;
  auto sub = ProcessBuilder("subproc")
                 .Data("input", Value(0))
                 .Data("output")
                 .Task(TaskBuilder::Activity("work", "echo")
                           .Input("wb.input", "in.x")
                           .Output("out.y", "wb.output"))
                 .Build();
  ASSERT_TRUE(sub.ok());
  EXPECT_OK(w.engine->RegisterTemplate(*sub));
  auto def = ProcessBuilder("parent")
                 .Data("x", Value(41))
                 .Data("result")
                 .Task(TaskBuilder::Subprocess("child", "subproc")
                           .Input("wb.x", "in.input")
                           .Output("out.output", "wb.result"))
                 .Build();
  std::string id = w.Run(*def);
  EXPECT_EQ(w.Wb(id, "result"), Value(42));
}

TEST(NavigationTest, SubprocessLateBindingUsesLatestTemplate) {
  World w;
  auto sub_v1 = ProcessBuilder("late")
                    .Data("output")
                    .Task(TaskBuilder::Activity("work", "echo")
                              .Output("out.y", "wb.output"))
                    .Build();
  EXPECT_OK(w.engine->RegisterTemplate(*sub_v1));
  auto def = ProcessBuilder("parent")
                 .Data("result")
                 .Task(TaskBuilder::Activity("first", "echo"))
                 .Task(TaskBuilder::Subprocess("child", "late")
                           .Output("out.output", "wb.result"))
                 .Connect("first", "child")
                 .Build();
  EXPECT_OK(w.engine->RegisterTemplate(*def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("parent"));
  // While `first` runs, upgrade the subprocess definition: the child
  // late-binds to the NEW version when it activates.
  auto sub_v2 = ProcessBuilder("late")
                    .Data("output")
                    .Task(TaskBuilder::Activity("work", "plan_b")
                              .Output("out.via", "wb.output"))
                    .Build();
  EXPECT_OK(w.engine->RegisterTemplate(*sub_v2));
  w.sim.Run();
  EXPECT_EQ(w.Wb(id, "result"), Value("plan_b"));
}

TEST(FailureTest, RetriesUntilSuccess) {
  World w;
  auto def = ProcessBuilder("retrying")
                 .Data("ok")
                 .Task(TaskBuilder::Activity("t", "flaky")
                           .Output("out.ok", "wb.ok")
                           .Retry(5, Duration::Seconds(30)))
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  EXPECT_EQ(w.Wb(id, "ok"), Value(true));
  EXPECT_EQ(summary.stats.activities_failed, 2u);
  EXPECT_EQ(w.flaky_calls, 3);
}

TEST(FailureTest, ExhaustedRetriesFailInstance) {
  World w;
  auto def = ProcessBuilder("doomed")
                 .Task(TaskBuilder::Activity("t", "always_fail")
                           .Retry(2, Duration::Seconds(5)))
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kFailed);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.tasks_failed, 1u);
  EXPECT_EQ(summary.stats.activities_failed, 3u);  // initial + 2 retries
}

TEST(FailureTest, AlternativeBindingUsedOnRetry) {
  World w;
  auto def = ProcessBuilder("alternative")
                 .Data("via")
                 .Task(TaskBuilder::Activity("t", "always_fail")
                           .Output("out.via", "wb.via")
                           .Retry(3, Duration::Seconds(5))
                           .Alternative("plan_b"))
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  EXPECT_EQ(w.Wb(id, "via"), Value("plan_b"));
}

TEST(FailureTest, IgnoreFailureCompletesWithEmptyOutputs) {
  World w;
  auto def = ProcessBuilder("tolerant")
                 .Data("via")
                 .Task(TaskBuilder::Activity("t", "always_fail")
                           .Output("out.via", "wb.via")
                           .Retry(0, Duration::Seconds(1))
                           .IgnoreFailure())
                 .Task(TaskBuilder::Activity("after", "echo"))
                 .Connect("t", "after")
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kDone);
  EXPECT_TRUE(w.Wb(id, "via").is_null());
  EXPECT_EQ(summary.stats.activities_completed, 2u);  // t (absorbed) + after
}

TEST(FailureTest, FailedBranchSkipsDownstreamButSiblingsComplete) {
  World w;
  auto def = ProcessBuilder("split")
                 .Data("good")
                 .Task(TaskBuilder::Activity("bad", "always_fail")
                           .Retry(0, Duration::Seconds(1)))
                 .Task(TaskBuilder::Activity("bad_next", "echo"))
                 .Task(TaskBuilder::Activity("fine", "echo")
                           .Output("out.y", "wb.good"))
                 .Connect("bad", "bad_next")
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kFailed);
  EXPECT_FALSE(w.Wb(id, "good").is_null());  // independent branch finished
}

TEST(FailureTest, StorageFailureThenRestartRecovers) {
  World w;
  auto def = Chain("storage", 3);
  EXPECT_OK(w.engine->RegisterTemplate(def));
  // The activity's own output disk is full: every execution fails with
  // IOError until space is freed, exhausting the retries.
  ASSERT_OK_AND_ASSIGN(ActivityFn echo, w.registry.Find("echo"));
  w.registry.Override("echo",
                      [](const ActivityInput&) -> Result<ActivityOutput> {
                        return Status::IOError(
                            "storage full: cannot write activity results");
                      });
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("storage"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kFailed);
  w.registry.Override("echo", echo);
  ASSERT_OK(w.engine->Restart(id));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  EXPECT_EQ(w.Wb(id, "x"), Value(3));
}

TEST(ControlTest, SuspendHoldsNewDispatchesAndResumeContinues) {
  World w(EngineOptions(), 1, 1);
  auto def = Chain("suspendable", 4);  // 4 x 10s serial
  EXPECT_OK(w.engine->RegisterTemplate(def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("suspendable"));
  w.sim.RunFor(Duration::Seconds(15));  // t0 done, t1 running
  ASSERT_OK(w.engine->Suspend(id));
  w.sim.RunFor(Duration::Hours(1));
  // The running activity finished (paper: ongoing jobs finish) but no new
  // one was dispatched.
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, InstanceState::kSuspended);
  EXPECT_EQ(summary.stats.activities_completed, 2u);
  EXPECT_EQ(summary.tasks_running, 0u);
  ASSERT_OK(w.engine->Resume(id));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  // Double resume is an error.
  EXPECT_TRUE(w.engine->Resume(id).code() ==
              StatusCode::kFailedPrecondition);
}

TEST(ControlTest, AbortKillsJobs) {
  World w;
  auto def = Chain("abortable", 3);
  EXPECT_OK(w.engine->RegisterTemplate(def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("abortable"));
  w.sim.RunFor(Duration::Seconds(5));
  EXPECT_EQ(w.cluster->NumRunningJobs(), 1u);
  ASSERT_OK(w.engine->Abort(id));
  EXPECT_EQ(w.cluster->NumRunningJobs(), 0u);
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kAborted);
}

TEST(ControlTest, PriorityDispatchedFirst) {
  World w(EngineOptions(), 1, 1);  // a single CPU serializes everything
  auto def = Chain("prio", 1);
  EXPECT_OK(w.engine->RegisterTemplate(def));
  // Fill the CPU with a background instance first.
  ASSERT_OK_AND_ASSIGN(std::string low1,
                       w.engine->StartProcess("prio", {}, 0));
  ASSERT_OK_AND_ASSIGN(std::string low2,
                       w.engine->StartProcess("prio", {}, 0));
  ASSERT_OK_AND_ASSIGN(std::string high,
                       w.engine->StartProcess("prio", {}, 5));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto s_high, w.engine->Summary(high));
  ASSERT_OK_AND_ASSIGN(auto s_low2, w.engine->Summary(low2));
  // The high-priority instance finished before the second low one.
  EXPECT_LT(s_high.stats.finished.micros(), s_low2.stats.finished.micros());
}

TEST(ControlTest, HistoryAndLineageRecorded) {
  World w;
  std::string id = w.Run(Chain("audited", 2));
  auto history = w.engine->GetHistory(id);
  EXPECT_GE(history.size(), 4u);  // started, dispatches, completed
  bool saw_completed = false;
  for (const auto& line : history) {
    if (line.find("completed") != std::string::npos) saw_completed = true;
  }
  EXPECT_TRUE(saw_completed);
  ASSERT_OK_AND_ASSIGN(std::string writer, w.engine->GetLineage(id, "x"));
  EXPECT_EQ(writer, "t1");  // the last task to write wb.x
}

TEST(ControlTest, UnknownInstanceErrors) {
  World w;
  EXPECT_TRUE(w.engine->Suspend("nope").IsNotFound());
  EXPECT_TRUE(w.engine->Resume("nope").IsNotFound());
  EXPECT_TRUE(w.engine->Abort("nope").IsNotFound());
  EXPECT_TRUE(w.engine->Restart("nope").IsNotFound());
  EXPECT_TRUE(w.engine->Summary("nope").status().IsNotFound());
}

TEST(ControlTest, UnknownTemplateErrors) {
  World w;
  EXPECT_TRUE(w.engine->StartProcess("ghost").status().IsNotFound());
}

TEST(ControlTest, UnknownBindingFailsTask) {
  World w;
  auto def = ProcessBuilder("nobind")
                 .Task(TaskBuilder::Activity("t", "no.such.binding")
                           .Retry(0, Duration::Seconds(1)))
                 .Build();
  std::string id = w.Run(*def);
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kFailed);
}

TEST(NavigationTest, UnknownSubprocessTemplateFailsCleanly) {
  World w;
  auto def = ProcessBuilder("orphan")
                 .Task(TaskBuilder::Activity("first", "echo"))
                 .Task(TaskBuilder::Subprocess("child", "no_such_template"))
                 .Connect("first", "child")
                 .Build();
  ASSERT_TRUE(def.ok());
  EXPECT_OK(w.engine->RegisterTemplate(*def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("orphan"));
  w.sim.Run();
  // Expansion of the subprocess fails at activation; the completion path
  // surfaces the error and the instance is marked failed, not wedged.
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kFailed);
}

TEST(NavigationTest, ConfigSpaceRecordsTopology) {
  World w;
  // Node configurations were written to the configuration space at
  // startup (paper Fig. 2: the configuration space).
  std::string id = w.Run(Chain("cfg", 1));
  (void)id;
  Spaces spaces(w.store.get());
  auto rows = spaces.ScanConfig();
  int nodes_recorded = 0;
  for (const auto& [key, value] : rows) {
    if (key.rfind("node/", 0) == 0) ++nodes_recorded;
  }
  EXPECT_EQ(nodes_recorded, 2);
}

TEST(NavigationTest, RunningJobRowsAreConsistent) {
  World w(EngineOptions(), 2, 1);
  auto def = Chain("rows", 1);
  EXPECT_OK(w.engine->RegisterTemplate(def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rows"));
  w.sim.RunFor(Duration::Seconds(2));
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  EXPECT_EQ(jobs[0].instance_id, id);
  EXPECT_EQ(jobs[0].path, "t0");
  EXPECT_EQ(jobs[0].cost, Duration::Seconds(10));
  ASSERT_OK_AND_ASSIGN(std::string node, w.cluster->JobNode(jobs[0].job));
  EXPECT_EQ(node, jobs[0].node);
  w.sim.Run();
  EXPECT_TRUE(w.engine->GetRunningJobs().empty());
}

TEST(PlannerTest, ReportsAffectedJobsAndStalls) {
  World w(EngineOptions(), 2, 1);
  // Replace the default nodes with explicitly-classed ones: a node with an
  // empty class list serves ANY class, so dedicated placement requires
  // every node to declare its classes.
  ASSERT_OK(w.cluster->RemoveNode("node0"));
  ASSERT_OK(w.cluster->RemoveNode("node1"));
  ASSERT_OK(w.cluster->AddNode({.name = "general0",
                                .num_cpus = 1,
                                .speed = 1.0,
                                .resource_classes = "general"}));
  ASSERT_OK(w.cluster->AddNode({.name = "general1",
                                .num_cpus = 1,
                                .speed = 1.0,
                                .resource_classes = "general"}));
  ASSERT_OK(w.cluster->AddNode(
      {.name = "special", .num_cpus = 1, .speed = 1.0,
       .resource_classes = "special"}));
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  auto def = ProcessBuilder("mixed")
                 .Task(TaskBuilder::Activity("generic", "echo"))
                 .Task(TaskBuilder::Activity("special_task", "echo")
                           .ResourceClass("special"))
                 .Connect("generic", "special_task")
                 .Build();
  ASSERT_TRUE(def.ok());
  EXPECT_OK(w.engine->RegisterTemplate(*def));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("mixed"));
  w.sim.RunFor(Duration::Seconds(2));  // generic is running somewhere

  OutagePlanner planner(w.engine.get());
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_EQ(jobs.size(), 1u);
  // Plan A: take the node running `generic` offline.
  OutagePlan plan = planner.Plan({jobs[0].node});
  ASSERT_EQ(plan.affected_jobs.size(), 1u);
  EXPECT_EQ(plan.affected_jobs[0].path, "generic");
  EXPECT_FALSE(plan.affected_jobs[0].replacement_node.empty());
  // Plan B: take the special node offline -> the instance stalls.
  OutagePlan plan_b = planner.Plan({"special"});
  bool found_stall = false;
  for (const auto& inst : plan_b.affected_instances) {
    if (inst.instance_id == id && inst.stalls) found_stall = true;
  }
  EXPECT_TRUE(found_stall);
  EXPECT_FALSE(plan_b.ToReport().empty());
  // Sanity: the report renders.
  EXPECT_NE(plan_b.ToReport().find("STALLS"), std::string::npos);
}

}  // namespace
}  // namespace biopera::core
