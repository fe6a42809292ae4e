// Recovery properties of the engine: a server crash at ANY point of the
// execution, followed by Startup(), must resume the process and produce
// the same final result — the paper's central dependability claim.
#include <gtest/gtest.h>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/codec.h"
#include "store/record_store.h"
#include "tests/test_util.h"
#include "workloads/allvsall.h"

namespace biopera::core {
namespace {

using cluster::ClusterSim;
using ocr::ProcessBuilder;
using ocr::ProcessDef;
using ocr::TaskBuilder;
using ocr::Value;

struct World {
  explicit World(const std::string& store_dir,
                 const EngineOptions& options = {}) {
    auto opened = RecordStore::Open(store_dir);
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<ClusterSim>(&sim);
    for (int i = 0; i < 3; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 2,
                                  .speed = 1.0}));
    }
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
    EXPECT_OK(registry.Register(
        "step", [](const ActivityInput& in) -> Result<ActivityOutput> {
          ActivityOutput out;
          const Value& x = in.Get("x");
          out.fields["y"] = x.is_int() ? Value(x.AsInt() + 1) : Value(1);
          out.cost = Duration::Seconds(20);
          return out;
        }));
    EXPECT_OK(registry.Register(
        "sum", [](const ActivityInput& in) -> Result<ActivityOutput> {
          int64_t total = 0;
          const Value& items = in.Get("items");
          if (items.is_list()) {
            for (const Value& v : items.AsList()) {
              if (v.is_map() && v.AsMap().contains("y")) {
                total += v.AsMap().at("y").AsInt();
              }
            }
          }
          ActivityOutput out;
          out.fields["total"] = Value(total);
          out.cost = Duration::Seconds(5);
          return out;
        }));
  }

  testing::TempDir dir;  // unused when an external dir is supplied
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<ClusterSim> cluster;
  ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

/// A process exercising every construct: branch, block, parallel with
/// subprocess bodies, join. Deterministic final value. The top-level
/// template is registered as `main_name`.
void RegisterComplexTemplates(Engine* engine,
                              const std::string& main_name = "rec_main") {
  auto sub = ProcessBuilder("rec_sub")
                 .Data("seed", Value(0))
                 .Data("y")
                 .Task(TaskBuilder::Activity("w1", "step")
                           .Input("wb.seed", "in.x")
                           .Output("out.y", "wb.y"))
                 .Task(TaskBuilder::Activity("w2", "step")
                           .Input("wb.y", "in.x")
                           .Output("out.y", "wb.y"))
                 .Connect("w1", "w2")
                 .Build();
  ASSERT_OK(sub.status());
  ASSERT_OK(engine->RegisterTemplate(*sub));

  auto def =
      ProcessBuilder(main_name)
          .Data("x", Value(0))
          .Data("items",
                Value(Value::List{Value(1), Value(2), Value(3), Value(4)}))
          .Data("results")
          .Data("total")
          .Task(TaskBuilder::Activity("init", "step")
                    .Input("wb.x", "in.x")
                    .Output("out.y", "wb.x"))
          .Task(TaskBuilder::Activity("never", "step"))
          .Task(TaskBuilder::Block("prep")
                    .Sub(TaskBuilder::Activity("p1", "step")
                             .Input("wb.x", "in.x")
                             .Output("out.y", "wb.x"))
                    .Sub(TaskBuilder::Activity("p2", "step")
                             .Input("wb.x", "in.x")
                             .Output("out.y", "wb.x"))
                    .Connect("p1", "p2"))
          .Task(TaskBuilder::Parallel("fan", "wb.items",
                                      TaskBuilder::Subprocess("body",
                                                              "rec_sub")
                                          .Input("item", "in.seed"))
                    .Collect("wb.results"))
          .Task(TaskBuilder::Activity("merge", "sum")
                    .Input("wb.results", "in.items")
                    .Output("out.total", "wb.total"))
          .Connect("init", "never", "wb.x > 100")
          .Connect("init", "prep", "wb.x <= 100")
          .Connect("prep", "fan")
          .Connect("fan", "merge")
          .Build();
  ASSERT_OK(def.status());
  ASSERT_OK(engine->RegisterTemplate(*def));
}

// Expected: items {1,2,3,4} -> body y = seed+2 -> total = (3+4+5+6) = 18.
constexpr int64_t kExpectedTotal = 18;

TEST(RecoveryTest, BaselineWithoutCrash) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal));
}

/// Property sweep: crash the server after k virtual minutes for many k;
/// every run must still converge to the same total.
class CrashSweep : public ::testing::TestWithParam<int> {};

TEST_P(CrashSweep, CrashAtMinuteThenRecoverAndFinish) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));

  w.sim.RunFor(Duration::Seconds(GetParam() * 30));
  w.engine->Crash();
  w.sim.RunFor(Duration::Minutes(5));
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone) << "crash at " << GetParam();
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal)) << "crash at " << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Offsets, CrashSweep,
                         ::testing::Range(0, 14));  // 0..6.5 minutes

TEST(RecoveryTest, DoubleCrashStillRecovers) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));
  for (int k = 0; k < 2; ++k) {
    w.sim.RunFor(Duration::Seconds(45));
    w.engine->Crash();
    w.sim.RunFor(Duration::Minutes(1));
    ASSERT_OK(w.engine->Startup());
  }
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal));
}

TEST(RecoveryTest, RecoveryAcrossEngineObjects) {
  // Recovery works from a brand-new Engine over the same store (full
  // process restart, not just in-memory reset).
  testing::TempDir dir;
  std::string id;
  {
    World w(dir.path());
    ASSERT_OK(w.engine->Startup());
    RegisterComplexTemplates(w.engine.get());
    ASSERT_OK_AND_ASSIGN(id, w.engine->StartProcess("rec_main"));
    w.sim.RunFor(Duration::Seconds(70));
    w.engine->Crash();  // also kills cluster jobs
  }
  {
    World w(dir.path());
    ASSERT_OK(w.engine->Startup());
    w.sim.Run();
    ASSERT_OK_AND_ASSIGN(Value total,
                         w.engine->GetWhiteboardValue(id, "total"));
    EXPECT_EQ(total, Value(kExpectedTotal));
  }
}

TEST(RecoveryTest, CheckpointedStoreRecoversIdentically) {
  testing::TempDir dir;
  EngineOptions options;
  options.checkpoint_every_commits = 3;  // aggressive checkpointing
  std::string id;
  {
    World w(dir.path(), options);
    ASSERT_OK(w.engine->Startup());
    RegisterComplexTemplates(w.engine.get());
    ASSERT_OK_AND_ASSIGN(id, w.engine->StartProcess("rec_main"));
    w.sim.RunFor(Duration::Seconds(90));
  }  // hard stop: no Crash() call, the store simply goes away mid-flight
  {
    World w(dir.path(), options);
    ASSERT_OK(w.engine->Startup());
    w.sim.Run();
    ASSERT_OK_AND_ASSIGN(Value total,
                         w.engine->GetWhiteboardValue(id, "total"));
    EXPECT_EQ(total, Value(kExpectedTotal));
  }
}

TEST(RecoveryTest, SuspendedInstanceStaysSuspendedAfterRecovery) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));
  w.sim.RunFor(Duration::Seconds(30));
  ASSERT_OK(w.engine->Suspend(id));
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kSuspended);
  // Resume completes it.
  ASSERT_OK(w.engine->Resume(id));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal));
}

TEST(RecoveryTest, CompletedInstancesQueryableAfterRecovery) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));
  w.sim.Run();
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal));
  // Lineage survives too.
  ASSERT_OK_AND_ASSIGN(std::string writer, w.engine->GetLineage(id, "total"));
  EXPECT_EQ(writer, "merge");
}

TEST(RecoveryTest, MultipleConcurrentInstancesAllRecover) {
  // Fifty instances of two templates whose names share a prefix, so their
  // records sit side by side in the instance space. Started ten seconds
  // apart on six CPUs, the early ones are done at the crash and the later
  // ones are queued or mid-run.
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  RegisterComplexTemplates(w.engine.get(), "rec_main2");
  std::vector<std::string> ids;
  for (int i = 0; i < 50; ++i) {
    ASSERT_OK_AND_ASSIGN(std::string id,
                         w.engine->StartProcess(i % 2 == 0 ? "rec_main"
                                                           : "rec_main2"));
    ids.push_back(id);
    w.sim.RunFor(Duration::Seconds(10));
  }
  std::map<std::string, InstanceSummary> done;
  for (const std::string& id : ids) {
    ASSERT_OK_AND_ASSIGN(InstanceSummary summary, w.engine->Summary(id));
    if (summary.state == InstanceState::kDone) done[id] = summary;
  }
  ASSERT_FALSE(done.empty());
  ASSERT_LT(done.size(), ids.size());

  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  for (const auto& [id, before] : done) {
    ASSERT_OK_AND_ASSIGN(InstanceSummary after, w.engine->Summary(id));
    EXPECT_EQ(after.template_name, before.template_name) << id;
    EXPECT_EQ(after.state, InstanceState::kDone) << id;
    EXPECT_EQ(after.stats.cpu_seconds, before.stats.cpu_seconds) << id;
    EXPECT_EQ(after.stats.activities_completed,
              before.stats.activities_completed)
        << id;
    EXPECT_EQ(after.stats.activities_failed, before.stats.activities_failed)
        << id;
    EXPECT_EQ(after.stats.started, before.stats.started) << id;
    EXPECT_EQ(after.stats.finished, before.stats.finished) << id;
    EXPECT_EQ(after.tasks_total, before.tasks_total) << id;
    EXPECT_EQ(after.tasks_done, before.tasks_done) << id;
    EXPECT_EQ(after.tasks_failed, before.tasks_failed) << id;
  }
  w.sim.Run();
  for (const std::string& id : ids) {
    ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
    EXPECT_EQ(state, InstanceState::kDone) << id;
    ASSERT_OK_AND_ASSIGN(Value total,
                         w.engine->GetWhiteboardValue(id, "total"));
    EXPECT_EQ(total, Value(kExpectedTotal)) << id;
  }
}

TEST(RecoveryTest, FailedStartupLeavesTheServerDown) {
  // A row that does not decode fails Startup as a whole: the server stays
  // down with no instance in memory and no span of the attempt left open,
  // and once the row is repaired the next Startup recovers everything.
  testing::TempDir dir;
  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  World w(dir.path(), options);
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string first, w.engine->StartProcess("rec_main"));
  ASSERT_OK_AND_ASSIGN(std::string second,
                       w.engine->StartProcess("rec_main"));
  w.sim.RunFor(Duration::Seconds(70));
  w.engine->Crash();

  // The second instance's row breaks; the first (earlier in key order)
  // recovers and queues its work before the second fails.
  const std::string key = second + "/task/init";
  ASSERT_OK_AND_ASSIGN(std::string row, w.store->Get("instance", key));
  ASSERT_OK(w.store->Put("instance", key,
                         EncodeValueRecord(Value("not a map"))));
  Status st = w.engine->Startup();
  EXPECT_TRUE(st.IsCorruption()) << st.ToString();
  EXPECT_NE(st.message().find("task/init"), std::string::npos) << st.message();
  EXPECT_NE(st.message().find(second), std::string::npos) << st.message();
  EXPECT_FALSE(w.engine->IsUp());
  EXPECT_TRUE(w.engine->ListInstances().empty());
  size_t open_work = 0;
  size_t open_down = 0;
  obs.spans.ForEach([&](const obs::Span& span) {
    if (!span.open) return;
    if (span.kind == obs::SpanKind::kAttempt ||
        span.kind == obs::SpanKind::kRecovery ||
        span.kind == obs::SpanKind::kJob) {
      ++open_work;
    }
    if (span.kind == obs::SpanKind::kServerDown) ++open_down;
  });
  EXPECT_EQ(open_work, 0u);
  EXPECT_EQ(open_down, 1u);  // the server is still down

  ASSERT_OK(w.store->Put("instance", key, row));
  ASSERT_OK(w.engine->Startup());
  EXPECT_EQ(w.engine->ListInstances().size(), 2u);
  w.sim.Run();
  for (const std::string& id : {first, second}) {
    ASSERT_OK_AND_ASSIGN(Value total,
                         w.engine->GetWhiteboardValue(id, "total"));
    EXPECT_EQ(total, Value(kExpectedTotal)) << id;
  }
}

TEST(RecoveryTest, InstanceIdsDoNotCollideAfterRecovery) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id1, w.engine->StartProcess("rec_main"));
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK_AND_ASSIGN(std::string id2, w.engine->StartProcess("rec_main"));
  EXPECT_NE(id1, id2);
}

TEST(RecoveryTest, StaleCompletionReportsIgnoredAfterRecovery) {
  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(w.engine->Startup());
  RegisterComplexTemplates(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("rec_main"));
  w.sim.RunFor(Duration::Seconds(10));
  // Disconnect a node holding a job so its completion report is queued,
  // then crash the server. On reconnect the stale report must be dropped
  // (the recovered engine re-dispatched the work under new job ids).
  auto jobs = w.engine->GetRunningJobs();
  ASSERT_FALSE(jobs.empty());
  std::string node = jobs[0].node;
  ASSERT_OK(w.cluster->SetConnected(node, false));
  w.sim.RunFor(Duration::Seconds(60));  // job completes; report queued
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.cluster->SetConnected(node, true));  // stale report delivered
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Value total, w.engine->GetWhiteboardValue(id, "total"));
  EXPECT_EQ(total, Value(kExpectedTotal));
}

TEST(RecoveryTest, RetryBackoffHoldsAcrossAQuickRestart) {
  // An activity that always fails (1 run + 4 retries) waits out its
  // backoff between attempts. A crash 10 minutes in drops the pending
  // retry; recovery re-readies the task at once (20 min), and from then on
  // one backoff chain runs: the timer armed before the crash must not fire
  // into the new incarnation and cut the next failure's backoff short.
  testing::TempDir dir;
  World w(dir.path());
  const TimePoint start = w.sim.Now();
  std::vector<int64_t> runs;  // minutes since start
  ASSERT_OK(w.registry.Register(
      "always_fail", [&](const ActivityInput&) -> Result<ActivityOutput> {
        runs.push_back((w.sim.Now() - start).micros() / 60'000'000);
        return Status::Internal("boom");
      }));
  ASSERT_OK(w.engine->Startup());
  auto def = ProcessBuilder("flaky")
                 .Task(TaskBuilder::Activity("a", "always_fail")
                           .Retry(4, Duration::Hours(1)))
                 .Build();
  ASSERT_OK(def.status());
  ASSERT_OK(w.engine->RegisterTemplate(*def));
  ASSERT_OK(w.engine->StartProcess("flaky").status());
  w.sim.RunUntil(start + Duration::Minutes(10));
  w.engine->Crash();
  w.sim.RunUntil(start + Duration::Minutes(20));
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  EXPECT_EQ(runs, (std::vector<int64_t>{0, 20, 80, 140, 200}));
}

TEST(RecoveryTest, SyntheticAllVsAllCrashEveryFewMinutes) {
  // Chaos run: crash the server every 3 simulated minutes during a small
  // synthetic all-vs-all; the result must match the failure-free run.
  Rng rng(5);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 80;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeSyntheticContext(data);
  ctx->background_match_rate = 0;
  uint64_t expected = ctx->SyntheticMatchCount(0, 80);

  testing::TempDir dir;
  World w(dir.path());
  ASSERT_OK(workloads::RegisterAllVsAllActivities(&w.registry, ctx));
  ASSERT_OK(w.engine->Startup());
  ASSERT_OK(w.engine->RegisterTemplate(workloads::BuildAllVsAllProcess()));
  ASSERT_OK(
      w.engine->RegisterTemplate(workloads::BuildAlignPartitionProcess()));
  Value::Map args;
  args["db_name"] = Value("chaos80");
  args["num_teus"] = Value(6);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("all_vs_all", args));
  for (int k = 0; k < 12; ++k) {
    w.sim.RunFor(Duration::Minutes(3));
    auto state = w.engine->GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kDone) break;
    w.engine->Crash();
    w.sim.RunFor(Duration::Minutes(1));
    ASSERT_OK(w.engine->Startup());
  }
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value total,
                       w.engine->GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), expected);
}

}  // namespace
}  // namespace biopera::core
