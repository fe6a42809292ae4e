// Tests for Engine::Invalidate (recompute-on-change), archiving, the
// engine's instance state-change reports, and the admin console.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/console.h"
#include "core/engine.h"
#include "obs/trace.h"
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
  explicit World(obs::Observability* obs = nullptr) {
    auto opened = RecordStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < 2; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 2,
                                  .speed = 1.0}));
    }
    EngineOptions options;
    options.observability = obs;
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
    // "algorithm": versioned implementation — Override() models upgrading
    // the analysis software between runs.
    EXPECT_OK(registry.Register(
        "algorithm", [this](const ActivityInput& in) -> Result<ActivityOutput> {
          ActivityOutput out;
          int64_t x = in.Get("x").is_int() ? in.Get("x").AsInt() : 0;
          out.fields["y"] = Value(x + version);
          out.cost = Duration::Seconds(10);
          return out;
        }));
    EXPECT_OK(registry.Register(
        "double_it", [](const ActivityInput& in) -> Result<ActivityOutput> {
          ActivityOutput out;
          out.fields["y"] = Value(in.Get("x").AsInt() * 2);
          out.cost = Duration::Seconds(10);
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
  int64_t version = 1;
};

/// source -> analyze -> report (a chain whose middle step's algorithm
/// changes); plus an independent side branch.
ocr::ProcessDef Pipeline() {
  auto def = ProcessBuilder("pipeline")
                 .Data("raw", Value(100))
                 .Data("analyzed")
                 .Data("report")
                 .Data("side")
                 .Task(TaskBuilder::Activity("source", "algorithm")
                           .Input("wb.raw", "in.x")
                           .Output("out.y", "wb.raw"))
                 .Task(TaskBuilder::Activity("analyze", "algorithm")
                           .Input("wb.raw", "in.x")
                           .Output("out.y", "wb.analyzed"))
                 .Task(TaskBuilder::Activity("report", "double_it")
                           .Input("wb.analyzed", "in.x")
                           .Output("out.y", "wb.report"))
                 .Task(TaskBuilder::Activity("independent", "algorithm")
                           .Output("out.y", "wb.side"))
                 .Connect("source", "analyze")
                 .Connect("analyze", "report")
                 .Build();
  EXPECT_TRUE(def.ok());
  return std::move(*def);
}

TEST(InvalidateTest, RecomputesDownstreamWithUpgradedAlgorithm) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  // v1: source 100+1=101 -> analyze 102 -> report 204.
  ASSERT_OK_AND_ASSIGN(Value report, w.engine->GetWhiteboardValue(id, "report"));
  EXPECT_EQ(report, Value(204));
  ASSERT_OK_AND_ASSIGN(auto done, w.engine->GetInstanceState(id));
  EXPECT_EQ(done, InstanceState::kDone);

  // The analysis algorithm is upgraded; only analyze+report recompute.
  w.version = 5;
  ASSERT_OK(w.engine->Invalidate(id, "analyze"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(report, w.engine->GetWhiteboardValue(id, "report"));
  // source kept its checkpointed 101 (still v1!); analyze = 101+5 = 106;
  // report = 212.
  EXPECT_EQ(report, Value(212));
  ASSERT_OK_AND_ASSIGN(Value raw, w.engine->GetWhiteboardValue(id, "raw"));
  EXPECT_EQ(raw, Value(101));  // upstream untouched
  ASSERT_OK_AND_ASSIGN(done, w.engine->GetInstanceState(id));
  EXPECT_EQ(done, InstanceState::kDone);
}

TEST(InvalidateTest, IndependentBranchesUntouched) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto before, w.engine->Summary(id));
  uint64_t completed_before = before.stats.activities_completed;
  ASSERT_OK(w.engine->Invalidate(id, "report"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto after, w.engine->Summary(id));
  // Only `report` re-ran.
  EXPECT_EQ(after.stats.activities_completed, completed_before + 1);
}

TEST(InvalidateTest, ErrorsOnBadArguments) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  EXPECT_TRUE(w.engine->Invalidate("ghost", "analyze").IsNotFound());
  EXPECT_TRUE(w.engine->Invalidate(id, "ghost_task").IsNotFound());
}

TEST(InvalidateTest, SurvivesCrashMidRecompute) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  w.version = 7;
  ASSERT_OK(w.engine->Invalidate(id, "analyze"));
  w.sim.RunFor(Duration::Seconds(3));  // analyze re-running
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(Value report, w.engine->GetWhiteboardValue(id, "report"));
  EXPECT_EQ(report, Value((101 + 7) * 2));
}

// --- AdminConsole ----------------------------------------------------------------

TEST(ConsoleTest, ListsAndStatus) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  AdminConsole console(w.engine.get());

  ASSERT_OK_AND_ASSIGN(std::string templates, console.Execute("TEMPLATES"));
  EXPECT_NE(templates.find("pipeline"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string instances, console.Execute("instances"));
  EXPECT_NE(instances.find(id), std::string::npos);
  EXPECT_NE(instances.find("Done"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string status,
                       console.Execute("STATUS " + id));
  EXPECT_NE(status.find("state: Done"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string wb, console.Execute("WB " + id + " report"));
  EXPECT_EQ(wb, "204\n");

  ASSERT_OK_AND_ASSIGN(std::string lineage,
                       console.Execute("LINEAGE " + id + " report"));
  EXPECT_NE(lineage.find("written by report"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string history,
                       console.Execute("HISTORY " + id + " 3"));
  EXPECT_NE(history.find("completed"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string nodes, console.Execute("NODES"));
  EXPECT_NE(nodes.find("node0"), std::string::npos);
}

TEST(ConsoleTest, ControlCommands) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  AdminConsole console(w.engine.get());
  ASSERT_OK(console.Execute("SUSPEND " + id).status());
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kSuspended);
  ASSERT_OK(console.Execute("RESUME " + id).status());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
  // Invalidate through the console.
  ASSERT_OK(console.Execute("INVALIDATE " + id + " report").status());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, InstanceState::kDone);
}

TEST(ConsoleTest, JobsAndWhatIf) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.RunFor(Duration::Seconds(2));  // source + independent running
  AdminConsole console(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string jobs, console.Execute("JOBS"));
  EXPECT_NE(jobs.find(id), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::string plan, console.Execute("WHATIF node0"));
  EXPECT_NE(plan.find("Outage plan"), std::string::npos);
  w.sim.Run();
}

TEST(ArchiveTest, RemovesTerminalInstancesOnly) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  // Still running: refused.
  EXPECT_EQ(w.engine->Archive(id).code(), StatusCode::kFailedPrecondition);
  w.sim.Run();
  ASSERT_OK(w.engine->Archive(id));
  EXPECT_TRUE(w.engine->Summary(id).status().IsNotFound());
  // History survives archiving.
  auto history = w.engine->GetHistory(id);
  EXPECT_FALSE(history.empty());
  EXPECT_NE(history.back().find("archived"), std::string::npos);
  // And the instance does not come back after a server restart.
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  EXPECT_TRUE(w.engine->Summary(id).status().IsNotFound());
  EXPECT_TRUE(w.engine->Archive("ghost").IsNotFound());
}

TEST(StateChangesTest, ReportsStateWritesAndDroppedInstances) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string a, w.engine->StartProcess("pipeline"));
  ASSERT_OK_AND_ASSIGN(std::string b, w.engine->StartProcess("pipeline"));
  using Ids = std::vector<std::string>;
  ASSERT_OK(w.engine->Suspend(a));
  ASSERT_OK(w.engine->Resume(a));
  EXPECT_EQ(w.engine->TakeStateChanges(), (Ids{a, a}));
  EXPECT_TRUE(w.engine->TakeStateChanges().empty());  // drained

  w.sim.Run();  // both complete
  Ids completed = w.engine->TakeStateChanges();
  std::sort(completed.begin(), completed.end());
  EXPECT_EQ(completed, (Ids{a, b}));

  ASSERT_OK(w.engine->Archive(a));
  EXPECT_EQ(w.engine->TakeStateChanges(), (Ids{a}));
  // A crash reports every instance it drops, recovery every one it
  // rebuilds; the archived instance is in neither.
  w.engine->Crash();
  EXPECT_EQ(w.engine->TakeStateChanges(), (Ids{b}));
  ASSERT_OK(w.engine->Startup());
  EXPECT_EQ(w.engine->TakeStateChanges(), (Ids{b}));
}

TEST(ArchiveTest, ConsoleCommand) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  AdminConsole console(w.engine.get());
  ASSERT_OK(console.Execute("ARCHIVE " + id).status());
  EXPECT_TRUE(console.Execute("STATUS " + id).status().IsNotFound());
}

TEST(ConsoleTest, MetricsAndSpanTimeline) {
  obs::Observability obs;
  World w(&obs);
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  AdminConsole console(w.engine.get());

  ASSERT_OK_AND_ASSIGN(std::string metrics, console.Execute("METRICS"));
  EXPECT_NE(metrics.find("engine_tasks_dispatched_total"), std::string::npos);
  EXPECT_NE(metrics.find("engine_tasks_completed_total"), std::string::npos);

  // TIMELINE renders the job spans: one row per job span, after the
  // header.
  ASSERT_OK_AND_ASSIGN(std::string timeline, console.Execute("TIMELINE *"));
  EXPECT_EQ(timeline.find("node,instance,task,start_us,end_us,outcome\n"), 0u);
  EXPECT_NE(timeline.find(id), std::string::npos);
  EXPECT_NE(timeline.find(",completed\n"), std::string::npos);
  const size_t jobs = obs.spans.Tail(1000, "", "job").size();
  EXPECT_GT(jobs, 0u);
  EXPECT_EQ(static_cast<size_t>(
                std::count(timeline.begin(), timeline.end(), '\n')),
            jobs + 1);
  // A node filter keeps only that node's rows.
  ASSERT_OK_AND_ASSIGN(std::string node0, console.Execute("TIMELINE node0"));
  std::istringstream rows(node0);
  std::string line;
  std::getline(rows, line);  // header
  while (std::getline(rows, line)) EXPECT_EQ(line.rfind("node0,", 0), 0u);
  // Filtering by an unknown node yields no intervals, not an error.
  ASSERT_OK_AND_ASSIGN(std::string empty, console.Execute("TIMELINE ghost"));
  EXPECT_EQ(empty, "(no timeline intervals)\n");
  // Events are listed by SPANS; there is no TRACE command.
  EXPECT_TRUE(console.Execute("TRACE * 5").status().IsInvalidArgument());
}

TEST(ConsoleTest, MetricsPrefixFilter) {
  obs::Observability obs;
  World w(&obs);
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK(w.engine->StartProcess("pipeline").status());
  w.sim.Run();
  AdminConsole console(w.engine.get());

  // Only the engine_ family survives the filter.
  ASSERT_OK_AND_ASSIGN(std::string engine_only,
                       console.Execute("METRICS engine_"));
  EXPECT_NE(engine_only.find("engine_tasks_dispatched_total"),
            std::string::npos);
  EXPECT_EQ(engine_only.find("store_commits_total"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string none, console.Execute("METRICS zzz"));
  EXPECT_EQ(none, "(no metrics matching zzz)\n");
}

TEST(ConsoleTest, ReportCritpathAndSpans) {
  obs::Observability obs;
  World w(&obs);
  obs.SetClock(&w.sim);
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  AdminConsole console(w.engine.get());

  ASSERT_OK_AND_ASSIGN(std::string report, console.Execute("REPORT " + id));
  EXPECT_NE(report.find("== run report: " + id), std::string::npos);
  EXPECT_NE(report.find("progress:"), std::string::npos);
  EXPECT_NE(report.find("eta:        - (run complete)"), std::string::npos);
  EXPECT_NE(report.find("critical path of " + id), std::string::npos);
  EXPECT_TRUE(console.Execute("REPORT ghost").status().IsNotFound());

  ASSERT_OK_AND_ASSIGN(std::string crit, console.Execute("CRITPATH " + id));
  EXPECT_NE(crit.find("critical path of " + id), std::string::npos);
  EXPECT_NE(crit.find("compute"), std::string::npos);
  // Spans outlive archived instances, so an unknown id degrades rather
  // than erroring.
  ASSERT_OK_AND_ASSIGN(std::string missing, console.Execute("CRITPATH nope"));
  EXPECT_NE(missing.find("(no instance span for nope)"), std::string::npos);

  ASSERT_OK_AND_ASSIGN(std::string spans, console.Execute("SPANS " + id));
  EXPECT_NE(spans.find("\"kind\":\"instance\""), std::string::npos);
  EXPECT_NE(spans.find("\"kind\":\"job\""), std::string::npos);
  ASSERT_OK_AND_ASSIGN(std::string all, console.Execute("SPANS * 100"));
  EXPECT_NE(all.find("\"kind\":\"commit_batch\""), std::string::npos);
  EXPECT_TRUE(console.Execute("SPANS * zero").status().IsInvalidArgument());
  ASSERT_OK_AND_ASSIGN(std::string none, console.Execute("SPANS no-such-id"));
  EXPECT_EQ(none, "(no matching spans)\n");

  // Help advertises the new commands.
  ASSERT_OK_AND_ASSIGN(std::string help, console.Execute("HELP"));
  EXPECT_NE(help.find("REPORT"), std::string::npos);
  EXPECT_NE(help.find("CRITPATH"), std::string::npos);
  EXPECT_NE(help.find("SPANS"), std::string::npos);
}

TEST(ConsoleTest, StatsShowsDispatcherDepths) {
  obs::Observability obs;
  World w(&obs);
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK(w.engine->StartProcess("pipeline").status());
  w.sim.Run();
  AdminConsole console(w.engine.get());

  ASSERT_OK_AND_ASSIGN(std::string stats, console.Execute("STATS"));
  EXPECT_NE(stats.find("ready queue:"), std::string::npos);
  EXPECT_NE(stats.find("parked (starved):"), std::string::npos);
  EXPECT_NE(stats.find("parked (suspended):"), std::string::npos);
  EXPECT_NE(stats.find("pump runs:"), std::string::npos);
  EXPECT_NE(stats.find("entries scanned:"), std::string::npos);
  // The finished pipeline left nothing queued, parked, or running.
  EXPECT_NE(stats.find("ready queue:       0"), std::string::npos);
  EXPECT_NE(stats.find("running jobs:      0"), std::string::npos);
}

TEST(ConsoleTest, ScrubReportsStoreHealth) {
  World w;
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  (void)id;
  w.sim.Run();
  AdminConsole console(w.engine.get());
  ASSERT_OK_AND_ASSIGN(std::string report, console.Execute("SCRUB"));
  EXPECT_NE(report.find("scrub:"), std::string::npos);
  EXPECT_NE(report.find("no damage found"), std::string::npos);
  // Help advertises the command.
  ASSERT_OK_AND_ASSIGN(std::string help, console.Execute("HELP"));
  EXPECT_NE(help.find("SCRUB"), std::string::npos);
}

TEST(ConsoleTest, ObservabilityCommandsDegradeWithoutContext) {
  World w;  // no Observability attached
  AdminConsole console(w.engine.get());
  ASSERT_OK(w.engine->RegisterTemplate(Pipeline()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("pipeline"));
  w.sim.Run();
  for (std::string cmd : {std::string("METRICS"), std::string("TIMELINE *"),
                          std::string("SPANS *"),
                          std::string("REPORT ") + id,
                          std::string("CRITPATH ") + id}) {
    ASSERT_OK_AND_ASSIGN(std::string out, console.Execute(cmd));
    EXPECT_EQ(out, "(observability not enabled)\n") << cmd;
  }
}

TEST(ConsoleTest, ErrorsAndHelp) {
  World w;
  AdminConsole console(w.engine.get());
  EXPECT_TRUE(console.Execute("").status().IsInvalidArgument());
  EXPECT_TRUE(console.Execute("FROBNICATE").status().IsInvalidArgument());
  EXPECT_TRUE(console.Execute("STATUS").status().IsInvalidArgument());
  EXPECT_TRUE(console.Execute("STATUS ghost").status().IsNotFound());
  EXPECT_TRUE(console.Execute("HISTORY ghost").status().IsNotFound());
  ASSERT_OK_AND_ASSIGN(std::string help, console.Execute("help"));
  EXPECT_NE(help.find("WHATIF"), std::string::npos);
}

}  // namespace
}  // namespace biopera::core
