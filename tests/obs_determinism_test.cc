// The observability layer must be as reproducible as the simulation it
// observes: two runs of the same seeded chaotic scenario have to export
// byte-identical spans, timelines and metrics. Anything nondeterministic
// leaking into the instrumentation (wall-clock stamps, map iteration order,
// pointer values) fails this test.
#include <gtest/gtest.h>

#include <map>
#include <string>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "obs/critical_path.h"
#include "obs/report.h"
#include "obs/rundiff.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"
#include "workloads/allvsall.h"

namespace biopera {
namespace {

using core::Engine;
using core::EngineOptions;
using core::InstanceState;
using ocr::Value;

struct RunExports {
  std::string timeline_csv;
  std::string metrics_json;
  std::string spans_jsonl;
  std::string chrome_json;
  std::string report_text;
  std::string report_json;
  std::string lineage_jsonl;
  /// Σ job-span durations per node, read straight off the span log.
  std::map<std::string, int64_t> job_us_by_node;
  /// Critical-path invariants of the chaotic instance.
  bool critpath_found = false;
  int64_t critpath_makespan_us = 0;
  int64_t critpath_attributed_us = 0;
  Duration critpath_recovery = Duration::Zero();
  uint64_t dispatched = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;
  uint64_t recovered = 0;
};

uint64_t CounterValue(const obs::MetricsSnapshot& snap,
                      const std::string& key) {
  const auto* entry = snap.Find(key);
  return entry == nullptr ? 0 : static_cast<uint64_t>(entry->value);
}

/// One scripted chaotic lifecycle: a small all-vs-all across three nodes
/// with a node crash mid-run (task failures), a server crash plus recovery
/// (WAL replay re-queues work) and frequent checkpoints. Every disturbance
/// is scheduled at a fixed virtual time, so the run is fully deterministic.
RunExports RunScriptedChaos(uint64_t seed) {
  Rng data_rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 400;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &data_rng);
  auto ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);

  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < 3; ++i) {
    EXPECT_TRUE(
        cluster.AddNode({.name = "node" + std::to_string(i), .num_cpus = 1})
            .ok());
  }
  core::ActivityRegistry registry;
  EXPECT_TRUE(workloads::RegisterAllVsAllActivities(&registry, ctx).ok());

  obs::Observability obs;
  EngineOptions options;
  options.dispatch_retry = Duration::Minutes(1);
  options.checkpoint_every_commits = 25;
  options.observability = &obs;
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  EXPECT_TRUE(engine.Startup().ok());
  EXPECT_TRUE(engine.RegisterTemplate(workloads::BuildAllVsAllProcess()).ok());
  EXPECT_TRUE(
      engine.RegisterTemplate(workloads::BuildAlignPartitionProcess()).ok());
  Value::Map args;
  args["db_name"] = Value("obs-chaos");
  args["num_teus"] = Value(6);
  auto id = engine.StartProcess("all_vs_all", args);
  EXPECT_TRUE(id.ok());

  // Progress-triggered disturbance script (still deterministic: triggers
  // are pure functions of simulation state). Once work is in flight, every
  // node crashes — killing the running jobs exercises failure handling and
  // retries. Later, with work in flight again, the server itself crashes
  // and restarts, forcing recovery to replay the WAL and re-queue tasks.
  obs::Counter* dispatched =
      obs.metrics.GetCounter("engine_tasks_dispatched_total");
  obs::Counter* completed =
      obs.metrics.GetCounter("engine_tasks_completed_total");
  obs::Counter* failed = obs.metrics.GetCounter("engine_tasks_failed_total");
  auto in_flight = [&] {
    return dispatched->value() - completed->value() - failed->value();
  };
  bool nodes_crashed = false;
  bool server_crashed = false;
  for (int waits = 0; waits < 20000; ++waits) {
    sim.RunFor(Duration::Seconds(20));
    auto state = engine.GetInstanceState(*id);
    if (state.ok() && *state == InstanceState::kDone) break;
    if (state.ok() && *state == InstanceState::kFailed) {
      EXPECT_TRUE(engine.Restart(*id).ok());
    }
    if (!nodes_crashed && in_flight() >= 2) {
      nodes_crashed = true;
      for (int i = 0; i < 3; ++i) cluster.CrashNode("node" + std::to_string(i));
      sim.Schedule(Duration::Minutes(20), [&cluster] {
        for (int i = 0; i < 3; ++i) {
          cluster.RepairNode("node" + std::to_string(i));
        }
      });
    } else if (nodes_crashed && !server_crashed && failed->value() > 0 &&
               in_flight() >= 2) {
      server_crashed = true;
      engine.Crash();
      sim.RunFor(Duration::Minutes(15));
      EXPECT_TRUE(engine.Startup().ok());
    }
  }
  EXPECT_TRUE(nodes_crashed);
  EXPECT_TRUE(server_crashed);
  EXPECT_EQ(engine.GetInstanceState(*id).value_or(InstanceState::kFailed),
            InstanceState::kDone);

  RunExports out;
  out.timeline_csv = obs::TimelineCsv(obs::BuildTimeline(obs.spans));
  out.spans_jsonl = obs.spans.ExportJsonl();
  out.chrome_json = obs.spans.ExportChromeTrace();
  out.lineage_jsonl = engine.ExportLineageJsonl(*id).value_or("");
  obs::ReportInput report_input;
  report_input.instance = *id;
  auto summary = engine.Summary(*id);
  if (summary.ok()) {
    report_input.state = std::string(core::InstanceStateName(summary->state));
    report_input.activities_done = summary->tasks_done;
    report_input.activities_total = summary->tasks_total;
  }
  report_input.now = sim.Now();
  out.report_text = obs::BuildRunReport(report_input, obs);
  out.report_json = obs::BuildRunReportJson(report_input, obs);
  obs.spans.ForEach([&](const obs::Span& span) {
    if (span.kind == obs::SpanKind::kJob) {
      out.job_us_by_node[span.node] += span.duration().micros();
    }
  });
  obs::CriticalPathReport critpath =
      obs::AnalyzeCriticalPath(obs.spans, *id);
  out.critpath_found = critpath.found;
  out.critpath_makespan_us = critpath.makespan().micros();
  out.critpath_attributed_us = critpath.attributed().micros();
  auto recovery_total = critpath.totals.find("recovery");
  if (recovery_total != critpath.totals.end()) {
    out.critpath_recovery = recovery_total->second;
  }
  obs::MetricsSnapshot snap = obs.metrics.Snapshot();
  out.metrics_json = snap.ToJson();
  out.dispatched = CounterValue(snap, "engine_tasks_dispatched_total");
  out.completed = CounterValue(snap, "engine_tasks_completed_total");
  out.failed = CounterValue(snap, "engine_tasks_failed_total");
  out.recovered = CounterValue(snap, "engine_recovered_tasks_total");
  return out;
}

TEST(ObsDeterminismTest, SameSeedExportsAreByteIdentical) {
  RunExports first = RunScriptedChaos(7);
  RunExports second = RunScriptedChaos(7);
  EXPECT_EQ(first.metrics_json, second.metrics_json);
  EXPECT_FALSE(first.metrics_json.empty());
  // The span layer (raw log, Chrome trace, timeline, run report) is held
  // to the same bar, through node crashes, task failures, a server crash,
  // and WAL-replay recovery.
  EXPECT_EQ(first.spans_jsonl, second.spans_jsonl);
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_EQ(first.timeline_csv, second.timeline_csv);
  EXPECT_EQ(first.report_text, second.report_text);
  EXPECT_FALSE(first.spans_jsonl.empty());
  EXPECT_FALSE(first.chrome_json.empty());
  EXPECT_FALSE(first.report_text.empty());
  // The provenance export is held to the same bar: same-seed chaos runs
  // (node crashes, retries, server crash + WAL recovery) must produce a
  // byte-identical lineage log, and it must record real attempts.
  EXPECT_EQ(first.lineage_jsonl, second.lineage_jsonl);
  EXPECT_NE(first.lineage_jsonl.find("\"lineage_version\":1"),
            std::string::npos);
  EXPECT_NE(first.lineage_jsonl.find("\"outcome\":\"completed\""),
            std::string::npos);
  // Two runs of the same scenario diff empty (console DIFF / bench
  // --diff rely on exactly this).
  auto run_a = obs::ParseRunExports(first.lineage_jsonl, first.spans_jsonl,
                                    "a");
  auto run_b = obs::ParseRunExports(second.lineage_jsonl, second.spans_jsonl,
                                    "b");
  ASSERT_TRUE(run_a.ok()) << run_a.status().ToString();
  ASSERT_TRUE(run_b.ok()) << run_b.status().ToString();
  EXPECT_TRUE(obs::DiffRuns(*run_a, *run_b).identical());
}

TEST(ObsDeterminismTest, ChaosCriticalPathAttributionIsExact) {
  RunExports run = RunScriptedChaos(7);
  ASSERT_TRUE(run.critpath_found);
  EXPECT_GT(run.critpath_makespan_us, 0);
  // The segments tile the makespan: attribution never silently loses
  // time, even across retries, node outages, and server recovery.
  EXPECT_EQ(run.critpath_attributed_us, run.critpath_makespan_us);
  // The span exports carry the disturbances the script injected.
  EXPECT_NE(run.spans_jsonl.find("\"kind\":\"server_down\""),
            std::string::npos);
  EXPECT_NE(run.spans_jsonl.find("\"kind\":\"node_outage\""),
            std::string::npos);
  EXPECT_NE(run.spans_jsonl.find("\"kind\":\"recovery\""), std::string::npos);
  EXPECT_NE(run.spans_jsonl.find("\"outcome\":\"failed\""),
            std::string::npos);
  EXPECT_NE(run.chrome_json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(run.report_text.find("critical path of"), std::string::npos);
}

TEST(ObsDeterminismTest, ReportBusyTimeIsTheSumOfJobSpans) {
  RunExports run = RunScriptedChaos(7);
  // Every node ran work, some of it lost to the crashes; lost jobs count
  // as busy time up to their end.
  ASSERT_EQ(run.job_us_by_node.size(), 3u);
  EXPECT_NE(run.timeline_csv.find(",failed\n"), std::string::npos);
  for (const auto& [node, job_us] : run.job_us_by_node) {
    const std::string key = "{\"node\":\"" + node + "\",\"busy_us\":";
    size_t at = run.report_json.find(key);
    ASSERT_NE(at, std::string::npos) << node;
    EXPECT_EQ(std::stoll(run.report_json.substr(at + key.size())), job_us)
        << node;
  }
}

TEST(ObsDeterminismTest, EngineCountersReflectTheChaoticLifecycle) {
  RunExports run = RunScriptedChaos(7);
  // The whole workload was dispatched and finished...
  EXPECT_GT(run.dispatched, 0u);
  EXPECT_GT(run.completed, 0u);
  // ...the node crash killed in-flight work...
  EXPECT_GT(run.failed, 0u);
  // ...and the server crash forced recovery to re-queue tasks.
  EXPECT_GT(run.recovered, 0u);
  // Every completion stems from a dispatch (retries mean dispatched can
  // exceed completions, never the reverse).
  EXPECT_GE(run.dispatched, run.completed);
}

TEST(ObsDeterminismTest, StoreMetricsAreExported) {
  RunExports run = RunScriptedChaos(7);
  for (const char* metric :
       {"store_commits_total", "store_wal_flushes_total",
        "store_group_commits_total", "store_checkpoints_total",
        "store_checkpoint_compactions_total", "store_checkpoint_bytes"}) {
    EXPECT_NE(run.metrics_json.find(metric), std::string::npos)
        << "missing metric " << metric;
  }
}

TEST(ObsDeterminismTest, TraceContainsTheScriptedEvents) {
  RunExports run = RunScriptedChaos(7);
  for (const char* kind :
       {"job", "node_outage", "server_down", "recovery", "checkpoint"}) {
    EXPECT_NE(run.spans_jsonl.find("\"kind\":\"" + std::string(kind) + "\""),
              std::string::npos)
        << "no " << kind << " span";
  }
}

/// High-fanout regime of the indexed dispatcher: many more ready entries
/// than CPUs, mixed priorities, node churn mid-run, and a random
/// placement policy (RNG consumption is part of the scheduling order).
/// Two same-seed runs must export byte-identical spans and timelines —
/// the parked/woken bookkeeping may not reorder a single dispatch.
struct FanoutExports {
  std::string timeline_csv;
  std::string spans_jsonl;
  std::string chrome_json;
};

FanoutExports RunHighFanout(uint64_t seed) {
  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(
        cluster.AddNode({.name = "node" + std::to_string(i), .num_cpus = 2})
            .ok());
  }
  core::ActivityRegistry registry;
  EXPECT_TRUE(registry
                  .Register("fan.work",
                            [](const core::ActivityInput&)
                                -> Result<core::ActivityOutput> {
                              core::ActivityOutput out;
                              out.cost = Duration::Minutes(30);
                              return out;
                            })
                  .ok());
  auto def = ocr::ProcessBuilder("hifan")
                 .Data("items")
                 .Task(ocr::TaskBuilder::Parallel(
                     "fan", "wb.items",
                     ocr::TaskBuilder::Activity("work", "fan.work")))
                 .Build();
  EXPECT_TRUE(def.ok());

  obs::Observability obs;
  EngineOptions options;
  options.policy = "random";
  options.seed = seed;
  options.dispatch_retry = Duration::Minutes(5);
  options.observability = &obs;
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  EXPECT_TRUE(engine.Startup().ok());
  EXPECT_TRUE(engine.RegisterTemplate(*def).ok());
  auto start = [&](int n, int priority) {
    Value::List items;
    for (int i = 0; i < n; ++i) items.emplace_back(static_cast<int64_t>(i));
    Value::Map args;
    args["items"] = Value(std::move(items));
    EXPECT_TRUE(engine.StartProcess("hifan", args, priority).ok());
  };
  start(120, 0);
  start(80, 5);   // jumps the queue ahead of the first instance
  start(40, -3);  // drains last
  // Node churn while the queue is deep: capacity wakeups in both
  // directions.
  sim.Schedule(Duration::Hours(2), [&cluster] {
    cluster.CrashNode("node1");
  });
  sim.Schedule(Duration::Hours(5), [&cluster] {
    cluster.RepairNode("node1");
  });
  sim.Run();

  FanoutExports out;
  out.timeline_csv = obs::TimelineCsv(obs::BuildTimeline(obs.spans));
  out.spans_jsonl = obs.spans.ExportJsonl();
  out.chrome_json = obs.spans.ExportChromeTrace();
  return out;
}

TEST(ObsDeterminismTest, HighFanoutSameSeedTimelinesAreByteIdentical) {
  FanoutExports first = RunHighFanout(41);
  FanoutExports second = RunHighFanout(41);
  EXPECT_EQ(first.timeline_csv, second.timeline_csv);
  EXPECT_EQ(first.spans_jsonl, second.spans_jsonl);
  EXPECT_EQ(first.chrome_json, second.chrome_json);
  EXPECT_FALSE(first.timeline_csv.empty());
  EXPECT_FALSE(first.spans_jsonl.empty());
  // The crash and repair both made it into the span log (an outage window
  // closed by the repair), so the parked queues really were woken by
  // capacity events mid-run.
  EXPECT_NE(first.spans_jsonl.find("\"kind\":\"node_outage\""),
            std::string::npos);
  EXPECT_NE(first.spans_jsonl.find("\"outcome\":\"repaired\""),
            std::string::npos);
}

}  // namespace
}  // namespace biopera
