// Provenance lineage layer + run differencing: lineage records are
// written with every dispatch and outcome commit, persisted in the
// provenance space (so they survive crashes and store reopens), and two
// runs' exports diff down to a classified root cause.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/console.h"
#include "core/engine.h"
#include "obs/rundiff.h"
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
  explicit World(const std::string& store_dir,
                 obs::Observability* obs = nullptr, int num_nodes = 3,
                 uint64_t seed = 1) {
    auto opened = RecordStore::Open(store_dir);
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < num_nodes; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 2,
                                  .speed = 1.0}));
    }
    EngineOptions options;
    options.observability = obs;
    options.seed = seed;
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
    EXPECT_OK(registry.Register(
        "step", [](const ActivityInput& in) -> Result<ActivityOutput> {
          ActivityOutput out;
          const Value& x = in.Get("x");
          out.fields["y"] = x.is_int() ? Value(x.AsInt() + 1) : Value(1);
          out.cost = Duration::Seconds(20);
          out.provenance.emplace_back("algorithm", "step/v1");
          return out;
        }));
    EXPECT_OK(engine->Startup());
  }

  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

/// a -> b -> c, a simple chain with data flowing through the whiteboard.
ocr::ProcessDef Chain() {
  auto def = ProcessBuilder("chain")
                 .Data("x", Value(100))
                 .Data("y")
                 .Task(TaskBuilder::Activity("a", "step")
                           .Input("wb.x", "in.x")
                           .Output("out.y", "wb.x"))
                 .Task(TaskBuilder::Activity("b", "step")
                           .Input("wb.x", "in.x")
                           .Output("out.y", "wb.x"))
                 .Task(TaskBuilder::Activity("c", "step")
                           .Input("wb.x", "in.x")
                           .Output("out.y", "wb.y"))
                 .Connect("a", "b")
                 .Connect("b", "c")
                 .Build();
  EXPECT_TRUE(def.ok());
  return std::move(*def);
}

const obs::LineageRecord* FindRecord(
    const std::vector<obs::LineageRecord>& records, const std::string& task,
    int attempt = 1) {
  for (const auto& r : records) {
    if (r.task == task && r.attempt == attempt) return &r;
  }
  return nullptr;
}

std::string Descriptor(
    const std::vector<std::pair<std::string, std::string>>& pairs,
    const std::string& key) {
  for (const auto& [k, v] : pairs) {
    if (k == key) return v;
  }
  return "";
}

// --- Lineage capture --------------------------------------------------------

TEST(LineageTest, RecordsCapturedForCompletedRun) {
  testing::TempDir dir;
  obs::Observability obs;
  World w(dir.path(), &obs);
  ASSERT_OK(w.engine->RegisterTemplate(Chain()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("chain"));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);

  ASSERT_OK_AND_ASSIGN(auto records, w.engine->GetTaskLineage(id));
  ASSERT_EQ(records.size(), 3u);
  for (const char* task : {"a", "b", "c"}) {
    const obs::LineageRecord* r = FindRecord(records, task);
    ASSERT_NE(r, nullptr) << task;
    EXPECT_EQ(r->instance, id);
    EXPECT_EQ(r->attempt, 1);
    EXPECT_EQ(r->binding, "step");
    EXPECT_EQ(r->outcome, "completed");
    EXPECT_FALSE(r->node.empty());
    EXPECT_GE(r->finish_us, r->dispatch_us);
    EXPECT_GT(r->cost_us, 0);
    // The activity-declared execution parameter came through.
    EXPECT_EQ(Descriptor(r->params, "algorithm"), "step/v1");
    // There is an output summary for the produced field.
    EXPECT_FALSE(Descriptor(r->outputs, "y").empty());
  }
  // Input descriptors follow the dataflow: a sees the whiteboard default,
  // b sees a's output, c sees b's.
  EXPECT_EQ(Descriptor(FindRecord(records, "a")->inputs, "x"), "100");
  EXPECT_EQ(Descriptor(FindRecord(records, "b")->inputs, "x"), "101");
  EXPECT_EQ(Descriptor(FindRecord(records, "c")->inputs, "x"), "102");
}

TEST(LineageTest, ExportCarriesHeaderAndRecords) {
  testing::TempDir dir;
  obs::Observability obs;
  World w(dir.path(), &obs, /*num_nodes=*/3, /*seed=*/42);
  ASSERT_OK(w.engine->RegisterTemplate(Chain()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("chain"));
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(std::string jsonl, w.engine->ExportLineageJsonl(id));
  EXPECT_NE(jsonl.find("\"lineage_version\":1"), std::string::npos);
  EXPECT_NE(jsonl.find("\"instance\":\"" + id + "\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"template\":\"chain\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"state\":\"Done\""), std::string::npos);
  EXPECT_NE(jsonl.find("\"seed\":42"), std::string::npos);
  EXPECT_NE(jsonl.find("\"config_version\":\"fnv64:"), std::string::npos);
  EXPECT_NE(jsonl.find("\"outcome\":\"completed\""), std::string::npos);
  // Header + one line per attempt.
  EXPECT_EQ(std::count(jsonl.begin(), jsonl.end(), '\n'), 4);

  // The export round-trips through the diff parser and self-diffs empty.
  ASSERT_OK_AND_ASSIGN(obs::RunLineage run,
                       obs::ParseRunExports(jsonl, "", "self"));
  EXPECT_EQ(run.header.seed, 42u);
  EXPECT_EQ(run.records.size(), 3u);
  EXPECT_TRUE(obs::DiffRuns(run, run).identical());
}

TEST(LineageTest, UnknownInstanceIsNotFound) {
  testing::TempDir dir;
  obs::Observability obs;
  World w(dir.path(), &obs);
  EXPECT_TRUE(w.engine->GetTaskLineage("ghost").status().IsNotFound());
  EXPECT_TRUE(w.engine->ExportLineageJsonl("ghost").status().IsNotFound());
}

TEST(LineageTest, LineageIsWrittenWithOrWithoutObservability) {
  auto export_chain = [](obs::Observability* obs) -> std::string {
    testing::TempDir dir;
    World w(dir.path(), obs);
    EXPECT_OK(w.engine->RegisterTemplate(Chain()));
    Result<std::string> id = w.engine->StartProcess("chain");
    EXPECT_OK(id.status());
    if (!id.ok()) return "";
    w.sim.Run();
    Result<std::string> jsonl = w.engine->ExportLineageJsonl(*id);
    EXPECT_OK(jsonl.status());
    return jsonl.ok() ? *jsonl : "";
  };
  obs::Observability obs;
  const std::string with_obs = export_chain(&obs);
  const std::string without_obs = export_chain(nullptr);
  // Provenance is a dependability record, not a span by-product: the
  // header plus one line per attempt of a, b and c, byte for byte.
  EXPECT_EQ(without_obs, with_obs);
  EXPECT_EQ(std::count(without_obs.begin(), without_obs.end(), '\n'), 4);
}

// --- Crash durability -------------------------------------------------------

TEST(LineageTest, LineageSurvivesCrashAndWalRecovery) {
  testing::TempDir dir;
  obs::Observability obs;
  World w(dir.path(), &obs);
  ASSERT_OK(w.engine->RegisterTemplate(Chain()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("chain"));

  // Let task "a" finish (20s cost) and "b" get into flight, then crash.
  w.sim.RunFor(Duration::Seconds(30));
  w.engine->Crash();
  w.sim.RunFor(Duration::Minutes(2));
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);

  // Pre-crash provenance (a's completed attempt) was recovered from the
  // WAL along with the instance; the whole chain has completed records.
  ASSERT_OK_AND_ASSIGN(auto records, w.engine->GetTaskLineage(id));
  for (const char* task : {"a", "b", "c"}) {
    bool completed = false;
    for (const auto& r : records) {
      if (r.task == task && r.outcome == "completed") completed = true;
    }
    EXPECT_TRUE(completed) << task;
  }
  const obs::LineageRecord* a = FindRecord(records, "a");
  ASSERT_NE(a, nullptr);
  EXPECT_EQ(a->outcome, "completed");
  EXPECT_EQ(Descriptor(a->inputs, "x"), "100");
}

TEST(LineageTest, LineageSurvivesStoreReopen) {
  testing::TempDir dir;
  std::string export_before;
  std::string id;
  {
    obs::Observability obs;
    World w(dir.path(), &obs);
    ASSERT_OK(w.engine->RegisterTemplate(Chain()));
    ASSERT_OK_AND_ASSIGN(id, w.engine->StartProcess("chain"));
    w.sim.Run();
    ASSERT_OK_AND_ASSIGN(export_before, w.engine->ExportLineageJsonl(id));
  }
  // A fresh engine over the same store sees the same provenance rows
  // (the instance completed, so the records come purely from the store).
  obs::Observability obs;
  World w(dir.path(), &obs);
  ASSERT_OK_AND_ASSIGN(auto records, w.engine->GetTaskLineage(id));
  EXPECT_EQ(records.size(), 3u);
  ASSERT_OK_AND_ASSIGN(std::string export_after,
                       w.engine->ExportLineageJsonl(id));
  EXPECT_EQ(export_before, export_after);
}

// --- Run differencing: golden classifications -------------------------------

/// A small two-task run fixture for constructing perturbed variants.
obs::RunLineage BaseRun(const std::string& label) {
  obs::RunLineage run;
  run.label = label;
  run.header.instance = "chain-000001";
  run.header.template_name = "chain";
  run.header.state = "Done";
  run.header.seed = 7;
  run.header.config_version = "fnv64:00000000deadbeef";
  obs::LineageRecord a;
  a.instance = run.header.instance;
  a.task = "a";
  a.attempt = 1;
  a.binding = "step";
  a.node = "node0";
  a.outcome = "completed";
  a.dispatch_us = 1000;
  a.finish_us = 21000;
  a.cost_us = 20000;
  a.inputs = {{"x", "100"}};
  a.params = {{"algorithm", "step/v1"}};
  a.outputs = {{"y", "101"}};
  obs::LineageRecord b = a;
  b.task = "b";
  b.node = "node1";
  b.inputs = {{"x", "101"}};
  b.outputs = {{"y", "102"}};
  run.records = {a, b};
  return run;
}

TEST(RunDiffTest, IdenticalRunsDiffEmpty) {
  obs::RunDiffReport report = DiffRuns(BaseRun("a"), BaseRun("b"));
  EXPECT_TRUE(report.identical());
  EXPECT_EQ(report.RootCause(), "none");
  EXPECT_NE(report.ToText().find("no divergences"), std::string::npos);
  EXPECT_NE(report.ToJson().find("\"divergence_count\":0"),
            std::string::npos);
}

TEST(RunDiffTest, SeedPerturbationIsRootCause) {
  obs::RunLineage base = BaseRun("seed7");
  obs::RunLineage perturbed = BaseRun("seed8");
  perturbed.header.seed = 8;
  // Downstream scheduling noise the seed change caused: different
  // placement and a different match set. The seed still ranks first.
  perturbed.records[1].node = "node2";
  perturbed.records[1].outputs = {{"y", "999"}};
  obs::RunDiffReport report = DiffRuns(base, perturbed);
  ASSERT_EQ(report.divergences.size(), 3u);
  EXPECT_EQ(report.RootCause(), "seed");
  EXPECT_EQ(report.divergences[1].category,
            obs::DivergenceCategory::kPlacement);
  EXPECT_EQ(report.divergences[2].category, obs::DivergenceCategory::kOutput);
  EXPECT_NE(report.ToJson().find("\"root_cause\":\"seed\""),
            std::string::npos);
}

TEST(RunDiffTest, ConfigPerturbationOutranksSchedulingNoise) {
  obs::RunLineage base = BaseRun("cfg-a");
  obs::RunLineage perturbed = BaseRun("cfg-b");
  perturbed.header.config_version = "fnv64:0000000000000bad";
  perturbed.records[0].node = "node2";
  obs::RunDiffReport report = DiffRuns(base, perturbed);
  EXPECT_EQ(report.RootCause(), "config_version");
  ASSERT_EQ(report.divergences.size(), 2u);
  EXPECT_EQ(report.divergences[1].category,
            obs::DivergenceCategory::kPlacement);
}

TEST(RunDiffTest, OutagePerturbationIsRootCause) {
  obs::RunLineage base = BaseRun("calm");
  base.outages.push_back({"node_outage", "node1", 5000, 9000});
  obs::RunLineage perturbed = BaseRun("stormy");
  perturbed.outages.push_back({"node_outage", "node1", 7000, 11000});
  // The shifted outage forced a retry of task b on another node.
  obs::LineageRecord retry = perturbed.records[1];
  perturbed.records[1].outcome = "failed";
  retry.attempt = 2;
  retry.node = "node0";
  perturbed.records.push_back(retry);
  obs::RunDiffReport report = DiffRuns(base, perturbed);
  EXPECT_EQ(report.RootCause(), "outage_schedule");
  // Both windows (one per run) plus the retry-history delta are reported.
  EXPECT_GE(report.divergences.size(), 3u);
  bool saw_retry = false;
  for (const auto& d : report.divergences) {
    if (d.category == obs::DivergenceCategory::kRetryHistory) {
      saw_retry = true;
      EXPECT_EQ(d.path, "b");
      EXPECT_NE(d.detail.find("a1=failed a2=completed"), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_retry);
}

TEST(RunDiffTest, InputDivergenceOutranksPlacementAndOutput) {
  obs::RunLineage base = BaseRun("in-a");
  obs::RunLineage perturbed = BaseRun("in-b");
  perturbed.records[0].inputs = {{"x", "200"}};
  perturbed.records[0].node = "node2";
  perturbed.records[0].outputs = {{"y", "201"}};
  obs::RunDiffReport report = DiffRuns(base, perturbed);
  EXPECT_EQ(report.RootCause(), "input");
  EXPECT_NE(report.divergences[0].detail.find("x: 100 vs 200"),
            std::string::npos);
}

TEST(RunDiffTest, ParseRunExportsReadsOutageWindows) {
  obs::RunLineage run = BaseRun("exported");
  std::string lineage =
      obs::LineageExportJsonl(run.header, run.records);
  // A span export with one outage line, one irrelevant span and one
  // Chrome-trace bracket line the parser must skip.
  std::string spans =
      "[\n"
      "{\"kind\":\"job\",\"name\":\"a\",\"start_us\":0,\"end_us\":5}\n"
      "{\"kind\":\"node_outage\",\"node\":\"node1\",\"start_us\":5000,"
      "\"end_us\":9000}\n";
  ASSERT_OK_AND_ASSIGN(obs::RunLineage parsed,
                       obs::ParseRunExports(lineage, spans, "exported"));
  EXPECT_EQ(parsed.header.seed, run.header.seed);
  EXPECT_EQ(parsed.header.config_version, run.header.config_version);
  ASSERT_EQ(parsed.records.size(), 2u);
  EXPECT_EQ(parsed.records[0].inputs, run.records[0].inputs);
  EXPECT_EQ(parsed.records[0].outputs, run.records[0].outputs);
  ASSERT_EQ(parsed.outages.size(), 1u);
  EXPECT_EQ(parsed.outages[0],
            (obs::OutageWindow{"node_outage", "node1", 5000, 9000}));
  run.outages = parsed.outages;
  EXPECT_TRUE(obs::DiffRuns(run, parsed).identical());
}

TEST(RunDiffTest, ParseRejectsHeaderlessExport) {
  EXPECT_FALSE(obs::ParseRunExports("", "", "x").ok());
  EXPECT_FALSE(
      obs::ParseRunExports("{\"task\":\"a\",\"attempt\":1}\n", "", "x").ok());
}

// --- Engine-level differencing ----------------------------------------------

TEST(RunDiffTest, SameSeedEnginesProduceIdenticalRuns) {
  testing::TempDir dir_a, dir_b;
  obs::Observability obs_a, obs_b;
  World wa(dir_a.path(), &obs_a);
  World wb(dir_b.path(), &obs_b);
  for (World* w : {&wa, &wb}) {
    ASSERT_OK(w->engine->RegisterTemplate(Chain()));
    ASSERT_OK_AND_ASSIGN(std::string id, w->engine->StartProcess("chain"));
    w->sim.Run();
    ASSERT_OK_AND_ASSIGN(auto state, w->engine->GetInstanceState(id));
    ASSERT_EQ(state, InstanceState::kDone);
  }
  ASSERT_OK_AND_ASSIGN(obs::RunLineage a,
                       wa.engine->BuildRunLineage("chain-000001", "run-a"));
  ASSERT_OK_AND_ASSIGN(obs::RunLineage b,
                       wb.engine->BuildRunLineage("chain-000001", "run-b"));
  EXPECT_TRUE(obs::DiffRuns(a, b).identical());
}

TEST(RunDiffTest, DifferentTopologyClassifiedAsConfigChange) {
  testing::TempDir dir_a, dir_b;
  obs::Observability obs_a, obs_b;
  World wa(dir_a.path(), &obs_a, /*num_nodes=*/3);
  World wb(dir_b.path(), &obs_b, /*num_nodes=*/2);
  for (World* w : {&wa, &wb}) {
    ASSERT_OK(w->engine->RegisterTemplate(Chain()));
    ASSERT_OK_AND_ASSIGN(std::string id, w->engine->StartProcess("chain"));
    w->sim.Run();
  }
  ASSERT_OK_AND_ASSIGN(obs::RunLineage a,
                       wa.engine->BuildRunLineage("chain-000001", "3nodes"));
  ASSERT_OK_AND_ASSIGN(obs::RunLineage b,
                       wb.engine->BuildRunLineage("chain-000001", "2nodes"));
  obs::RunDiffReport report = obs::DiffRuns(a, b);
  EXPECT_FALSE(report.identical());
  // The declared-resource change outranks any placement fallout.
  EXPECT_EQ(report.RootCause(), "config_version");
}

// --- Console ----------------------------------------------------------------

TEST(ConsoleLineageTest, LineageDiffSpansAndReportCommands) {
  testing::TempDir dir;
  obs::Observability obs;
  World w(dir.path(), &obs);
  ASSERT_OK(w.engine->RegisterTemplate(Chain()));
  ASSERT_OK_AND_ASSIGN(std::string id, w.engine->StartProcess("chain"));
  w.sim.Run();
  AdminConsole console(w.engine.get());

  // LINEAGE <id>: the provenance JSONL export.
  ASSERT_OK_AND_ASSIGN(std::string lineage, console.Execute("LINEAGE " + id));
  EXPECT_NE(lineage.find("\"lineage_version\":1"), std::string::npos);
  EXPECT_NE(lineage.find("\"outcome\":\"completed\""), std::string::npos);
  // The two-argument form still answers who wrote a whiteboard variable.
  ASSERT_OK_AND_ASSIGN(std::string writer,
                       console.Execute("LINEAGE " + id + " y"));
  EXPECT_NE(writer.find("written by"), std::string::npos);

  // DIFF of an instance against itself reports equivalence.
  ASSERT_OK_AND_ASSIGN(std::string diff,
                       console.Execute("DIFF " + id + " " + id));
  EXPECT_NE(diff.find("no divergences"), std::string::npos);
  EXPECT_TRUE(console.Execute("DIFF " + id + " ghost").status().IsNotFound());

  // SPANS kind filter: only job spans, and unknown kinds are rejected.
  ASSERT_OK_AND_ASSIGN(std::string spans,
                       console.Execute("SPANS * 50 job"));
  EXPECT_NE(spans.find("\"kind\":\"job\""), std::string::npos);
  EXPECT_EQ(spans.find("\"kind\":\"instance\""), std::string::npos);
  EXPECT_TRUE(
      console.Execute("SPANS * 50 bogus").status().IsInvalidArgument());

  // REPORT --json emits the machine-readable run report.
  ASSERT_OK_AND_ASSIGN(std::string report,
                       console.Execute("REPORT " + id + " --json"));
  EXPECT_NE(report.find("\"report_version\":2"), std::string::npos);
  EXPECT_EQ(report.find("trace_events_dropped"), std::string::npos);
  EXPECT_NE(report.find("\"spans_dropped\":0}"), std::string::npos);
  EXPECT_NE(report.find("\"instance\":\"" + id + "\""), std::string::npos);
  EXPECT_TRUE(
      console.Execute("REPORT " + id + " --xml").status().IsInvalidArgument());
}

}  // namespace
}  // namespace biopera::core
