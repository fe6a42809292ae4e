// Workload `recovery`: 20 synthetic all-vs-all instances x 64 TEUs over a
// 2,000-entry dataset on 4 nodes with 2 CPUs each (the micro_recovery
// fixture). The server restarts every virtual hour, at least 100 times,
// then the run goes to completion. A restart is a fresh simulator
// advanced to the crash instant, a fresh cluster, and the same store
// directory: RecordStore::Open, Engine construction and Startup(). The
// store's read path and the engine's recovery rebuild do the work.
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "darwin/generator.h"
#include "src/pins.h"
#include "src/world.h"
#include "workloads/allvsall.h"

namespace perfbench {

using namespace biopera;

namespace {

constexpr size_t kEntries = 2000;
constexpr int kInstances = 20;
constexpr int kNumTeus = 64;
constexpr int kRestarts = 100;

core::EngineOptions RecoveryOptions(uint64_t seed) {
  core::EngineOptions options;
  options.seed = seed;
  return options;
}

std::shared_ptr<workloads::AllVsAllContext> MakeContext(uint64_t seed,
                                                        size_t entries) {
  Rng rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = entries;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  return workloads::MakeSyntheticContext(std::move(meta.lengths),
                                         std::move(meta.family_of));
}

/// Builds one server incarnation over `dir` (nodes, activities); the
/// caller runs Startup.
std::unique_ptr<World> MakeServer(
    const std::string& dir, uint64_t seed, Probe* probe, TimePoint at,
    const std::shared_ptr<workloads::AllVsAllContext>& ctx) {
  auto world = std::make_unique<World>(dir, RecoveryOptions(seed), probe,
                                       false, at);
  if (!world->ok()) return nullptr;
  for (int i = 0; i < 4; ++i) {
    (void)world->cluster->AddNode(
        {.name = "node" + std::to_string(i), .num_cpus = 2});
  }
  if (!RegisterAllVsAll(world.get(), ctx).ok()) return nullptr;
  return world;
}

/// The first incarnation: dataset, server, Startup and templates.
std::unique_ptr<World> SetUp(const std::string& dir, uint64_t seed,
                             size_t entries, Probe* probe,
                             std::shared_ptr<workloads::AllVsAllContext>* ctx) {
  *ctx = MakeContext(seed, entries);
  std::unique_ptr<World> world = MakeServer(dir, seed, probe, TimePoint(), *ctx);
  if (world == nullptr || !world->Startup().ok() ||
      !RegisterAllVsAllTemplates(world.get()).ok()) {
    return nullptr;
  }
  return world;
}

bool AllDone(World* world, const std::vector<std::string>& ids) {
  Span span(world->probe->tracer, "core", "state");
  for (const std::string& id : ids) {
    auto state = world->engine->GetInstanceState(id);
    if (!state.ok() || *state != core::InstanceState::kDone) return false;
  }
  return true;
}

}  // namespace

Batch RunRecoveryBatch(const BatchRequest& request) {
  const Options& options = *request.options;
  Probe* probe = request.probe;
  Layers* layers = request.layers;
  Batch batch;
  const int instances = options.small ? 4 : kInstances;
  const int restarts = options.small ? 20 : kRestarts;
  const std::string dir = FreshDir(options, "recovery");

  const double setup_start = NowSeconds();
  const uint64_t seed = request.seed();
  std::shared_ptr<workloads::AllVsAllContext> ctx;
  std::unique_ptr<World> world =
      SetUp(dir, seed, options.small ? 500 : kEntries, probe, &ctx);
  if (world == nullptr) {
    batch.attempted = 1;
    batch.Fail("recovery: set-up failed");
    return batch;
  }
  batch.setup_s.push_back(NowSeconds() - setup_start);

  std::vector<std::string> ids;
  std::string exports;
  {
    Span phase(probe->tracer, "phase", "recovery");
    const double phase_start = NowSeconds();
    for (int i = 0; i < instances; ++i) {
      Span span(probe->tracer, "core", "start_process");
      ++batch.attempted;
      ocr::Value::Map args;
      args["db_name"] = ocr::Value("recbench");
      args["num_teus"] = ocr::Value(kNumTeus);
      auto started = world->engine->StartProcess("all_vs_all", args);
      if (!started.ok()) {
        batch.Fail("recovery: start failed");
        continue;
      }
      ids.push_back(*started);
    }
    for (int r = 0; r < restarts; ++r) {
      {
        Span span(probe->tracer, "sim", "run_for");
        world->sim.RunFor(Duration::Hours(1));
      }
      // Crash: the process dies with its simulator and cluster; only the
      // store directory survives.
      const TimePoint crash_at = world->sim.Now();
      {
        Span span(probe->tracer, "perfbench", "harvest");
        layers->sim_events += world->sim.NumExecuted();
        HarvestCounters(*world, layers);
      }
      world.reset();
      ++batch.attempted;
      world = MakeServer(dir, seed, probe, crash_at, ctx);
      if (world == nullptr || !world->Startup().ok()) {
        batch.Fail("recovery: restart failed");
        break;
      }
      batch.restart_ms.push_back(world->RestartMs());
      layers->open_ms.push_back(world->open_ms);
      layers->startup_ms.push_back(world->startup_ms);
      Span span(probe->tracer, "perfbench", "harvest");
      for (const core::InstanceSummary& s : world->engine->ListInstances()) {
        layers->recovered_tasks += s.tasks_total;
      }
    }
    if (world != nullptr) {
      while (world->sim.Now().SinceEpoch().ToDays() < 365) {
        {
          Span span(probe->tracer, "sim", "run_for");
          world->sim.RunFor(Duration::Hours(6));
        }
        if (AllDone(world.get(), ids)) break;
      }
      Span span(probe->tracer, "obs", "export");
      const uint64_t t0 = NowNs();
      exports = world->obs.spans.ExportJsonl();
      const size_t chrome = world->obs.spans.ExportChromeTrace().size();
      for (const std::string& id : ids) {
        exports += world->engine->ExportLineageJsonl(id).value_or("");
      }
      layers->export_ns += NowNs() - t0;
      layers->export_bytes += exports.size() + chrome;
    }
    batch.phase_s = NowSeconds() - phase_start;
  }
  if (world == nullptr) return batch;
  layers->sim_events += world->sim.NumExecuted();

  // --- checks: every instance done with its ground-truth match total --------
  int64_t total_matches = 0;
  size_t bad = 0;
  for (const std::string& id : ids) {
    auto state = world->engine->GetInstanceState(id);
    auto total = world->engine->GetWhiteboardValue(id, "total_matches");
    auto truth = SyntheticGroundTruth(*world, id, *ctx);
    if (!state.ok() || *state != core::InstanceState::kDone || !total.ok() ||
        !total->is_int() || !truth.ok() || total->AsInt() != *truth) {
      ++bad;
      continue;
    }
    total_matches += total->AsInt();
    auto summary = world->engine->Summary(id);
    if (summary.ok()) batch.tasks_done += summary->tasks_done;
  }
  if (bad > 0) {
    batch.failed += bad;
    batch.errors.push_back(StrFormat(
        "recovery: %zu instances unfinished or off their ground truth", bad));
  }
  if (request.pinned() &&
      !CheckPin("recovery.total_matches", total_matches, options, &batch)) {
    ++batch.failed;
  }
  if (request.keep_exports) batch.exports.push_back(exports);
  HarvestCounters(*world, layers);
  HarvestCompleted(*world, layers);
  world.reset();
  RemoveDir(dir);
  return batch;
}

double RecoverySetupOnly(const Options& options) {
  Probe probe;
  const std::string dir = FreshDir(options, "recovery_setup");
  const double start = NowSeconds();
  {
    std::shared_ptr<workloads::AllVsAllContext> ctx;
    (void)SetUp(dir, options.seed, options.small ? 500 : kEntries, &probe,
                &ctx);
  }
  const double elapsed = NowSeconds() - start;
  RemoveDir(dir);
  return elapsed;
}

}  // namespace perfbench
