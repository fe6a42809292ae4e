// Workload `align`: a real-mode all-vs-all (MakeRealContext: the actual
// Smith-Waterman kernels, not the cost model) over generated sequences at
// the generator's Swiss-Prot-like default lengths, 16 TEUs on 4 simulated
// CPUs, with a 2-thread pool as the engine's executor. The darwin kernels
// do the work and the speculation paths run.
#include <memory>
#include <string>
#include <vector>

#include "common/strings.h"
#include "darwin/align.h"
#include "darwin/generator.h"
#include "darwin/match.h"
#include "exec/thread_pool.h"
#include "obs/json.h"
#include "src/pins.h"
#include "src/world.h"
#include "workloads/allvsall.h"

namespace perfbench {

using namespace biopera;

namespace {

constexpr size_t kSequences = 200;
constexpr int kNumTeus = 16;
constexpr int kPoolThreads = 2;
constexpr int kRestarts = 100;

void AddNodes(cluster::ClusterSim* cluster) {
  for (int i = 0; i < 2; ++i) {
    (void)cluster->AddNode({.name = "node" + std::to_string(i), .num_cpus = 2});
  }
}

/// Fills the PAM family's lazy caches the kernels read (every scoring
/// matrix the refinement scan can visit, and the quantized screen), so
/// they stay out of the measured phase.
void WarmPamCaches(const workloads::AllVsAllContext& ctx) {
  const darwin::PamFamily& family = *ctx.pam;
  darwin::RefinementOptions refine;
  for (int pam = refine.min_pam; pam <= refine.max_pam; ++pam) {
    (void)family.Scoring(pam);
  }
  (void)family.QuantizedScoring(ctx.fixed_pam);
}

struct AlignSetup {
  std::unique_ptr<darwin::SyntheticDataset> data;
  std::shared_ptr<workloads::AllVsAllContext> ctx;
  std::unique_ptr<exec::ThreadPool> pool;
  std::unique_ptr<World> world;
};

bool SetUp(const Options& options, uint64_t seed, Probe* probe,
           const std::string& dir, AlignSetup* setup) {
  Rng rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = options.small ? 40 : kSequences;
  gen.length_shape = 40;
  gen.fragment_probability = 0;
  gen.mean_family_size = 3;
  setup->data = std::make_unique<darwin::SyntheticDataset>(
      darwin::GenerateDataset(gen, &rng));
  setup->ctx = workloads::MakeRealContext(&setup->data->dataset,
                                          &darwin::SharedPamFamily());
  WarmPamCaches(*setup->ctx);
  setup->pool = std::make_unique<exec::ThreadPool>(kPoolThreads);
  core::EngineOptions engine_options;
  engine_options.executor = setup->pool.get();
  engine_options.seed = seed;
  setup->world = std::make_unique<World>(dir, engine_options, probe);
  World& world = *setup->world;
  if (!world.ok()) return false;
  AddNodes(world.cluster.get());
  return RegisterAllVsAll(&world, setup->ctx).ok() && world.Startup().ok() &&
         RegisterAllVsAllTemplates(&world).ok();
}

/// Invariants of a master file that hold for any seed: it parses, holds
/// `total` matches, each pair once with a < b, in entry order, each with a
/// positive score at a PAM distance inside the refinement range. (The
/// refined score may fall below the fixed-PAM screening threshold.)
bool CheckMasterFile(const std::string& master, int64_t total, size_t entries,
                     Batch* batch) {
  const darwin::RefinementOptions refine;
  auto matches = darwin::MatchesFromText(master);
  if (!matches.ok()) {
    batch->errors.push_back("align: master file does not parse");
    return false;
  }
  if (static_cast<int64_t>(matches->size()) != total) {
    batch->errors.push_back("align: master file size != total_matches");
    return false;
  }
  for (size_t i = 0; i < matches->size(); ++i) {
    const darwin::Match& m = (*matches)[i];
    bool ordered = i == 0 || std::make_pair((*matches)[i - 1].entry_a,
                                            (*matches)[i - 1].entry_b) <
                                 std::make_pair(m.entry_a, m.entry_b);
    if (m.entry_a >= m.entry_b || m.entry_b >= entries || !ordered ||
        !(m.score > 0) || m.pam_distance < refine.min_pam ||
        m.pam_distance > refine.max_pam) {
      batch->errors.push_back("align: malformed match in master file");
      return false;
    }
  }
  return true;
}

}  // namespace

Batch RunAlignBatch(const BatchRequest& request) {
  const Options& options = *request.options;
  Probe* probe = request.probe;
  Layers* layers = request.layers;
  Batch batch;
  batch.attempted = 1;
  const std::string dir = FreshDir(options, "align");

  const double setup_start = NowSeconds();
  AlignSetup setup;
  if (!SetUp(options, request.seed(), probe, dir, &setup)) {
    batch.Fail("align: set-up failed");
    return batch;
  }
  batch.setup_s.push_back(NowSeconds() - setup_start);
  World& world = *setup.world;

  const uint64_t events_before = world.sim.NumExecuted();
  std::string id;
  std::string exports;
  {
    Span phase(probe->tracer, "phase", "align");
    const double phase_start = NowSeconds();
    {
      Span span(probe->tracer, "core", "start_process");
      ocr::Value::Map args;
      args["db_name"] = ocr::Value("align-real");
      args["num_teus"] = ocr::Value(kNumTeus);
      auto started = world.engine->StartProcess("all_vs_all", args);
      if (!started.ok()) {
        batch.Fail("align: start failed");
        return batch;
      }
      id = *started;
    }
    {
      Span span(probe->tracer, "sim", "run");
      world.sim.Run();
    }
    exports = ExportRun(world, id, layers);
    batch.phase_s = NowSeconds() - phase_start;
  }
  layers->sim_events += world.sim.NumExecuted() - events_before;

  // --- checks ------------------------------------------------------------
  bool ok = CheckRun(world, id, /*exactly_once=*/true, &batch);
  auto master = world.engine->GetWhiteboardValue(id, "master_file");
  auto total = world.engine->GetWhiteboardValue(id, "total_matches");
  ok = ok && master.ok() && master->is_string() && total.ok() &&
       total->is_int() &&
       CheckMasterFile(master->AsString(), total->AsInt(),
                       setup.data->dataset.size(), &batch);
  if (ok && request.pinned()) {
    const bool digest_ok = CheckPin(
        "align.master_fnv1a64",
        static_cast<int64_t>(obs::Fnv1a64(master->AsString())), options,
        &batch);
    ok = CheckPin("align.total_matches", total->AsInt(), options, &batch) &&
         digest_ok;
  }
  if (!ok) ++batch.failed;
  auto summary = world.engine->Summary(id);
  if (summary.ok()) batch.tasks_done = summary->tasks_done;
  if (request.keep_exports) batch.exports.push_back(exports);
  const uint64_t n = setup.data->dataset.size();
  layers->sw_pairs += n * (n - 1) / 2;
  HarvestKernelLineage(world, id, layers);
  HarvestCounters(world, layers);
  HarvestCompleted(world, layers);
  const TimePoint crash_at = world.sim.Now();
  setup.world.reset();

  // --- restarts over the final store ---------------------------------------
  const int restarts = options.small ? 20 : kRestarts;
  core::EngineOptions engine_options;
  engine_options.seed = request.seed();
  for (int i = 0; i < restarts; ++i) {
    ++batch.attempted;
    World restarted(dir, engine_options, probe, false, crash_at);
    AddNodes(restarted.cluster.get());
    if (!restarted.ok() || !restarted.Startup().ok() ||
        restarted.engine->GetInstanceState(id).value_or(
            core::InstanceState::kFailed) != core::InstanceState::kDone) {
      batch.Fail("align: restart did not recover");
      continue;
    }
    batch.restart_ms.push_back(restarted.RestartMs());
    layers->open_ms.push_back(restarted.open_ms);
    layers->startup_ms.push_back(restarted.startup_ms);
  }
  RemoveDir(dir);
  return batch;
}

double AlignSetupOnly(const Options& options) {
  Probe probe;
  const std::string dir = FreshDir(options, "align_setup");
  const double start = NowSeconds();
  {
    AlignSetup setup;
    (void)SetUp(options, options.seed, &probe, dir, &setup);
  }
  const double elapsed = NowSeconds() - start;
  RemoveDir(dir);
  return elapsed;
}

}  // namespace perfbench
