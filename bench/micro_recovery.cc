// Engine-level dependability microbenchmarks (real time, not simulated):
// how long server recovery and backup takeover take as a function of how
// much process state has to be rebuilt from the spaces. This bounds the
// unavailability window the paper's crash events (Fig. 5, event 4) incur.
#include <benchmark/benchmark.h>

#include <filesystem>

#include "bench/bench_common.h"
#include "bench/bench_main.h"
#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "workloads/allvsall.h"

namespace biopera {
namespace {

struct RecoveryFixture {
  explicit RecoveryFixture(int num_teus) {
    dir = (std::filesystem::temp_directory_path() /
           ("biopera_recbench_" + std::to_string(::getpid()) + "_" +
            std::to_string(num_teus)))
              .string();
    std::filesystem::remove_all(dir);
    auto opened = RecordStore::Open(dir);
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < 4; ++i) {
      cluster->AddNode(
          {.name = "node" + std::to_string(i), .num_cpus = 2});
    }
    Rng rng(1);
    darwin::GeneratorOptions gen;
    gen.num_sequences = 2000;
    auto meta = darwin::GenerateDatasetMeta(gen, &rng);
    ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);
    workloads::RegisterAllVsAllActivities(&registry, ctx);
    engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                            &registry);
    engine->Startup();
    engine->RegisterTemplate(workloads::BuildAllVsAllProcess());
    engine->RegisterTemplate(workloads::BuildAlignPartitionProcess());
    ocr::Value::Map args;
    args["db_name"] = ocr::Value("recbench");
    args["num_teus"] = ocr::Value(num_teus);
    id = *engine->StartProcess("all_vs_all", args);
    // Run until roughly half the TEUs completed: a realistic mid-flight
    // state with hundreds of persisted records.
    while (true) {
      sim.RunFor(Duration::Minutes(30));
      auto summary = engine->Summary(id);
      if (!summary.ok() ||
          summary->state != core::InstanceState::kRunning ||
          summary->tasks_done * 2 >= summary->tasks_total) {
        break;
      }
    }
  }
  ~RecoveryFixture() {
    engine.reset();
    store.reset();
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::shared_ptr<workloads::AllVsAllContext> ctx;
  std::unique_ptr<core::Engine> engine;
  std::string id;
};

void BM_ServerCrashRecovery(benchmark::State& state) {
  RecoveryFixture fixture(static_cast<int>(state.range(0)));
  for (auto _ : state) {
    fixture.engine->Crash();
    benchmark::DoNotOptimize(fixture.engine->Startup());
  }
  auto summary = fixture.engine->Summary(fixture.id);
  state.counters["records"] = summary.ok()
                                  ? static_cast<double>(summary->tasks_total)
                                  : 0;
}
BENCHMARK(BM_ServerCrashRecovery)->Arg(32)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

/// A store holding `num_instances` completed two-stage instances on 4
/// nodes x 4 CPUs: the job shape and the per-shard cluster of a
/// sharded-service fleet, whose restart rebuilds every instance the shard
/// ever hosted.
struct ManyInstancesFixture {
  explicit ManyInstancesFixture(int num_instances) {
    dir = (std::filesystem::temp_directory_path() /
           ("biopera_recbench_many_" + std::to_string(::getpid()) + "_" +
            std::to_string(num_instances)))
              .string();
    std::filesystem::remove_all(dir);
    auto opened = RecordStore::Open(dir);
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < 4; ++i) {
      cluster->AddNode({.name = "node" + std::to_string(i), .num_cpus = 4});
    }
    bench::RegisterTwoStageJobActivities(&registry);
    core::EngineOptions options;
    options.adaptive_monitoring = false;
    engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                            &registry, options);
    engine->Startup();
    engine->RegisterTemplate(bench::TwoStageJobProcess("job"));
    for (int i = 0; i < num_instances; ++i) engine->StartProcess("job");
    sim.RunFor(Duration::Days(60));
  }
  ~ManyInstancesFixture() {
    engine.reset();
    store.reset();
    std::filesystem::remove_all(dir);
  }

  std::string dir;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::unique_ptr<core::Engine> engine;
};

void BM_ServerCrashRecoveryManyInstances(benchmark::State& state) {
  const auto num_instances = static_cast<size_t>(state.range(0));
  ManyInstancesFixture fixture(static_cast<int>(num_instances));
  size_t completed = 0;
  for (const core::InstanceSummary& s : fixture.engine->ListInstances()) {
    if (s.state == core::InstanceState::kDone) ++completed;
  }
  if (completed != num_instances) {
    state.SkipWithError("instances did not complete before the crash");
    return;
  }
  for (auto _ : state) {
    fixture.engine->Crash();
    benchmark::DoNotOptimize(fixture.engine->Startup());
  }
  state.counters["instances"] = static_cast<double>(completed);
}
BENCHMARK(BM_ServerCrashRecoveryManyInstances)->Arg(1000)->Arg(5000)
    ->Unit(benchmark::kMillisecond);

void BM_ColdStoreOpen(benchmark::State& state) {
  // Re-opening the store from disk (snapshot + WAL replay) — the part of
  // takeover a fresh process/backup host pays on top of engine recovery.
  RecoveryFixture fixture(static_cast<int>(state.range(0)));
  fixture.engine->Crash();
  fixture.engine.reset();
  std::string dir = fixture.dir;
  fixture.store.reset();
  for (auto _ : state) {
    auto reopened = RecordStore::Open(dir);
    benchmark::DoNotOptimize(reopened);
  }
  // Leave a store in place for the fixture destructor.
  auto reopened = RecordStore::Open(dir);
  if (reopened.ok()) fixture.store = std::move(*reopened);
}
BENCHMARK(BM_ColdStoreOpen)->Arg(128)->Arg(512)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace biopera

int main(int argc, char** argv) {
  return biopera::bench::RunBenchmarkMain(argc, argv, "BENCH_recovery.json");
}
