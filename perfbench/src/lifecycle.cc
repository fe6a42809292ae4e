// Workload `lifecycle`: the paper's Figure 5 and Figure 6 runs on the
// synthetic 80k-entry SP38 at 250 TEUs, each once fault-free and once
// under the partition storm. The scenario scripts replay
// bench/scenario.cc event for event on a World, so the benchmark can put
// its Fs decorator and activity wrappers under them; the self-test checks
// the replay's exports against RunSharedClusterScenario byte for byte.
#include <memory>
#include <string>

#include "bench/bench_common.h"
#include "cluster/external_load.h"
#include "cluster/failure.h"
#include "darwin/generator.h"
#include "src/pins.h"
#include "src/world.h"
#include "workloads/allvsall.h"

namespace perfbench {

using namespace biopera;

namespace {

constexpr size_t kSp38Entries = 80000;
constexpr int kNumTeus = 250;
/// Restarts measured over the fault-free Figure 5 run's final store (the
/// paper's event-4 server crash, repeated): one store shape, so the
/// restart percentiles do not straddle the four runs' different stores.
constexpr int kRestarts = 100;

struct Variant {
  const char* name;
  bool shared;  // Figure 5 (shared clusters) vs Figure 6 (ik-linux)
  bool storm;
  bool restarts;  // measure kRestarts restarts over the final store
};
constexpr Variant kVariants[] = {{"fig5", true, false, true},
                                 {"fig5_storm", true, true, false},
                                 {"fig6", false, false, false},
                                 {"fig6_storm", false, true, false}};

core::EngineOptions VariantOptions(const Variant& v, uint64_t seed) {
  core::EngineOptions options;
  options.dispatch_retry = Duration::Minutes(10);
  options.checkpoint_every_commits = 5000;
  options.seed = seed;
  if (v.storm) {
    options.heartbeat_interval = Duration::Minutes(5);
    options.lease_misses_to_suspect = 3;
    options.lease_condemn_grace = Duration::Minutes(45);
    options.job_timeout_factor = 3.0;
  }
  return options;
}

void AddClusters(const Variant& v, cluster::ClusterSim* cluster) {
  if (v.shared) {
    bench::AddLinneusCluster(cluster);
    bench::AddIkSunCluster(cluster, /*nodes=*/2);
  } else {
    bench::AddIkLinuxCluster(cluster, /*cpus=*/1);
  }
}

void ArmPartitionStorm(World* world, cluster::FailureInjector* inject,
                       Rng* fault_rng, Rng* env_rng) {
  comms::FaultProfile profile;
  profile.drop = 0.02;
  profile.dup = 0.03;
  profile.delay = 0.02;
  profile.reorder = 0.03;
  profile.delay_min = Duration::Seconds(5);
  profile.delay_max = Duration::Minutes(2);
  world->channel->SetRandomFaults(profile, fault_rng);
  inject->StartRandomPartitions(world->channel.get(), Duration::Hours(8),
                                Duration::Minutes(20), env_rng);
  inject->StartRandomFlaps(world->channel.get(), Duration::Hours(12),
                           Duration::Minutes(1), env_rng);
}

void RunFor(World* world, Duration d) {
  Span span(world->probe->tracer, "sim", "run_for");
  world->sim.RunFor(d);
}

bool IsDone(World* world, const std::string& id) {
  Span span(world->probe->tracer, "core", "state");
  auto state = world->engine->GetInstanceState(id);
  return state.ok() && *state == core::InstanceState::kDone;
}

void RunToCompletion(World* world, const std::string& id, double max_days) {
  while (world->sim.Now().SinceEpoch().ToDays() < max_days) {
    RunFor(world, Duration::Hours(6));
    if (IsDone(world, id)) break;
  }
}

void QuiesceAfterStorm(World* world, cluster::FailureInjector* inject,
                       const std::string& id) {
  world->channel->StopRandomFaults();
  inject->StopRandomPartitions();
  inject->StopRandomFlaps();
  for (const auto& node : world->cluster->Nodes()) {
    world->cluster->RepairNode(node.name);
    world->channel->SetConnected(node.name, true);
  }
  for (int i = 0; i < 280; ++i) {
    RunFor(world, Duration::Hours(6));
    auto state = world->engine->GetInstanceState(id);
    if (!state.ok()) break;
    if (*state == core::InstanceState::kDone) break;
    if (*state == core::InstanceState::kFailed) {
      Span span(world->probe->tracer, "core", "restart");
      (void)world->engine->Restart(id);
    }
  }
}

/// The ten Figure 5 disturbance events (bench/scenario.cc), scheduled
/// onto the world's timeline.
void ScheduleFigure5(World* world, cluster::FailureInjector* inject,
                     cluster::ExternalLoadGenerator* external,
                     const std::string& id) {
  core::Engine* engine = world->engine.get();
  cluster::ClusterSim* cluster = world->cluster.get();
  Simulator* sim = &world->sim;
  const TimePoint t0 = TimePoint::FromMicros(0);
  inject->ScheduleAction(t0 + Duration::Days(2.0),
                         "1: other user needs cluster (suspend)",
                         [engine, id] { engine->Suspend(id); });
  sim->ScheduleAt(t0 + Duration::Days(3.5),
                  [engine, id] { engine->Resume(id); });
  external->ScheduleHeavyPeriod(t0 + Duration::Days(5), Duration::Days(3),
                                "2: cluster busy with other jobs");
  inject->ScheduleClusterOutage(t0 + Duration::Days(10), Duration::Hours(12),
                                "3: cluster failure");
  inject->ScheduleAction(t0 + Duration::Days(13), "4: BioOpera server crash",
                         [engine] { engine->Crash(); });
  sim->ScheduleAt(t0 + Duration::Days(13) + Duration::Hours(4),
                  [engine] { engine->Startup(); });
  inject->ScheduleDiskFullWindow(t0 + Duration::Days(16), Duration::Days(1.5),
                                 world->fault_fs.get(),
                                 "5: disk space shortage");
  inject->ScheduleAction(t0 + Duration::Days(17.5),
                         "6: storage fixed, process restarted",
                         [engine, id] { engine->Restart(id); });
  sim->ScheduleAt(t0 + Duration::Days(21), [cluster] {
    cluster->Annotate("7: hardware failure (half the nodes)");
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < nodes.size() / 2; ++i) {
      cluster->CrashNode(nodes[i].name);
    }
  });
  sim->ScheduleAt(t0 + Duration::Days(21) + Duration::Hours(8), [cluster] {
    for (const auto& node : cluster->Nodes()) cluster->RepairNode(node.name);
  });
  external->ScheduleHeavyPeriod(t0 + Duration::Days(23), Duration::Days(3.5),
                                "8: cluster busy with other jobs");
  sim->ScheduleAt(t0 + Duration::Days(28), [cluster] {
    cluster->Annotate("9: some nodes unavailable");
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < 6 && i < nodes.size(); ++i) {
      cluster->CrashNode(nodes[i].name);
    }
  });
  sim->ScheduleAt(t0 + Duration::Days(30), [cluster] {
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < 6 && i < nodes.size(); ++i) {
      cluster->RepairNode(nodes[i].name);
    }
  });
  sim->ScheduleAt(t0 + Duration::Days(32), [cluster] {
    cluster->Annotate("10: TEUs fail to report (software problem)");
    cluster->SetConnected("ik-sun0", false);
    cluster->SetConnected("ik-sun1", false);
  });
  sim->ScheduleAt(t0 + Duration::Days(33),
                  [engine, id] { engine->Restart(id); });
  sim->ScheduleAt(t0 + Duration::Days(34), [cluster] {
    cluster->SetConnected("ik-sun0", true);
    cluster->SetConnected("ik-sun1", true);
  });
}

/// Figure 6's two planned network outages and the day-25 CPU upgrade.
void ScheduleFigure6(World* world, cluster::FailureInjector* inject,
                     const std::string& id) {
  core::Engine* engine = world->engine.get();
  cluster::ClusterSim* cluster = world->cluster.get();
  for (double day : {9.0, 18.0}) {
    world->sim.ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(day),
                          [engine, cluster, id] {
                            cluster->Annotate("planned network outage");
                            engine->Suspend(id);
                            cluster->SetAllConnected(false);
                          });
    world->sim.ScheduleAt(
        TimePoint::FromMicros(0) + Duration::Days(day) + Duration::Hours(10),
        [engine, cluster, id] {
          cluster->SetAllConnected(true);
          engine->Resume(id);
        });
  }
  inject->ScheduleCpuUpgrade(TimePoint::FromMicros(0) + Duration::Days(25), 2,
                             "OS config change: 2nd processor per node");
}

std::shared_ptr<workloads::AllVsAllContext> MakeSp38Context(uint64_t seed,
                                                            size_t entries) {
  Rng rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = entries;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  return workloads::MakeSyntheticContext(std::move(meta.lengths),
                                         std::move(meta.family_of));
}

/// A lifecycle run's world after set-up, with the environment its
/// scenario script draws from. The seed generates the dataset; the
/// disturbance environment (other users' load, the storm's faults and
/// partitions) is the fixed Figure 5/6 timeline of the paper's runs, so
/// every seed replays the same disturbances over different data. Members
/// are declared so the rngs outlive the world and the load generator.
struct Scenario {
  Rng env_rng{kPinnedSeed ^ 0xfeedULL};
  Rng storm_fault_rng{kPinnedSeed ^ 0xfa17ULL};
  Rng storm_env_rng{kPinnedSeed ^ 0x5707ULL};
  std::unique_ptr<World> world;
  std::shared_ptr<workloads::AllVsAllContext> ctx;
  std::unique_ptr<cluster::ExternalLoadGenerator> external;
};

/// Builds the world in the order bench/scenario.cc does; false on error.
bool SetUpScenario(const Variant& v, uint64_t seed, size_t entries,
                   Probe* probe, const std::string& dir, Scenario* s) {
  s->world = std::make_unique<World>(dir, VariantOptions(v, seed), probe,
                                     v.storm);
  World& world = *s->world;
  if (!world.ok()) return false;
  AddClusters(v, world.cluster.get());
  s->ctx = MakeSp38Context(seed, entries);
  if (v.shared) {
    cluster::ExternalLoadOptions load;
    load.mean_busy = Duration::Hours(14);
    load.mean_idle = Duration::Hours(9);
    load.fill_all_probability = 0.75;
    s->external = std::make_unique<cluster::ExternalLoadGenerator>(
        world.cluster.get(), load, &s->env_rng);
    s->external->Start();
  }
  return RegisterAllVsAll(&world, s->ctx).ok() && world.Startup().ok() &&
         RegisterAllVsAllTemplates(&world).ok();
}

/// One scenario run: set-up, the measured run and its exports, checks,
/// then (fault-free Figure 5 only) restarts over the final store.
void RunVariant(const BatchRequest& request, const Variant& v, Batch* batch) {
  const Options& options = *request.options;
  Probe* probe = request.probe;
  Layers* layers = request.layers;
  const uint64_t seed = request.seed();
  const std::string dir = FreshDir(options, std::string("lifecycle_") + v.name);
  ++batch->attempted;

  const double setup_start = NowSeconds();
  Scenario scenario;
  if (!SetUpScenario(v, seed, options.small ? 8000 : kSp38Entries, probe, dir,
                     &scenario)) {
    batch->Fail(std::string(v.name) + ": set-up failed");
    return;
  }
  batch->setup_s.push_back(NowSeconds() - setup_start);
  World* world = scenario.world.get();

  // --- measured phase ----------------------------------------------------
  const uint64_t events_before = world->sim.NumExecuted();
  std::string id;
  std::string exports;
  {
    Span phase(probe->tracer, "phase", v.name);
    const double phase_start = NowSeconds();
    {
      Span span(probe->tracer, "core", "start_process");
      ocr::Value::Map args;
      args["db_name"] = ocr::Value("SP38-synthetic");
      args["num_teus"] = ocr::Value(kNumTeus);
      auto started = world->engine->StartProcess("all_vs_all", args);
      if (!started.ok()) {
        batch->Fail(std::string(v.name) + ": start failed");
        return;
      }
      id = *started;
    }
    cluster::FailureInjector inject(world->cluster.get());
    if (v.storm) {
      ArmPartitionStorm(world, &inject, &scenario.storm_fault_rng,
                        &scenario.storm_env_rng);
    }
    if (v.shared) {
      ScheduleFigure5(world, &inject, scenario.external.get(), id);
    } else {
      ScheduleFigure6(world, &inject, id);
    }
    RunToCompletion(world, id, v.storm ? 120 : 90);
    if (v.storm) QuiesceAfterStorm(world, &inject, id);
    exports = ExportRun(*world, id, layers);
    batch->phase_s += NowSeconds() - phase_start;
  }
  layers->sim_events += world->sim.NumExecuted() - events_before;

  // --- checks ------------------------------------------------------------
  auto summary = world->engine->Summary(id);
  const bool run_ok = CheckRun(*world, id, /*exactly_once=*/v.storm, batch);
  auto total = world->engine->GetWhiteboardValue(id, "total_matches");
  auto truth = SyntheticGroundTruth(*world, id, *scenario.ctx);
  bool ok = run_ok && summary.ok() && total.ok() && total->is_int() &&
            truth.ok();
  if (ok && total->AsInt() != *truth) {
    batch->errors.push_back(std::string(v.name) +
                            ": total_matches differs from ground truth");
    ok = false;
  }
  if (ok && request.pinned()) {
    ok = CheckPin(std::string("lifecycle.") + v.name + ".wall_us",
                  summary->stats.WallTime().micros(), options, batch) &&
         ok;
    ok = CheckPin(std::string("lifecycle.") + v.name + ".cpu_us",
                  summary->stats.CpuTime().micros(), options, batch) &&
         ok;
    ok = CheckPin(std::string("lifecycle.") + v.name + ".total_matches",
                  total->AsInt(), options, batch) &&
         ok;
  }
  if (!ok) ++batch->failed;
  if (summary.ok()) batch->tasks_done += summary->tasks_done;
  if (request.keep_exports) batch->exports.push_back(exports);
  HarvestCounters(*world, layers);
  HarvestCompleted(*world, layers);
  const TimePoint crash_at = world->sim.Now();
  scenario.external.reset();
  scenario.world.reset();

  // --- restarts over the final store ---------------------------------------
  for (int i = 0; v.restarts && i < kRestarts; ++i) {
    ++batch->attempted;
    World restarted(dir, VariantOptions(v, seed), probe, v.storm, crash_at);
    AddClusters(v, restarted.cluster.get());
    if (!restarted.ok() || !restarted.Startup().ok() ||
        restarted.engine->GetInstanceState(id).value_or(
            core::InstanceState::kFailed) != core::InstanceState::kDone) {
      batch->Fail(std::string(v.name) + ": restart did not recover");
      continue;
    }
    batch->restart_ms.push_back(restarted.RestartMs());
    layers->open_ms.push_back(restarted.open_ms);
    layers->startup_ms.push_back(restarted.startup_ms);
  }
  RemoveDir(dir);
}

}  // namespace

Batch RunLifecycleBatch(const BatchRequest& request) {
  Batch batch;
  for (const Variant& v : kVariants) RunVariant(request, v, &batch);
  return batch;
}

double LifecycleSetupOnly(const Options& options) {
  Probe probe;
  const std::string dir = FreshDir(options, "lifecycle_setup");
  const double start = NowSeconds();
  {
    Scenario scenario;
    (void)SetUpScenario(kVariants[0], options.seed,
                        options.small ? 8000 : kSp38Entries, &probe, dir,
                        &scenario);
  }
  const double elapsed = NowSeconds() - start;
  RemoveDir(dir);
  return elapsed;
}

}  // namespace perfbench
