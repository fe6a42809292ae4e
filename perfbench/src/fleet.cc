// Workload `fleet`: a ShardedService with 2 shards pumped concurrently on
// a 2-thread pool, 4 tenants, and a closed batch of two-stage instances
// (the shard_saturation job shape, 1 virtual-hour barrier quantum), all
// submitted up front and barriered to quiescence. The front door, the
// dispatcher and the store write path do the work; activity code is
// about zero.
#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "exec/thread_pool.h"
#include "obs/invariants.h"
#include "ocr/builder.h"
#include "service/router.h"
#include "service/service.h"
#include "src/pins.h"
#include "src/world.h"

namespace perfbench {

using namespace biopera;

namespace {

constexpr int kShards = 2;
constexpr int kPoolThreads = 2;
constexpr int kTenants = 4;
constexpr int kInstances = 10000;
constexpr int kNodesPerShard = 4;
constexpr int kCpusPerNode = 4;
/// Restarting a shard recovers every instance it hosts (about 3.4 s at
/// 5,000 on a 4-core host), so one restart per batch.
constexpr int kRestarts = 1;

const std::vector<std::string> kBindings = {"bench.prepare", "bench.run"};

ocr::ProcessDef JobProcess() {
  auto def = ocr::ProcessBuilder("shard_job")
                 .Task(ocr::TaskBuilder::Activity("prepare", "bench.prepare"))
                 .Task(ocr::TaskBuilder::Activity("run", "bench.run"))
                 .Connect("prepare", "run")
                 .Build();
  return std::move(*def);
}

Status RegisterJobActivities(core::ActivityRegistry* registry) {
  auto activity = [](Duration cost) {
    return [cost](const core::ActivityInput&) -> Result<core::ActivityOutput> {
      core::ActivityOutput out;
      out.cost = cost;
      return out;
    };
  };
  BIOPERA_RETURN_IF_ERROR(
      registry->Register("bench.prepare", activity(Duration::Minutes(30))));
  return registry->Register("bench.run", activity(Duration::Hours(1)));
}

void ConfigureCluster(int index, cluster::ClusterSim* cluster) {
  for (int n = 0; n < kNodesPerShard; ++n) {
    (void)cluster->AddNode({.name = StrFormat("s%d-n%d", index, n),
                            .num_cpus = kCpusPerNode,
                            .speed = 1.0});
  }
}

service::ServiceOptions FleetOptions(uint64_t seed, exec::ThreadPool* pool) {
  service::ServiceOptions options;
  options.shards = kShards;
  options.seed = seed;
  options.pool = pool;
  options.barrier_quantum = Duration::Hours(1);
  options.shard.engine.adaptive_monitoring = false;
  options.configure_cluster = ConfigureCluster;
  return options;
}

struct FleetSetup {
  std::unique_ptr<exec::ThreadPool> pool;
  core::ActivityRegistry registry;
  std::unique_ptr<service::ShardedService> service;
};

/// Builds and starts the service; false on failure.
bool SetUp(const Options& options, Probe* probe, const std::string& dir,
           FleetSetup* setup) {
  setup->pool = std::make_unique<exec::ThreadPool>(kPoolThreads);
  if (!RegisterJobActivities(&setup->registry).ok()) return false;
  if (probe->activities != nullptr &&
      !WrapActivities(&setup->registry, kBindings, probe->tracer,
                      probe->activities)
           .ok()) {
    return false;
  }
  setup->service = std::make_unique<service::ShardedService>(
      dir, &setup->registry, FleetOptions(options.seed, setup->pool.get()));
  Span span(probe->tracer, "service", "startup");
  return setup->service->Startup().ok() &&
         setup->service->RegisterTemplate(JobProcess()).ok();
}

}  // namespace

Batch RunFleetBatch(const BatchRequest& request) {
  const Options& options = *request.options;
  Probe* probe = request.probe;
  Layers* layers = request.layers;
  Batch batch;
  const int instances = options.small ? 1000 : kInstances;
  const std::string dir = FreshDir(options, "fleet");

  const double setup_start = NowSeconds();
  FleetSetup setup;
  if (!SetUp(options, probe, dir, &setup)) {
    batch.attempted = 1;
    batch.Fail("fleet: set-up failed");
    return batch;
  }
  batch.setup_s.push_back(NowSeconds() - setup_start);
  service::ShardedService& svc = *setup.service;

  // Tenants are drawn from the seed; the program sees only submissions.
  Rng rng(request.seed());
  std::vector<service::Submission> submissions(instances);
  for (service::Submission& sub : submissions) {
    sub.tenant = StrFormat("t%d", static_cast<int>(rng.NextUint64(kTenants)));
    sub.template_name = "shard_job";
  }

  std::vector<std::string> ids;
  ids.reserve(instances);
  const uint64_t barrier_wall_before = svc.GetStats().barrier_wall_ns;
  uint64_t step_ns = 0;
  std::string exports;
  {
    Span phase(probe->tracer, "phase", "fleet");
    const double phase_start = NowSeconds();
    for (const service::Submission& sub : submissions) {
      Span span(probe->tracer, "service", "submit");
      const uint64_t t0 = NowNs();
      auto ticket = svc.Submit(sub);
      layers->submit_us.push_back((NowNs() - t0) / 1e3);
      ++batch.attempted;
      if (!ticket.ok() || ticket->backlogged) {
        batch.Fail("fleet: submission refused");
        continue;
      }
      ids.push_back(ticket->global_id);
    }
    while (true) {
      Span span(probe->tracer, "service", "barrier");
      const uint64_t t0 = NowNs();
      const bool advanced = svc.StepBarrier();
      const uint64_t elapsed = NowNs() - t0;
      if (!advanced) break;
      step_ns += elapsed;
      layers->barrier_ms.push_back(elapsed / 1e6);
    }
    {
      Span span(probe->tracer, "obs", "export");
      const uint64_t t0 = NowNs();
      // ExportFleetLineage is left out: it costs O(instances x provenance
      // rows) (11.5 s at 10k instances on a 4-core host) and would turn
      // this workload into a lineage-export benchmark.
      std::string spans = svc.ExportFleetSpans();
      std::string chrome = svc.ExportFleetChrome();
      std::string report = svc.BuildFleetReport();
      layers->export_ns += NowNs() - t0;
      layers->export_bytes += spans.size() + chrome.size() + report.size();
      exports = spans + report;
    }
    batch.phase_s = NowSeconds() - phase_start;
  }

  // --- checks ------------------------------------------------------------
  service::ServiceStats stats = svc.GetStats();
  size_t not_done = 0;
  for (const std::string& id : ids) {
    auto state = svc.GetState(id);
    if (!state.ok() || *state != core::InstanceState::kDone) ++not_done;
  }
  if (not_done > 0 || stats.live != 0) {
    batch.failed += std::max<size_t>(not_done, 1);
    batch.errors.push_back(StrFormat("fleet: %zu instances not done",
                                     not_done));
  }
  if (stats.dispatched != 2ull * ids.size()) {
    batch.Fail(StrFormat("fleet: dispatched %llu, expected %zu",
                         static_cast<unsigned long long>(stats.dispatched),
                         2 * ids.size()));
  }
  std::string tiling_error;
  if (!svc.barrier_profiler()->CheckTiling(&tiling_error)) {
    batch.Fail("fleet: barrier tiling broken: " + tiling_error);
  }
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    if (!obs::CheckExactlyOnce(svc.shard(s)->obs.spans).empty()) {
      batch.Fail(StrFormat("fleet: shard %d exactly-once violated", s));
    }
  }
  if (request.pinned()) {
    const bool virtual_ok = CheckPin(
        "fleet.virtual_us", svc.VirtualNow().micros(), options, &batch);
    const bool dispatched_ok =
        CheckPin("fleet.dispatched", static_cast<int64_t>(stats.dispatched),
                 options, &batch);
    if (!virtual_ok || !dispatched_ok) ++batch.failed;
  }
  if (request.keep_exports) batch.exports.push_back(exports);

  // --- per-layer counters ----------------------------------------------------
  layers->service_barriers += stats.barriers;
  layers->service_overhead_ns +=
      step_ns - std::min(step_ns, stats.barrier_wall_ns - barrier_wall_before);
  double step_max = 0, step_sum = 0;
  for (const auto& t : svc.barrier_profiler()->totals()) {
    layers->service_pump_ns += t.pump_ns;
    layers->service_kernel_ns += t.kernel_ns;
    layers->service_store_ns += t.store_ns;
    layers->service_idle_ns += t.idle_ns;
    layers->service_wait_ns += t.wait_ns;
    step_max = std::max(step_max, static_cast<double>(t.step_ns));
    step_sum += static_cast<double>(t.step_ns);
  }
  if (step_sum > 0) {
    layers->step_skew.push_back(step_max / (step_sum / svc.hosted_shards()));
  }
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    service::EngineShard* shard = svc.shard(s);
    layers->sim_events += shard->sim.NumExecuted();
    core::Engine::DispatchStats dispatch = shard->engine->GetDispatchStats();
    layers->dispatched += dispatch.dispatched;
    layers->pump_runs += dispatch.pump_runs;
    layers->entries_scanned += dispatch.entries_scanned;
    obs::MetricsSnapshot snapshot = shard->obs.metrics.Snapshot();
    auto metric = [&snapshot](const char* key) -> uint64_t {
      const auto* entry = snapshot.Find(key);
      return entry != nullptr ? static_cast<uint64_t>(entry->value) : 0;
    };
    layers->service_store_commits += metric("store_commits_total");
    layers->store_commits += metric("store_commits_total");
    layers->store_checkpoints += metric("store_checkpoints_total");
    layers->trace_dropped += metric("trace_events_dropped_total");
    layers->obs_spans += shard->obs.spans.size();
    for (const core::InstanceSummary& s2 : shard->engine->ListInstances()) {
      batch.tasks_done += s2.tasks_done;
      layers->activities_completed += s2.stats.activities_completed;
    }
  }
  layers->obs_spans += svc.fleet_obs().spans.size();
  setup.service.reset();

  // --- restarts of shard 0's server over its final store -------------------
  const std::string shard_dir = dir + "/shard-000";
  core::EngineOptions engine_options = FleetOptions(options.seed, nullptr)
                                           .shard.engine;
  engine_options.seed = service::ShardSeed(options.seed, 0);
  for (int i = 0; i < kRestarts; ++i) {
    ++batch.attempted;
    World restarted(shard_dir, engine_options, probe);
    ConfigureCluster(0, restarted.cluster.get());
    if (!restarted.ok() || !restarted.Startup().ok()) {
      batch.Fail("fleet: shard restart failed");
      continue;
    }
    batch.restart_ms.push_back(restarted.RestartMs());
    layers->open_ms.push_back(restarted.open_ms);
    layers->startup_ms.push_back(restarted.startup_ms);
  }
  RemoveDir(dir);
  return batch;
}

double FleetSetupOnly(const Options& options) {
  Probe probe;
  const std::string dir = FreshDir(options, "fleet_setup");
  const double start = NowSeconds();
  {
    FleetSetup setup;
    (void)SetUp(options, &probe, dir, &setup);
  }
  const double elapsed = NowSeconds() - start;
  RemoveDir(dir);
  return elapsed;
}

}  // namespace perfbench
