// Observability overhead microbench: what the fleet instrumentation
// costs when it is attached, and — the contract the engine hot paths
// keep — that it costs a null check when it is not.
//
// Three parts:
//
//  * Primitive loops: the wall-profile RAII scope with a null profile
//    (the detached fast path: one branch in, one branch out) vs an
//    active profile (two clock reads + bucket arithmetic), and one
//    P-square StreamingQuantile observation. Reported as ns/op.
//
//  * Workload A/B/C: the same deterministic 600-instance two-stage
//    workload on one engine, run (A) fully detached — no observability
//    context, no wall profile, no cost sensor, every hook reduced to its
//    null check — (B) with the observability context attached, and (C)
//    with the context plus the wall profile and job-cost sensor the
//    sharded service installs per shard. All three runs must agree on
//    the virtual outcome (tasks dispatched, virtual makespan) exactly:
//    instrumentation observes the run, it must never steer it.
//
//    Each mode is timed over 5 windows, interleaved across the modes so
//    host drift hits all three alike; a window runs the workload back to
//    back until at least 1 s of it has been timed and reads the mean wall
//    time of one run. A mode reports the median of its 5 windows.
//
//  * Export throughput: the four span exporters (per-sink JSONL and
//    Chrome trace, fleet JSONL and Chrome federation) over the sinks of a
//    perfbench-`fleet`-shaped service — 2 shards plus the front door, a
//    closed batch of 10k two-stage instances, about 110k spans — as
//    ns/span and MB/s, each the median of 5 exports.
//
// Wall-clock ratios are reported and gated only generously (attached
// within 2x of detached) because CI noise is real; the byte-exact
// virtual-outcome agreement of every run is the hard gate.
//
// `--json[=path]` writes BENCH_obs.json for the CI artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "cluster/cluster.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "core/engine.h"
#include "obs/barrier_profile.h"
#include "obs/fleet.h"
#include "obs/quantile.h"
#include "obs/trace.h"
#include "service/service.h"
#include "sim/simulator.h"
#include "store/record_store.h"

namespace biopera::bench {
namespace {

constexpr int kNodes = 4;
constexpr int kCpusPerNode = 4;
constexpr int kInstances = 600;
constexpr int kWindows = 5;
constexpr double kWindowSeconds = 1.0;
/// perfbench fleet's batch: instances, shards and tenants.
constexpr int kFleetInstances = 10000;
constexpr int kFleetShards = 2;
constexpr int kFleetTenants = 4;
constexpr int kExportReps = 5;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string MakeRunDir(const std::string& tag) {
  auto base = std::filesystem::temp_directory_path() / "biopera_obs_bench";
  std::filesystem::create_directories(base);
  auto dir = base / (tag + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

enum class Mode { kDetached, kAttached, kAttachedProfile };

const char* ModeName(Mode mode) {
  switch (mode) {
    case Mode::kDetached:
      return "detached";
    case Mode::kAttached:
      return "attached";
    case Mode::kAttachedProfile:
      return "attached_profile";
  }
  return "?";
}

struct WorkloadResult {
  double wall_seconds = 0;
  // Virtual outcome — identical across modes by contract. (The engine's
  // dispatched *counter* lives in the metrics registry and so does not
  // exist detached; completed tasks and the busy clock are mode-blind.)
  uint64_t tasks_done = 0;
  uint64_t busy_virtual_us = 0;
  double virtual_hours = 0;
};

/// One full run of the workload in `mode`; the world is built by hand
/// (not BenchWorld) because BenchWorld always attaches its own
/// observability context — here detaching it is the whole point.
WorkloadResult RunWorkloadOnce(Mode mode, int run) {
  Simulator sim;
  std::string dir = MakeRunDir(StrFormat("%s_r%d", ModeName(mode), run));
  auto opened = RecordStore::Open(dir);
  if (!opened.ok()) std::abort();
  std::unique_ptr<RecordStore> store = std::move(*opened);
  cluster::ClusterSim cluster(&sim);
  for (int n = 0; n < kNodes; ++n) {
    Status st = cluster.AddNode({.name = StrFormat("obs-n%d", n),
                                 .num_cpus = kCpusPerNode,
                                 .speed = 1.0});
    if (!st.ok()) std::abort();
  }
  core::ActivityRegistry registry;
  RegisterTwoStageJobActivities(&registry);

  obs::Observability obs;
  obs.SetClock(&sim);
  obs::WallProfile wall_profile;
  obs::QuantileSensor job_cost_sensor;

  core::EngineOptions options;
  options.adaptive_monitoring = false;
  if (mode != Mode::kDetached) options.observability = &obs;
  if (mode == Mode::kAttachedProfile) {
    options.wall_profile = &wall_profile;
    options.job_cost_sensor = &job_cost_sensor;
    store->SetWallProfile(&wall_profile);
  }

  core::Engine engine(&sim, &cluster, store.get(), &registry, options);
  if (!engine.Startup().ok()) std::abort();
  if (!engine.RegisterTemplate(TwoStageJobProcess("obs_job")).ok()) {
    std::abort();
  }

  double start = NowSeconds();
  for (int i = 0; i < kInstances; ++i) {
    if (!engine.StartProcess("obs_job", {}).ok()) std::abort();
  }
  sim.RunFor(Duration::Days(30));
  double wall = NowSeconds() - start;

  WorkloadResult out;
  for (const core::InstanceSummary& inst : engine.ListInstances()) {
    if (inst.tasks_done != inst.tasks_total) {
      std::fprintf(stderr, "micro_obs: instance %s incomplete\n",
                   inst.id.c_str());
      std::abort();
    }
    out.tasks_done += inst.tasks_done;
  }
  out.wall_seconds = wall;
  out.busy_virtual_us = engine.GetDispatchStats().busy_virtual_us;
  out.virtual_hours = sim.Now().SinceEpoch().ToHours();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

bool SameOutcome(const WorkloadResult& a, const WorkloadResult& b) {
  return a.tasks_done == b.tasks_done &&
         a.busy_virtual_us == b.busy_virtual_us &&
         a.virtual_hours == b.virtual_hours;
}

double Median(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  return values[values.size() / 2];
}

/// ns per iteration of `body` over `iters` runs (single timed pass; the
/// loop itself is the measurement, so iters is large).
template <typename Body>
double NsPerOp(uint64_t iters, Body body) {
  double start = NowSeconds();
  for (uint64_t i = 0; i < iters; ++i) body(i);
  return (NowSeconds() - start) * 1e9 / static_cast<double>(iters);
}

/// Runs perfbench fleet's closed batch — 2 shards of 4 nodes x 4 CPUs, a
/// 1 h barrier quantum, 10k two-stage instances from 4 tenants — to
/// quiescence and times the four span exporters over its sinks.
void MeasureExports(BenchJson* json) {
  const std::string dir = MakeRunDir("fleet");
  core::ActivityRegistry registry;
  RegisterTwoStageJobActivities(&registry);
  service::ServiceOptions options;
  options.shards = kFleetShards;
  options.seed = 38;
  options.barrier_quantum = Duration::Hours(1);
  options.shard.engine.adaptive_monitoring = false;
  options.configure_cluster = [](int index, cluster::ClusterSim* cluster) {
    for (int n = 0; n < kNodes; ++n) {
      Status st = cluster->AddNode({.name = StrFormat("s%d-n%d", index, n),
                                    .num_cpus = kCpusPerNode,
                                    .speed = 1.0});
      if (!st.ok()) std::abort();
    }
  };
  service::ShardedService svc(dir, &registry, options);
  if (!svc.Startup().ok() ||
      !svc.RegisterTemplate(TwoStageJobProcess("shard_job")).ok()) {
    std::abort();
  }
  Rng rng(38);
  for (int i = 0; i < kFleetInstances; ++i) {
    service::Submission sub;
    sub.tenant = StrFormat(
        "t%d", static_cast<int>(rng.NextUint64(kFleetTenants)));
    sub.template_name = "shard_job";
    if (!svc.Submit(sub).ok()) std::abort();
  }
  svc.RunUntilQuiescent(/*max_barriers=*/1 << 20);

  std::vector<obs::FleetSource> sources = {{-1, &svc.fleet_obs().spans}};
  for (int i = 0; i < kFleetShards; ++i) {
    sources.push_back({i, &svc.shard(i)->obs.spans});
  }
  size_t spans = 0;
  for (const obs::FleetSource& source : sources) {
    spans += source.spans->size();
  }
  // Each returns the bytes it wrote.
  auto per_sink = [&sources](std::string (obs::SpanSink::*exporter)()
                                 const) {
    size_t bytes = 0;
    for (const obs::FleetSource& source : sources) {
      bytes += (source.spans->*exporter)().size();
    }
    return bytes;
  };
  const std::pair<const char*, std::function<size_t()>> exporters[] = {
      {"ExportJsonl", [&] { return per_sink(&obs::SpanSink::ExportJsonl); }},
      {"ExportChromeTrace",
       [&] { return per_sink(&obs::SpanSink::ExportChromeTrace); }},
      {"FederateSpansJsonl",
       [&] { return obs::FederateSpansJsonl(sources).size(); }},
      {"FederateChromeTrace",
       [&] { return obs::FederateChromeTrace(sources).size(); }},
  };

  std::printf("export throughput: %zu spans (front door + %d shards, "
              "%d instances)\n",
              spans, kFleetShards, kFleetInstances);
  TextTable table(
      {"exporter", "MB", "ms (median of 5)", "ns/span", "MB/s"});
  for (const auto& [name, run] : exporters) {
    std::vector<double> seconds;
    size_t bytes = 0;
    for (int rep = 0; rep < kExportReps; ++rep) {
      const double start = NowSeconds();
      bytes = run();
      seconds.push_back(NowSeconds() - start);
    }
    const double median = Median(seconds);
    const double ns_per_span = median * 1e9 / static_cast<double>(spans);
    const double mb_per_s = static_cast<double>(bytes) / 1e6 / median;
    table.AddRow({name, StrFormat("%.1f", bytes / 1e6),
                  StrFormat("%.1f", median * 1e3),
                  StrFormat("%.0f", ns_per_span),
                  StrFormat("%.0f", mb_per_s)});
    json->Add(StrFormat("export_%s", name),
              {{"spans", static_cast<double>(spans)},
               {"bytes", static_cast<double>(bytes)},
               {"seconds", median},
               {"ns_per_span", ns_per_span},
               {"mb_per_s", mb_per_s}});
  }
  std::printf("%s\n", table.ToString().c_str());
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

int Main(int argc, char** argv) {
  std::string json_path = JsonPathFromArgs(argc, argv, "BENCH_obs.json");
  std::printf("== Observability overhead: detached vs attached ==\n\n");

  BenchJson json("micro_obs");

  // --- Primitive loops -----------------------------------------------------
  constexpr uint64_t kOps = 10'000'000;
  obs::WallProfile profile;
  double null_scope_ns = NsPerOp(kOps, [](uint64_t) {
    obs::WallProfile::Scope scope(nullptr, obs::WallProfile::kPump);
  });
  double active_scope_ns = NsPerOp(kOps, [&profile](uint64_t) {
    obs::WallProfile::Scope scope(&profile, obs::WallProfile::kKernel);
  });
  uint64_t drained[obs::WallProfile::kNumBuckets];
  profile.Drain(drained);  // keep the active loop observable

  Rng rng(1234);
  obs::StreamingQuantile q99(0.99);
  double observe_ns = NsPerOp(kOps, [&](uint64_t) {
    q99.Observe(rng.NextDouble());
  });

  std::printf("null wall-profile scope   %7.2f ns/op\n", null_scope_ns);
  std::printf("active wall-profile scope %7.2f ns/op\n", active_scope_ns);
  std::printf("quantile observe (P^2)    %7.2f ns/op  (p99 est %.3f)\n\n",
              observe_ns, q99.Estimate());
  json.Add("null_scope", {{"ns_per_op", null_scope_ns}});
  json.Add("active_scope", {{"ns_per_op", active_scope_ns}});
  json.Add("quantile_observe",
           {{"ns_per_op", observe_ns}, {"p99_estimate", q99.Estimate()}});

  // --- Workload A/B/C ------------------------------------------------------
  const Mode modes[] = {Mode::kDetached, Mode::kAttached,
                        Mode::kAttachedProfile};
  // A first, untimed run sets the virtual outcome every run must reach.
  const WorkloadResult reference = RunWorkloadOnce(Mode::kDetached, 0);
  bool outcome_identical = true;
  std::vector<double> windows[3];
  int run = 1;
  for (int w = 0; w < kWindows; ++w) {
    for (int m = 0; m < 3; ++m) {
      double timed = 0;
      int runs = 0;
      while (timed < kWindowSeconds) {
        WorkloadResult r = RunWorkloadOnce(modes[m], run++);
        outcome_identical = outcome_identical && SameOutcome(r, reference);
        timed += r.wall_seconds;
        ++runs;
      }
      windows[m].push_back(timed / runs);
    }
  }
  double wall[3];
  for (int m = 0; m < 3; ++m) wall[m] = Median(windows[m]);

  TextTable table({"mode", "ms per run (median of 5 windows)", "vs detached",
                   "tasks done", "busy virt h"});
  const char* names[] = {"detached", "attached", "attached+profile"};
  for (int m = 0; m < 3; ++m) {
    table.AddRow({names[m], StrFormat("%.2f", wall[m] * 1e3),
                  StrFormat("%.2fx", wall[m] / wall[0]),
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        reference.tasks_done)),
                  StrFormat("%.1f", reference.busy_virtual_us / 3.6e9)});
  }
  std::printf("%s\n", table.ToString().c_str());

  const double attached_ratio = wall[1] / wall[0];
  const double profiled_ratio = wall[2] / wall[0];
  json.Add("workload_detached",
           {{"wall_seconds", wall[0]},
            {"windows", kWindows},
            {"window_seconds", kWindowSeconds},
            {"tasks_done", static_cast<double>(reference.tasks_done)},
            {"busy_virtual_us", static_cast<double>(reference.busy_virtual_us)},
            {"virtual_hours", reference.virtual_hours}});
  json.Add("workload_attached", {{"wall_seconds", wall[1]},
                                 {"overhead_vs_detached", attached_ratio}});
  json.Add("workload_attached_profile",
           {{"wall_seconds", wall[2]},
            {"overhead_vs_detached", profiled_ratio}});

  // --- Export throughput ---------------------------------------------------
  MeasureExports(&json);

  // Hard gate: instrumentation must not steer the run — every run of
  // every mode reached the identical virtual outcome (checked above).
  // Soft gate, sized for CI noise: attached within 2x of detached.
  bool overhead_ok = attached_ratio <= 2.0 && profiled_ratio <= 2.0;
  std::printf("virtual outcome identical across modes: %s\n",
              outcome_identical ? "yes" : "NO");
  std::printf("attached overhead %.2fx, with profile %.2fx (<= 2x): %s\n",
              attached_ratio, profiled_ratio,
              overhead_ok ? "ok" : "ABOVE TARGET");
  json.Add("gates", {{"virtual_outcome_identical", outcome_identical ? 1. : 0.},
                     {"overhead_within_bound", overhead_ok ? 1. : 0.}});
  if (!outcome_identical || !overhead_ok) return 1;

  if (!json_path.empty() && !json.Write(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace biopera::bench

int main(int argc, char** argv) { return biopera::bench::Main(argc, argv); }
