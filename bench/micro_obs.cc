// Observability overhead microbench: what the fleet instrumentation
// costs when it is attached, and — the contract the engine hot paths
// keep — that it costs a null check when it is not.
//
// Two layers:
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
// Wall-clock ratios are reported and gated only generously (attached
// within 2x of detached on the min of 5 reps) because CI noise is real;
// the byte-exact virtual-outcome agreement is the hard gate.
//
// `--json[=path]` writes BENCH_obs.json for the CI artifact.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
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
#include "obs/quantile.h"
#include "obs/trace.h"
#include "sim/simulator.h"
#include "store/record_store.h"

namespace biopera::bench {
namespace {

constexpr int kNodes = 4;
constexpr int kCpusPerNode = 4;
constexpr int kInstances = 600;
constexpr int kReps = 5;

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
  double wall_seconds = 0;  // min over kReps
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
WorkloadResult RunWorkloadOnce(Mode mode, int rep) {
  Simulator sim;
  std::string dir = MakeRunDir(StrFormat("%s_r%d", ModeName(mode), rep));
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

WorkloadResult RunWorkload(Mode mode) {
  WorkloadResult best;
  for (int rep = 0; rep < kReps; ++rep) {
    WorkloadResult r = RunWorkloadOnce(mode, rep);
    if (rep == 0 || r.wall_seconds < best.wall_seconds) best = r;
  }
  return best;
}

/// ns per iteration of `body` over `iters` runs (single timed pass; the
/// loop itself is the measurement, so iters is large).
template <typename Body>
double NsPerOp(uint64_t iters, Body body) {
  double start = NowSeconds();
  for (uint64_t i = 0; i < iters; ++i) body(i);
  return (NowSeconds() - start) * 1e9 / static_cast<double>(iters);
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
  WorkloadResult detached = RunWorkload(Mode::kDetached);
  WorkloadResult attached = RunWorkload(Mode::kAttached);
  WorkloadResult profiled = RunWorkload(Mode::kAttachedProfile);

  TextTable table({"mode", "wall s (min of 5)", "vs detached", "tasks done",
                   "busy virt h"});
  const WorkloadResult* rows[] = {&detached, &attached, &profiled};
  const char* names[] = {"detached", "attached", "attached+profile"};
  for (int i = 0; i < 3; ++i) {
    double ratio = detached.wall_seconds == 0
                       ? 0
                       : rows[i]->wall_seconds / detached.wall_seconds;
    table.AddRow({names[i], StrFormat("%.4f", rows[i]->wall_seconds),
                  StrFormat("%.2fx", ratio),
                  StrFormat("%llu",
                            static_cast<unsigned long long>(
                                rows[i]->tasks_done)),
                  StrFormat("%.1f", rows[i]->busy_virtual_us / 3.6e9)});
  }
  std::printf("%s\n", table.ToString().c_str());

  double attached_ratio = detached.wall_seconds == 0
                              ? 1
                              : attached.wall_seconds / detached.wall_seconds;
  double profiled_ratio = detached.wall_seconds == 0
                              ? 1
                              : profiled.wall_seconds / detached.wall_seconds;
  json.Add("workload_detached",
           {{"wall_seconds", detached.wall_seconds},
            {"tasks_done", static_cast<double>(detached.tasks_done)},
            {"busy_virtual_us", static_cast<double>(detached.busy_virtual_us)},
            {"virtual_hours", detached.virtual_hours}});
  json.Add("workload_attached",
           {{"wall_seconds", attached.wall_seconds},
            {"overhead_vs_detached", attached_ratio},
            {"tasks_done", static_cast<double>(attached.tasks_done)}});
  json.Add("workload_attached_profile",
           {{"wall_seconds", profiled.wall_seconds},
            {"overhead_vs_detached", profiled_ratio},
            {"tasks_done", static_cast<double>(profiled.tasks_done)}});

  // Hard gate: instrumentation must not steer the run — every mode
  // reaches the identical virtual outcome.
  bool outcome_identical =
      detached.tasks_done == attached.tasks_done &&
      detached.tasks_done == profiled.tasks_done &&
      detached.busy_virtual_us == attached.busy_virtual_us &&
      detached.busy_virtual_us == profiled.busy_virtual_us &&
      detached.virtual_hours == attached.virtual_hours &&
      detached.virtual_hours == profiled.virtual_hours;
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
