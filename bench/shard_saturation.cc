// Saturation bench of the sharded multi-engine service: how many process
// instances the virtual laboratory sustains as engine shards are added.
//
// Each shard owns a 16-CPU cluster partition, so shard count scales the
// lab's aggregate capacity the way adding machine rooms did for BioOpera:
// throughput is measured in *virtual* time (tasks dispatched per virtual
// hour at quiescence) because that is the quantity the paper's weeks-long
// runs care about. Wall-clock cost is reported alongside — the run's wall
// seconds, tasks per wall-second, and the lockstep barriers' cost per
// barrier — so the cost of reproducing a level stays visible next to
// the virtual result. On a single-core host the shards pump sequentially
// inside each barrier, so wall time is NOT expected to drop with shard
// count; aggregate virtual throughput is.
//
// The curve: live-instance levels 1000 -> 10000 at 1, 2, 4 and 8 shards,
// plus a same-seed determinism self-check (two identical 2-shard runs
// must produce byte-identical per-shard span exports, byte-identical
// *federated* fleet span exports and byte-identical FLEETREPORT text).
//
// Every level also reports where barrier wall time went — the
// barrier-stall profiler's pump/kernel/store/idle/wait attribution,
// which must tile each shard's barrier wall time exactly (checked here
// as an exit gate), and the step skew (slowest shard's total step wall
// over the mean) that says how lopsided the lockstep fleet was.
//
// `--json[=path]` writes BENCH_shard.json for the CI artifact.
// `--fleet-trace[=path]` / `--fleet-report[=path]` additionally run one
// small 2-shard fleet and write the federated Chrome trace and the
// operator FLEETREPORT + HEALTH + barrier breakdown for inspection.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/strings.h"
#include <fstream>
#include "common/table.h"
#include "core/engine.h"
#include "obs/barrier_profile.h"
#include "service/service.h"

namespace biopera::bench {
namespace {

using service::ServiceOptions;
using service::ShardedService;
using service::Submission;

constexpr int kNodesPerShard = 4;
constexpr int kCpusPerNode = 4;

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string MakeRunDir(const std::string& tag) {
  auto base = std::filesystem::temp_directory_path() / "biopera_shard_bench";
  std::filesystem::create_directories(base);
  auto dir = base / (tag + "." + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  return dir.string();
}

struct RunResult {
  double virtual_hours = 0;
  double tasks_per_virtual_hour = 0;
  uint64_t dispatched = 0;
  uint64_t barriers = 0;
  double barrier_wall_ms_avg = 0;
  double wall_seconds = 0;
  double tasks_per_wall_second = 0;
  uint64_t pump_runs = 0;
  // Barrier-stall attribution, summed over shards and barriers (ms of
  // wall time; pump+kernel+store+idle+wait covers every shard's barrier
  // wall exactly — `tiling_ok` is the profiler's own invariant check).
  double stall_pump_ms = 0;
  double stall_kernel_ms = 0;
  double stall_store_ms = 0;
  double stall_idle_ms = 0;
  double stall_wait_ms = 0;
  // Slowest shard's total step wall over the mean shard's (1.0 = even).
  double step_skew = 0;
  bool tiling_ok = false;
  std::vector<std::string> shard_spans;
  std::string fleet_spans;
  std::string fleet_report;
};

/// Operator-facing artifacts from a dedicated small fleet run
/// (--fleet-trace / --fleet-report).
struct FleetArtifacts {
  std::string chrome;   // federated Chrome trace (one pid per shard)
  std::string report;   // FLEETREPORT + HEALTH + barrier breakdown
};

/// Submits `live` instances against `shards` shards and barriers the
/// service to quiescence; with `export_spans` the per-shard span exports
/// are captured for the determinism self-check.
RunResult RunLevel(int shards, int live, uint64_t seed, bool export_spans,
                   FleetArtifacts* artifacts = nullptr) {
  core::ActivityRegistry registry;
  RegisterTwoStageJobActivities(&registry);

  ServiceOptions options;
  options.shards = shards;
  options.seed = seed;
  // One virtual hour per barrier. Any quantum yields the same per-shard
  // execution; keeping this one fixed keeps barrier counts and table rows
  // comparable across commits.
  options.barrier_quantum = Duration::Hours(1);
  options.shard.engine.adaptive_monitoring = false;
  options.configure_cluster = [](int index, cluster::ClusterSim* cluster) {
    for (int n = 0; n < kNodesPerShard; ++n) {
      Status st = cluster->AddNode(
          {.name = StrFormat("s%d-n%d", index, n),
           .num_cpus = kCpusPerNode,
           .speed = 1.0});
      if (!st.ok()) std::abort();
    }
  };

  std::string dir =
      MakeRunDir(StrFormat("s%d_l%d_%llu", shards, live,
                           static_cast<unsigned long long>(seed)));
  ShardedService svc(dir, &registry, options);
  if (!svc.Startup().ok()) std::abort();
  if (!svc.RegisterTemplate(TwoStageJobProcess("shard_job")).ok()) std::abort();

  double start = NowSeconds();
  for (int i = 0; i < live; ++i) {
    Submission sub;
    sub.tenant = StrFormat("t%d", i % 4);
    sub.template_name = "shard_job";
    auto ticket = svc.Submit(sub);
    if (!ticket.ok() || ticket->backlogged) std::abort();
  }
  svc.RunUntilQuiescent(/*max_barriers=*/1 << 20);
  double wall = NowSeconds() - start;

  service::ServiceStats stats = svc.GetStats();
  if (stats.live != 0) {
    std::fprintf(stderr, "shard_saturation: %zu instances still live\n",
                 stats.live);
    std::abort();
  }
  RunResult out;
  out.virtual_hours = svc.VirtualNow().SinceEpoch().ToHours();
  out.dispatched = stats.dispatched;
  out.tasks_per_virtual_hour =
      out.virtual_hours == 0 ? 0 : stats.dispatched / out.virtual_hours;
  out.barriers = stats.barriers;
  out.barrier_wall_ms_avg =
      stats.barriers == 0
          ? 0
          : stats.barrier_wall_ns / 1e6 / static_cast<double>(stats.barriers);
  out.wall_seconds = wall;
  out.tasks_per_wall_second = wall == 0 ? 0 : stats.dispatched / wall;
  out.pump_runs = stats.pump_runs;
  const obs::BarrierProfiler* profiler = svc.barrier_profiler();
  std::string tiling_error;
  out.tiling_ok = profiler->CheckTiling(&tiling_error);
  if (!out.tiling_ok) {
    std::fprintf(stderr, "shard_saturation: barrier tiling broken: %s\n",
                 tiling_error.c_str());
  }
  double step_sum = 0, step_max = 0;
  for (const obs::BarrierProfiler::ShardTotals& t : profiler->totals()) {
    out.stall_pump_ms += t.pump_ns / 1e6;
    out.stall_kernel_ms += t.kernel_ns / 1e6;
    out.stall_store_ms += t.store_ns / 1e6;
    out.stall_idle_ms += t.idle_ns / 1e6;
    out.stall_wait_ms += t.wait_ns / 1e6;
    step_sum += static_cast<double>(t.step_ns);
    step_max = std::max(step_max, static_cast<double>(t.step_ns));
  }
  double step_mean = step_sum / svc.hosted_shards();
  out.step_skew = step_mean == 0 ? 1.0 : step_max / step_mean;
  if (export_spans) {
    for (int s = 0; s < svc.hosted_shards(); ++s) {
      out.shard_spans.push_back(svc.ExportShardSpans(s));
    }
    out.fleet_spans = svc.ExportFleetSpans();
    out.fleet_report = svc.BuildFleetReport();
  }
  if (artifacts != nullptr) {
    artifacts->chrome = svc.ExportFleetChrome();
    artifacts->report = svc.BuildFleetReport() + "\n" +
                        svc.EvaluateHealth().ToText() + "\n" +
                        svc.ExportBarrierProfile();
  }
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  return out;
}

/// Parses `--<name>[=path]` the way JsonPathFromArgs parses `--json`:
/// bare flag resolves to `default_path`, absent flag to "".
std::string PathFlagFromArgs(int argc, char** argv, const std::string& name,
                             const std::string& default_path) {
  const std::string bare = "--" + name;
  const std::string prefixed = bare + "=";
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == bare) return default_path;
    if (arg.rfind(prefixed, 0) == 0) return arg.substr(prefixed.size());
  }
  return "";
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  out.close();
  if (!out) {
    std::fprintf(stderr, "shard_saturation: cannot write %s\n", path.c_str());
    return false;
  }
  std::printf("wrote %s\n", path.c_str());
  return true;
}

int Main(int argc, char** argv) {
  std::string json_path = JsonPathFromArgs(argc, argv, "BENCH_shard.json");
  std::string trace_path =
      PathFlagFromArgs(argc, argv, "fleet-trace", "fleet_trace.json");
  std::string report_path =
      PathFlagFromArgs(argc, argv, "fleet-report", "fleet_report.txt");
  std::printf("== Sharded service saturation: 1k -> 10k instances ==\n\n");

  const std::vector<int> kShardCounts = {1, 2, 4, 8};
  const std::vector<int> kLevels = {1000, 4000, 10000};

  BenchJson json("shard_saturation");
  TextTable table({"shards", "live", "virt hours", "tasks/vh", "barriers",
                   "barrier ms", "skew", "wait ms", "wall s",
                   "tasks/wall-s"});
  // tasks/virtual-hour at the top level, per shard count, for the speedup
  // summary rows.
  std::vector<double> top_throughput(kShardCounts.size(), 0);
  bool tiling_ok = true;

  for (size_t si = 0; si < kShardCounts.size(); ++si) {
    int shards = kShardCounts[si];
    for (int live : kLevels) {
      RunResult r = RunLevel(shards, live, /*seed=*/42, false);
      tiling_ok = tiling_ok && r.tiling_ok;
      table.AddRow({StrFormat("%d", shards), StrFormat("%d", live),
                    StrFormat("%.0f", r.virtual_hours),
                    StrFormat("%.1f", r.tasks_per_virtual_hour),
                    StrFormat("%llu",
                              static_cast<unsigned long long>(r.barriers)),
                    StrFormat("%.2f", r.barrier_wall_ms_avg),
                    StrFormat("%.2f", r.step_skew),
                    StrFormat("%.1f", r.stall_wait_ms),
                    StrFormat("%.2f", r.wall_seconds),
                    StrFormat("%.0f", r.tasks_per_wall_second)});
      json.Add(StrFormat("shards_%d_live_%d", shards, live),
               {{"shards", static_cast<double>(shards)},
                {"live_instances", static_cast<double>(live)},
                {"virtual_hours", r.virtual_hours},
                {"tasks_dispatched", static_cast<double>(r.dispatched)},
                {"tasks_per_virtual_hour", r.tasks_per_virtual_hour},
                {"barriers", static_cast<double>(r.barriers)},
                {"barrier_wall_ms_avg", r.barrier_wall_ms_avg},
                {"pump_runs", static_cast<double>(r.pump_runs)},
                {"stall_pump_ms", r.stall_pump_ms},
                {"stall_kernel_ms", r.stall_kernel_ms},
                {"stall_store_ms", r.stall_store_ms},
                {"stall_idle_ms", r.stall_idle_ms},
                {"stall_wait_ms", r.stall_wait_ms},
                {"step_skew", r.step_skew},
                {"stall_tiling_ok", r.tiling_ok ? 1.0 : 0.0},
                {"wall_seconds", r.wall_seconds},
                {"tasks_per_wall_s", r.tasks_per_wall_second}});
      if (live == kLevels.back()) top_throughput[si] = r.tasks_per_virtual_hour;
    }
  }
  std::printf("%s\n", table.ToString().c_str());

  // Aggregate virtual throughput vs the single-shard baseline: each shard
  // brings its own 16-CPU partition, so the curve should be near-linear.
  for (size_t si = 0; si < kShardCounts.size(); ++si) {
    double speedup = top_throughput[0] == 0
                         ? 0
                         : top_throughput[si] / top_throughput[0];
    std::printf("%d shard(s): %.1f tasks/virtual-hour (%.2fx vs 1 shard)\n",
                kShardCounts[si], top_throughput[si], speedup);
    json.Add(StrFormat("speedup_%dshards", kShardCounts[si]),
             {{"shards", static_cast<double>(kShardCounts[si])},
              {"tasks_per_virtual_hour", top_throughput[si]},
              {"speedup_vs_1shard", speedup}});
  }
  bool scaled = top_throughput.back() >= 3.0 * top_throughput[0];
  std::printf("aggregate throughput at 8 shards: %s (>= 3x required)\n\n",
              scaled ? "ok" : "BELOW TARGET");

  // Same-seed determinism self-check: two identical 2-shard runs must
  // export byte-identical per-shard spans, byte-identical federated
  // fleet spans (global ids included) and byte-identical FLEETREPORT
  // text (tenant tables, straggler sensors, SLO verdicts).
  RunResult a = RunLevel(2, 1000, /*seed=*/7, true);
  RunResult b = RunLevel(2, 1000, /*seed=*/7, true);
  tiling_ok = tiling_ok && a.tiling_ok && b.tiling_ok;
  bool identical = a.shard_spans == b.shard_spans &&
                   a.fleet_spans == b.fleet_spans &&
                   a.fleet_report == b.fleet_report;
  std::printf("same-seed 2-shard reruns byte-identical: %s\n",
              identical ? "yes" : "NO");
  std::printf("barrier-stall tiling exact on every run: %s\n",
              tiling_ok ? "yes" : "NO");
  json.Add("determinism_check",
           {{"exports_byte_identical", identical ? 1.0 : 0.0},
            {"fleet_exports_byte_identical",
             a.fleet_spans == b.fleet_spans ? 1.0 : 0.0},
            {"fleet_report_byte_identical",
             a.fleet_report == b.fleet_report ? 1.0 : 0.0},
            {"stall_tiling_ok", tiling_ok ? 1.0 : 0.0},
            {"shards", 2.0},
            {"live_instances", 1000.0}});

  // Operator artifacts from one dedicated small fleet, on request.
  if (!trace_path.empty() || !report_path.empty()) {
    FleetArtifacts artifacts;
    RunLevel(2, 400, /*seed=*/11, false, &artifacts);
    if (!trace_path.empty() && !WriteFile(trace_path, artifacts.chrome)) {
      return 1;
    }
    if (!report_path.empty() && !WriteFile(report_path, artifacts.report)) {
      return 1;
    }
  }
  if (!identical || !scaled || !tiling_ok) return 1;

  if (!json_path.empty() && !json.Write(json_path)) return 1;
  return 0;
}

}  // namespace
}  // namespace biopera::bench

int main(int argc, char** argv) { return biopera::bench::Main(argc, argv); }
