#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <string>
#include <vector>

#include "obs/barrier_profile.h"
#include "src/bench.h"
#include "src/timing.h"
#include "src/tracer.h"

namespace perfbench {

namespace {

/// Metrics in print order, each with its unit.
class MetricList {
 public:
  void Add(const std::string& name, double value, const std::string& unit) {
    if (!std::isfinite(value)) value = 0;
    metrics_.push_back({name, value, unit});
  }

  void Print() const {
    for (const Metric& m : metrics_) {
      std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                  m.unit.c_str());
    }
  }

  std::string Json() const {
    std::string out = "{";
    char buf[128];
    for (size_t i = 0; i < metrics_.size(); ++i) {
      std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, ",
                    i == 0 ? "" : ", ", metrics_[i].name.c_str(),
                    metrics_[i].value);
      out += buf;
      out += "\"unit\": \"" + metrics_[i].unit + "\"}";
    }
    return out + "}";
  }

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
};

double PeakRssMb() {
  struct rusage usage;
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double Ratio(double num, double den) { return den > 0 ? num / den : 0; }

/// Self time per layer over the measured phases, on the calling thread.
struct LayerTimes {
  std::map<std::string, uint64_t> self_ns;  // calling thread, in phase
  uint64_t phase_ns = 0;                    // Σ phase span durations
  uint64_t attributed_ns = 0;               // Σ self_ns
};

LayerTimes ComputeLayerTimes(const std::vector<SpanRecord>& spans) {
  LayerTimes out;
  const std::vector<uint64_t> self = SelfTimesNs(spans);
  // Parents always precede children (ids are handed out at Begin), so one
  // forward pass resolves each span's root.
  std::vector<size_t> root(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const int64_t parent = spans[i].parent;
    root[i] = parent < 0 ? i : root[static_cast<size_t>(parent)];
  }
  for (size_t i = 0; i < spans.size(); ++i) {
    if (std::string(spans[root[i]].layer) != "phase") continue;
    if (root[i] == i) out.phase_ns += spans[i].end_ns - spans[i].start_ns;
    if (spans[i].thread != 0) continue;
    out.self_ns[spans[i].layer] += self[i];
    out.attributed_ns += self[i];
  }
  return out;
}

bool WriteFile(const std::string& path, const std::string& content) {
  std::ofstream out(path, std::ios::binary);
  out << content;
  return static_cast<bool>(out);
}

struct Totals {
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;
  std::vector<double> setup_s;
  std::vector<double> restart_ms;
  double phase_s = 0;
  uint64_t tasks = 0;
  std::vector<double> batch_rates;  // tasks per phase-second, per batch

  void Add(const Batch& b) {
    attempted += b.attempted;
    failed += b.failed;
    errors.insert(errors.end(), b.errors.begin(), b.errors.end());
    setup_s.insert(setup_s.end(), b.setup_s.begin(), b.setup_s.end());
    restart_ms.insert(restart_ms.end(), b.restart_ms.begin(),
                      b.restart_ms.end());
    phase_s += b.phase_s;
    tasks += b.tasks_done;
    batch_rates.push_back(Ratio(b.tasks_done, b.phase_s));
  }
  /// The median batch's throughput: one slow batch on a shared host does
  /// not move it.
  double TasksPerSecond() const { return Percentile(batch_rates, 50); }
};

void AddEndToEnd(const Totals& totals, MetricList* metrics) {
  TimingSummary setup = Summarize(totals.setup_s);
  TimingSummary restart = Summarize(totals.restart_ms);
  int p90_used = 0;
  const double p90 = TailAt(totals.restart_ms, 90, &p90_used);
  std::printf("set-up:   %s\n", setup.ToText("s").c_str());
  std::printf("restarts: %s; recovery_ms_p90 taken at p%d\n",
              restart.ToText("ms").c_str(), p90_used);
  std::printf("measured: %.3f s of phase, %llu tasks, %zu batches; "
              "tasks/s per batch %s\n",
              totals.phase_s, static_cast<unsigned long long>(totals.tasks),
              totals.batch_rates.size(),
              Summarize(totals.batch_rates).ToText("1/s").c_str());
  metrics->Add("setup_s", setup.median, "s");
  metrics->Add("tasks_per_s", totals.TasksPerSecond(), "1/s");
  metrics->Add("recovery_ms_p50", restart.median, "ms");
  metrics->Add("recovery_ms_p90", p90, "ms");
  metrics->Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(const Options& options, const Layers& layers,
                 const Totals& totals, const Tracer& tracer,
                 const FsCounters& fs, const ActivityStats& activities,
                 const biopera::obs::WallProfile& wall,
                 double untraced_tasks_per_s, MetricList* metrics,
                 Totals* checks) {
  using biopera::obs::WallProfile;
  const std::vector<SpanRecord> spans = tracer.Spans();
  const LayerTimes times = ComputeLayerTimes(spans);
  auto self_s = [&times](const char* layer) {
    auto it = times.self_ns.find(layer);
    return it == times.self_ns.end() ? 0.0 : it->second / 1e9;
  };
  const double phase_s = times.phase_ns / 1e9;
  const double tiling_gap =
      Ratio(std::fabs(static_cast<double>(times.attributed_ns) -
                      static_cast<double>(times.phase_ns)),
            static_cast<double>(times.phase_ns));
  std::printf("layer self time on the calling thread (phase %.3f s):\n",
              phase_s);
  for (const auto& [layer, ns] : times.self_ns) {
    std::printf("  %-10s %10.4f s  %5.1f%%\n", layer.c_str(), ns / 1e9,
                100 * Ratio(ns, times.phase_ns));
  }
  std::printf("  tiling gap %.4f%% of phase (limit 1%%)\n", 100 * tiling_gap);
  if (tiling_gap > 0.01) {
    ++checks->failed;
    checks->errors.push_back("layer self times do not tile the phase");
  }

  const auto bindings = activities.ByBinding();
  auto binding_s = [&bindings](const char* name) {
    auto it = bindings.find(name);
    return it == bindings.end() ? 0.0 : it->second.ns / 1e9;
  };
  const std::vector<double> call_us = activities.CallMicros();
  const double activity_s = activities.TotalNs() / 1e9;
  const double calls = static_cast<double>(activities.TotalCalls());
  const double fixed_pam_s = binding_s("darwin.fixed_pam");
  const double refine_s = binding_s("darwin.refine");
  const double store_commits = static_cast<double>(layers.store_commits);
  const double traced_tps = totals.TasksPerSecond();

  metrics->Add("sim.events", layers.sim_events, "count");
  metrics->Add("sim.self_s", self_s("sim"), "s");
  metrics->Add("core.dispatched", layers.dispatched, "count");
  metrics->Add("core.pump_runs", layers.pump_runs, "count");
  metrics->Add("core.entries_scanned", layers.entries_scanned, "count");
  metrics->Add("core.pump_s",
               wall.bucket_ns(WallProfile::kPump) / 1e9 +
                   layers.service_pump_ns / 1e9,
               "s");
  metrics->Add("core.startup_ms_p50", Percentile(layers.startup_ms, 50), "ms");
  metrics->Add("core.startup_ms_p90", TailAt(layers.startup_ms, 90), "ms");
  metrics->Add("core.recovered_tasks", layers.recovered_tasks, "count");
  metrics->Add("core.self_s", self_s("core"), "s");
  metrics->Add("store.appends", fs.appends.load(), "count");
  metrics->Add("store.append_bytes", fs.append_bytes.load(), "B");
  metrics->Add("store.flushes", fs.flushes.load(), "count");
  metrics->Add("store.syncs", fs.syncs.load(), "count");
  metrics->Add("store.sync_s", fs.sync_ns.load() / 1e9, "s");
  metrics->Add("store.commits", layers.store_commits, "count");
  metrics->Add("store.checkpoints", layers.store_checkpoints, "count");
  metrics->Add("store.bytes_per_commit",
               Ratio(fs.append_bytes.load(), store_commits), "B");
  metrics->Add("store.s",
               wall.bucket_ns(WallProfile::kStore) / 1e9 +
                   layers.service_store_ns / 1e9,
               "s");
  metrics->Add("store.open_ms_p50", Percentile(layers.open_ms, 50), "ms");
  metrics->Add("store.open_ms_p90", TailAt(layers.open_ms, 90), "ms");
  metrics->Add("store.read_bytes", fs.read_bytes.load(), "B");
  metrics->Add("store.self_s", self_s("store"), "s");
  metrics->Add("darwin.fixed_pam_s", fixed_pam_s, "s");
  metrics->Add("darwin.refine_s", refine_s, "s");
  metrics->Add("darwin.cells", layers.sw_cells, "count");
  metrics->Add("darwin.cells_per_s", Ratio(layers.sw_cells, fixed_pam_s),
               "1/s");
  metrics->Add("darwin.rescore_ratio",
               Ratio(layers.sw_rescored, layers.sw_pairs), "1");
  metrics->Add("workloads.activity_calls", calls, "count");
  metrics->Add("workloads.activity_s", activity_s, "s");
  metrics->Add("workloads.activity_us_p50", Percentile(call_us, 50), "us");
  metrics->Add("workloads.activity_us_p99", TailAt(call_us, 99), "us");
  metrics->Add("workloads.self_s", self_s("workloads"), "s");
  metrics->Add("exec.spec_waste_ratio",
               std::max(0.0, Ratio(calls - layers.activities_completed, calls)),
               "1");
  metrics->Add("exec.preexec_batches", layers.preexec_batches, "count");
  metrics->Add("exec.preexec_activities", layers.preexec_activities, "count");
  metrics->Add("exec.preexec_lookahead", layers.preexec_lookahead, "count");
  metrics->Add("exec.parallelism", Ratio(activity_s, phase_s), "1");
  metrics->Add("service.submit_us_p50", Percentile(layers.submit_us, 50),
               "us");
  metrics->Add("service.submit_us_p99", TailAt(layers.submit_us, 99), "us");
  metrics->Add("service.barriers", layers.service_barriers, "count");
  metrics->Add("service.barrier_ms_p50", Percentile(layers.barrier_ms, 50),
               "ms");
  metrics->Add("service.barrier_ms_p95", TailAt(layers.barrier_ms, 95), "ms");
  metrics->Add("service.overhead_s", layers.service_overhead_ns / 1e9, "s");
  metrics->Add("service.pump_s", layers.service_pump_ns / 1e9, "s");
  metrics->Add("service.kernel_s", layers.service_kernel_ns / 1e9, "s");
  metrics->Add("service.store_s", layers.service_store_ns / 1e9, "s");
  metrics->Add("service.idle_s", layers.service_idle_ns / 1e9, "s");
  metrics->Add("service.wait_s", layers.service_wait_ns / 1e9, "s");
  metrics->Add("service.step_skew", Percentile(layers.step_skew, 50), "1");
  metrics->Add("service.store_commits", layers.service_store_commits,
               "count");
  metrics->Add("service.self_s", self_s("service"), "s");
  metrics->Add("obs.spans", layers.obs_spans, "count");
  metrics->Add("obs.export_s", layers.export_ns / 1e9, "s");
  metrics->Add("obs.export_bytes", layers.export_bytes, "B");
  metrics->Add("obs.trace_dropped", layers.trace_dropped, "count");
  metrics->Add("monitor.samples", layers.monitor_samples, "count");
  metrics->Add("monitor.reports", layers.monitor_reports, "count");
  metrics->Add("comms.messages", layers.comms_messages, "count");
  metrics->Add("comms.faults", layers.comms_faults, "count");
  metrics->Add("comms.suspected", layers.comms_suspected, "count");
  metrics->Add("comms.condemned", layers.comms_condemned, "count");
  metrics->Add("comms.kill_retries", layers.comms_kill_retries, "count");
  metrics->Add("trace.phase_s", phase_s, "s");
  metrics->Add("trace.unattributed_s", self_s("phase"), "s");
  metrics->Add("trace.tiling_gap_ratio", tiling_gap, "1");
  metrics->Add("trace.spans", static_cast<double>(spans.size()), "count");
  metrics->Add("trace.overhead_ratio",
               Ratio(untraced_tasks_per_s - traced_tps, untraced_tasks_per_s),
               "1");
  std::printf("tracing overhead: %.1f tasks/s traced vs %.1f untraced "
              "(%+.1f%%)\n",
              traced_tps, untraced_tasks_per_s,
              100 * Ratio(untraced_tasks_per_s - traced_tps,
                          untraced_tasks_per_s));

  // The split each workload was chosen for, as shares of the phase.
  const std::string& w = options.workload;
  double share = 0;
  const char* what = "";
  if (w == "lifecycle") {
    what = "workloads.activity_s + sim.self_s";
    share = Ratio(activity_s + self_s("sim"), phase_s);
  } else if (w == "fleet") {
    what = "service.overhead_s + service.store_s";
    share = Ratio((layers.service_overhead_ns + layers.service_store_ns) / 1e9,
                  phase_s);
  } else if (w == "align") {
    what = "darwin.fixed_pam_s + darwin.refine_s (all threads)";
    share = Ratio(fixed_pam_s + refine_s,
                  fixed_pam_s + refine_s + phase_s - self_s("workloads"));
  } else if (w == "recovery") {
    what = "store.open + core.startup";
    double restart_sum = 0;
    for (double ms : totals.restart_ms) restart_sum += ms / 1e3;
    share = Ratio(restart_sum, phase_s);
  }
  std::printf("split check: %s = %.1f%% of the work (%s)\n", what,
              100 * share, share >= 0.5 ? "dominates" : "does NOT dominate");
}

}  // namespace

uint64_t SubSeed(uint64_t seed, int index) {
  return index == 0 ? seed
                    : seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(index);
}

uint64_t BatchRequest::seed() const { return SubSeed(options->seed, index); }

bool BatchRequest::pinned() const {
  return index == 0 && options->seed == kPinnedSeed && !options->small;
}

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"lifecycle", "fleet",
                                                 "align", "recovery"};
  return names;
}

bool IsWorkload(const std::string& name) {
  const auto& names = WorkloadNames();
  return std::find(names.begin(), names.end(), name) != names.end();
}

Batch RunBatch(const BatchRequest& request) {
  const std::string& w = request.options->workload;
  if (w == "lifecycle") return RunLifecycleBatch(request);
  if (w == "fleet") return RunFleetBatch(request);
  if (w == "align") return RunAlignBatch(request);
  return RunRecoveryBatch(request);
}

double SetupOnly(const Options& options) {
  const std::string& w = options.workload;
  if (w == "lifecycle") return LifecycleSetupOnly(options);
  if (w == "fleet") return FleetSetupOnly(options);
  if (w == "align") return AlignSetupOnly(options);
  return RecoverySetupOnly(options);
}

int RunDriver(const Options& options) {
  constexpr size_t kMinSetupSamples = 5;
  Tracer tracer;
  FsCounters fs;
  ActivityStats activities;
  biopera::obs::WallProfile wall;
  Probe untraced;
  Probe traced{&tracer, &fs, &activities, &wall};
  Layers layers;
  Totals totals;

  // A traced run alternates untraced and traced batches; the untraced
  // ones are the baseline its tracing overhead is printed against.
  Totals baseline;
  Totals measured;
  int batches = 0;
  do {
    if (options.trace) {
      Layers scratch;
      baseline.Add(RunBatch({&options, &untraced, &scratch, false, batches}));
    }
    measured.Add(RunBatch({&options, options.trace ? &traced : &untraced,
                           &layers, false, batches}));
    ++batches;
  } while (measured.phase_s < options.seconds);
  const double untraced_tasks_per_s = baseline.TasksPerSecond();
  totals.attempted += baseline.attempted;
  totals.failed += baseline.failed;
  totals.errors = baseline.errors;
  while (measured.setup_s.size() < kMinSetupSamples) {
    measured.setup_s.push_back(SetupOnly(options));
  }
  totals.attempted += measured.attempted;
  totals.failed += measured.failed;
  totals.errors.insert(totals.errors.end(), measured.errors.begin(),
                       measured.errors.end());

  std::printf("perfbench: workload %s, seed %llu%s, %d batch(es), trace %d\n",
              options.workload.c_str(),
              static_cast<unsigned long long>(options.seed),
              options.seed == kPinnedSeed ? " (pinned)" : " (held out)",
              batches, options.trace ? 1 : 0);
  MetricList metrics;
  if (options.trace) {
    AddPerLayer(options, layers, measured, tracer, fs, activities, wall,
                untraced_tasks_per_s, &metrics, &totals);
    std::error_code ec;
    std::filesystem::create_directories(options.trace_dir, ec);
    const std::string base = options.trace_dir + "/" + options.workload +
                             "-seed" + std::to_string(options.seed);
    if (WriteFile(base + ".spans.jsonl", tracer.ExportJsonl()) &&
        WriteFile(base + ".chrome.json", tracer.ExportChromeTrace())) {
      std::printf("spans: %s.spans.jsonl, %s.chrome.json\n", base.c_str(),
                  base.c_str());
    }
  } else {
    AddEndToEnd(measured, &metrics);
  }
  metrics.Print();
  std::printf("operations: %llu attempted, %llu failed\n",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed));
  for (const std::string& error : totals.errors) {
    std::printf("CHECK FAILED: %s\n", error.c_str());
  }
  const bool correct = totals.failed == 0 && totals.errors.empty();
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(totals.attempted),
              static_cast<unsigned long long>(totals.failed),
              metrics.Json().c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace perfbench
