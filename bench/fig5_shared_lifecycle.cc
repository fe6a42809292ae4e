// Reproduces Figure 5: lifecycle of the all-vs-all first run on the
// shared cluster — processor availability vs utilization over the weeks of
// the run, with the ten numbered disturbance events.
//
// Expected shape: availability mostly near the 40-CPU peak with dips at
// hardware failures/maintenance; utilization is a rugged line far below
// availability (BioOpera runs nice and other users often fill the
// machines), dropping to zero during suspensions, the server crash and the
// disk-space shortage — yet the run completes with only a handful of
// manual interventions.
#include <cstdio>
#include <cstring>
#include <string>

#include "bench/scenario.h"
#include "common/strings.h"
#include "obs/rundiff.h"

namespace biopera::bench {
namespace {

/// Writes `content` to `path`; returns false (after logging) on error.
bool WriteFileOrWarn(const std::string& path, const std::string& content) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return false;
  }
  std::fwrite(content.data(), 1, content.size(), f);
  std::fclose(f);
  return true;
}

/// Run-differencing self-check (--diff=PATH): re-runs the scenario with
/// the same seed (must diff empty), a perturbed seed, and a perturbed
/// outage schedule (each must be classified with the true perturbation as
/// root cause). Writes the two perturbed diff reports (JSON, one per
/// line) to `diff_path`. Returns 0 when all three checks hold.
int RunDiffChecks(const ScenarioResult& base, const std::string& diff_path) {
  auto parse = [](const ScenarioResult& r, const char* label) {
    return obs::ParseRunExports(r.lineage_jsonl, r.spans_jsonl, label);
  };
  Result<obs::RunLineage> a = parse(base, "seed38");
  if (!a.ok()) {
    std::fprintf(stderr, "cannot parse base run exports: %s\n",
                 a.status().ToString().c_str());
    return 2;
  }
  std::printf("\nrun differencing checks:\n");

  ScenarioResult rerun = RunSharedClusterScenario(/*seed=*/38);
  Result<obs::RunLineage> a2 = parse(rerun, "seed38-rerun");
  if (!a2.ok()) return 2;
  obs::RunDiffReport same = obs::DiffRuns(*a, *a2);
  bool same_ok = same.identical();
  std::printf("  same-seed re-run diffs empty: %s (%zu divergences)\n",
              same_ok ? "yes" : "NO", same.divergences.size());
  if (!same_ok) std::printf("%s", same.ToText().c_str());

  ScenarioResult seed_run = RunSharedClusterScenario(/*seed=*/39);
  Result<obs::RunLineage> b = parse(seed_run, "seed39");
  if (!b.ok()) return 2;
  obs::RunDiffReport seed_diff = obs::DiffRuns(*a, *b);
  bool seed_ok = seed_diff.RootCause() == "seed";
  std::printf("  perturbed seed classified as root cause: %s (root cause: "
              "%s, %zu divergences)\n",
              seed_ok ? "yes" : "NO", seed_diff.RootCause().c_str(),
              seed_diff.divergences.size());

  ScenarioResult outage_run =
      RunSharedClusterScenario(/*seed=*/38, Duration::Days(1));
  Result<obs::RunLineage> c = parse(outage_run, "seed38-outage-shift");
  if (!c.ok()) return 2;
  obs::RunDiffReport outage_diff = obs::DiffRuns(*a, *c);
  bool outage_ok = outage_diff.RootCause() == "outage_schedule";
  std::printf("  perturbed outage schedule classified as root cause: %s "
              "(root cause: %s, %zu divergences)\n",
              outage_ok ? "yes" : "NO", outage_diff.RootCause().c_str(),
              outage_diff.divergences.size());

  if (!diff_path.empty()) {
    WriteFileOrWarn(diff_path,
                    seed_diff.ToJson() + "\n" + outage_diff.ToJson() + "\n");
  }
  return same_ok && seed_ok && outage_ok ? 0 : 1;
}

int Main(int argc, char** argv) {
  std::string timeline_path;
  std::string spans_path;
  std::string chrome_path;
  std::string report_path;
  std::string lineage_path;
  std::string diff_path;
  std::string comms_json_path = "BENCH_comms.json";
  bool diff_mode = false;
  bool storm_mode = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--timeline=", 11) == 0) {
      timeline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--spans=", 8) == 0) {
      spans_path = argv[i] + 8;
    } else if (std::strncmp(argv[i], "--chrome=", 9) == 0) {
      chrome_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--report=", 9) == 0) {
      report_path = argv[i] + 9;
    } else if (std::strncmp(argv[i], "--lineage=", 10) == 0) {
      lineage_path = argv[i] + 10;
    } else if (std::strncmp(argv[i], "--diff=", 7) == 0) {
      diff_path = argv[i] + 7;
      diff_mode = true;
    } else if (std::strcmp(argv[i], "--diff") == 0) {
      diff_mode = true;
    } else if (std::strncmp(argv[i], "--comms-json=", 13) == 0) {
      comms_json_path = argv[i] + 13;
    } else if (std::strcmp(argv[i], "--partition-storm") == 0) {
      storm_mode = true;
    }
  }
  std::printf("== Figure 5: lifecycle of the all-vs-all (first run, shared "
              "cluster%s) ==\n\n",
              storm_mode ? ", under a control-plane partition storm" : "");
  ScenarioResult r = RunSharedClusterScenario(
      /*seed=*/38, /*cluster_outage_shift=*/Duration::Zero(), storm_mode);
  if (!timeline_path.empty()) WriteFileOrWarn(timeline_path, r.timeline_csv);
  if (!spans_path.empty()) WriteFileOrWarn(spans_path, r.spans_jsonl);
  if (!chrome_path.empty()) WriteFileOrWarn(chrome_path, r.chrome_json);
  if (!report_path.empty()) WriteFileOrWarn(report_path, r.report_text);
  if (!lineage_path.empty()) WriteFileOrWarn(lineage_path, r.lineage_jsonl);
  std::printf("%s\n", RenderLifecycle(r, /*height=*/12).c_str());

  double avail_avg = r.availability.TimeAverage(0, r.wall_days);
  double util_avg = r.utilization.TimeAverage(0, r.wall_days);
  std::printf("\nWALL time: %.1f days  (paper run: 1999-12-09 .. "
              "2000-01-25)\n", r.wall_days);
  std::printf("mean availability: %.1f CPUs, mean utilization: %.1f CPUs "
              "(%.0f%% of available)\n",
              avail_avg, util_avg, 100 * util_avg / avail_avg);
  std::printf("manual interventions: %d (suspend/resume/restart)\n",
              r.manual_interventions);
  if (r.monitor_samples > 0) {
    std::printf("adaptive monitoring: %llu samples, %llu reports sent "
                "(%.0f%% discarded; Section 3.4)\n",
                (unsigned long long)r.monitor_samples,
                (unsigned long long)r.monitor_reports,
                100.0 * (1.0 - (double)r.monitor_reports /
                                   (double)r.monitor_samples));
  }
  std::printf("run %s\n", r.completed ? "completed" : "DID NOT COMPLETE");
  std::printf("\n%s\n", r.critical_path.ToText().c_str());
  std::printf("shape checks vs the paper:\n");
  std::printf("  actual computing time is a small fraction of WALL "
              "(utilization << availability): %s\n",
              util_avg < 0.55 * avail_avg ? "yes" : "NO");
  std::printf("  all 10 disturbance events occurred and were survived: "
              "%s\n", r.completed ? "yes" : "NO");
  Duration attribution_gap =
      r.critical_path.makespan() - r.critical_path.attributed();
  if (attribution_gap < Duration::Zero()) {
    attribution_gap = Duration::Zero() - attribution_gap;
  }
  std::printf("  critical-path attribution sums to the makespan (within "
              "1 virtual ms): %s (gap %s)\n",
              r.critical_path.found &&
                      attribution_gap <= Duration::Micros(1000)
                  ? "yes"
                  : "NO",
              attribution_gap.ToString().c_str());
  if (storm_mode) {
    std::printf("\n%s", RenderCommsStats(r).c_str());
    if (!WriteCommsJson(r, "fig5_partition_storm", comms_json_path)) {
      return 2;
    }
  }
  if (diff_mode) {
    if (storm_mode) {
      // The diff baselines are fault-free runs; a storm run would diff
      // against them everywhere by construction.
      std::printf("\n(--diff skipped under --partition-storm)\n");
    } else {
      int diff_rc = RunDiffChecks(r, diff_path);
      if (diff_rc != 0) return diff_rc;
    }
  }
  return r.completed ? 0 : 1;
}

}  // namespace
}  // namespace biopera::bench

int main(int argc, char** argv) { return biopera::bench::Main(argc, argv); }
