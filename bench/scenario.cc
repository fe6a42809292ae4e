#include "bench/scenario.h"

#include <cstdio>

#include "cluster/external_load.h"
#include "cluster/failure.h"
#include "common/strings.h"
#include "common/table.h"
#include "darwin/generator.h"
#include "obs/report.h"
#include "obs/timeline.h"
#include "workloads/allvsall.h"

namespace biopera::bench {

namespace {

/// Size of the synthetic Swiss-Prot release 38 stand-in. SP38 has ~80,000
/// entries; with the calibrated cost model this yields several hundred
/// reference-CPU-days of work, matching the month-scale runs of §5.4/5.5.
constexpr size_t kSp38Entries = 80000;
constexpr int kNumTeus = 250;  // §5.3: the granularity chosen for the run

std::shared_ptr<workloads::AllVsAllContext> MakeSp38Context(uint64_t seed) {
  Rng rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = kSp38Entries;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  return workloads::MakeSyntheticContext(std::move(meta.lengths),
                                         std::move(meta.family_of));
}

std::string StartAllVsAll(BenchWorld* world,
                          std::shared_ptr<workloads::AllVsAllContext> ctx) {
  if (!workloads::RegisterAllVsAllActivities(&world->registry, ctx).ok()) {
    std::abort();
  }
  if (!world->engine->Startup().ok()) std::abort();
  world->engine->RegisterTemplate(workloads::BuildAllVsAllProcess());
  world->engine->RegisterTemplate(workloads::BuildAlignPartitionProcess());
  ocr::Value::Map args;
  args["db_name"] = ocr::Value("SP38-synthetic");
  args["num_teus"] = ocr::Value(kNumTeus);
  auto id = world->engine->StartProcess("all_vs_all", args);
  if (!id.ok()) {
    std::fprintf(stderr, "start failed: %s\n", id.status().ToString().c_str());
    std::abort();
  }
  return *id;
}

/// Runs until the instance completes or `max_days` of virtual time pass.
void RunToCompletion(BenchWorld* world, const std::string& id,
                     double max_days) {
  while (world->sim.Now().SinceEpoch().ToDays() < max_days) {
    world->sim.RunFor(Duration::Hours(6));
    auto state = world->engine->GetInstanceState(id);
    if (state.ok() && *state == core::InstanceState::kDone) break;
  }
}

/// Lease-mode engine settings for a partition-storm run: death and
/// rebirth are detected from heartbeats (month-scale cadence, so the
/// heartbeat traffic stays proportionate to the run), and the job
/// watchdog backstops completions whose report the storm swallowed.
void ApplyStormEngineOptions(core::EngineOptions* options) {
  options->heartbeat_interval = Duration::Minutes(5);
  options->lease_misses_to_suspect = 3;
  // TEUs are day-scale: ride out the typical short partition (suspect,
  // reconcile) and condemn only the long tail, so rescheduling does not
  // dominate the storm run.
  options->lease_condemn_grace = Duration::Minutes(45);
  options->job_timeout_factor = 3.0;
}

/// Arms the storm: a steady message-fault profile on every link plus
/// random asymmetric per-link partitions and short link flaps for the
/// whole run. Both rngs must outlive the run (the partition/flap daemons
/// keep drawing from them).
void ArmPartitionStorm(BenchWorld* world, cluster::FailureInjector* inject,
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

/// Heals the storm and drains: faults off, all links reconnected, every
/// node repaired, then up to 70 more days for the backlog. The storm's
/// stale load views leave the small clusters heavily oversubscribed
/// (day-scale jobs time-sharing a CPU at a fraction of their speed), so
/// the drained tail is long; a failed instance is restarted — the storm
/// can exhaust retry budgets.
void QuiesceAfterStorm(BenchWorld* world, cluster::FailureInjector* inject,
                       const std::string& id) {
  world->channel->StopRandomFaults();
  inject->StopRandomPartitions();
  inject->StopRandomFlaps();
  for (const auto& node : world->cluster->Nodes()) {
    world->cluster->RepairNode(node.name);
    world->channel->SetConnected(node.name, true);
  }
  for (int i = 0; i < 280; ++i) {
    world->sim.RunFor(Duration::Hours(6));
    auto state = world->engine->GetInstanceState(id);
    if (!state.ok()) break;
    if (*state == core::InstanceState::kDone) break;
    if (*state == core::InstanceState::kFailed) {
      (void)world->engine->Restart(id);
    }
  }
}

ScenarioResult Collect(BenchWorld* world, const std::string& id,
                       int manual_interventions) {
  ScenarioResult result;
  auto summary = world->engine->Summary(id);
  if (summary.ok()) {
    result.summary = *summary;
    result.completed = summary->state == core::InstanceState::kDone;
    result.wall_days = result.summary.stats.WallTime().ToDays();
  }
  result.availability = world->cluster->AvailabilitySeries();
  result.utilization = world->cluster->UtilizationSeries();
  result.events = world->cluster->Events();
  core::Engine::MonitoringStats mon = world->engine->GetMonitoringStats();
  result.monitor_samples = mon.samples_taken;
  result.monitor_reports = mon.reports_sent;
  result.max_cpus = static_cast<int>(result.availability.MaxOver(0, 1e9));
  result.manual_interventions = manual_interventions;
  obs::MetricsSnapshot snapshot = world->obs.metrics.Snapshot();
  result.metrics_text = snapshot.ToText();
  if (world->channel != nullptr) {
    auto metric = [&snapshot](const char* key) {
      const auto* entry = snapshot.Find(key);
      return entry != nullptr ? entry->value : 0.0;
    };
    result.comms.enabled = true;
    result.comms.faults_injected = world->channel->faults_injected();
    result.comms.nodes_suspected =
        metric("engine_comms_nodes_suspected_total");
    result.comms.nodes_condemned =
        metric("engine_comms_nodes_condemned_total");
    result.comms.nodes_reconciled =
        metric("engine_comms_nodes_reconciled_total");
    result.comms.reports_fenced = metric("engine_comms_reports_fenced_total");
    result.comms.reports_duplicate =
        metric("engine_comms_reports_duplicate_total");
    result.comms.kill_retries = metric("engine_comms_kill_retries_total");
    result.comms.kills_abandoned =
        metric("engine_comms_kills_abandoned_total");
  }
  result.timeline_csv = obs::TimelineCsv(obs::BuildTimeline(world->obs.spans),
                                        world->obs.spans.dropped());
  result.spans_jsonl = world->obs.spans.ExportJsonl();
  result.chrome_json = world->obs.spans.ExportChromeTrace();
  auto lineage = world->engine->ExportLineageJsonl(id);
  if (lineage.ok()) result.lineage_jsonl = *lineage;
  obs::ReportInput report_input;
  report_input.instance = id;
  if (summary.ok()) {
    report_input.state =
        std::string(core::InstanceStateName(summary->state));
    report_input.activities_done = summary->tasks_done;
    report_input.activities_total = summary->tasks_total;
  }
  auto remaining = world->engine->EstimateRemainingWork(id);
  if (remaining.ok()) {
    report_input.remaining_work_seconds = remaining->ToSeconds();
  }
  report_input.now = world->sim.Now();
  result.report_text = obs::BuildRunReport(report_input, world->obs);
  result.critical_path = obs::AnalyzeCriticalPath(world->obs.spans, id);
  return result;
}

}  // namespace

ScenarioResult RunSharedClusterScenario(uint64_t seed,
                                        Duration cluster_outage_shift,
                                        bool partition_storm) {
  core::EngineOptions options;
  options.dispatch_retry = Duration::Minutes(10);
  options.checkpoint_every_commits = 5000;
  // The lineage header names the run's seed; the least_loaded policy never
  // draws from the engine rng, so this changes no scheduling decision.
  options.seed = seed;
  if (partition_storm) ApplyStormEngineOptions(&options);
  BenchWorld world(options, /*with_fault_channel=*/partition_storm);
  AddLinneusCluster(world.cluster.get());
  AddIkSunCluster(world.cluster.get(), /*nodes=*/2);

  auto ctx = MakeSp38Context(seed);
  Rng env_rng(seed ^ 0xfeedULL);
  Rng storm_fault_rng(seed ^ 0xfa17ULL);
  Rng storm_env_rng(seed ^ 0x5707ULL);

  // Other users of the shared cluster: episodes that often fill entire
  // machines (BioOpera runs in nice mode and yields to them).
  cluster::ExternalLoadOptions load;
  load.mean_busy = Duration::Hours(14);
  load.mean_idle = Duration::Hours(9);
  load.fill_all_probability = 0.75;
  cluster::ExternalLoadGenerator external(world.cluster.get(), load,
                                          &env_rng);
  external.Start();

  std::string id = StartAllVsAll(&world, ctx);
  cluster::FailureInjector inject(world.cluster.get());
  if (partition_storm) {
    ArmPartitionStorm(&world, &inject, &storm_fault_rng, &storm_env_rng);
  }
  core::Engine* engine = world.engine.get();
  cluster::ClusterSim* cluster = world.cluster.get();
  Simulator* sim = &world.sim;
  int manual = 0;

  // --- The ten events of Figure 5, scripted onto the timeline. ---
  // 1: another user requests exclusive access; the process is manually
  //    suspended (running jobs finish) and resumed 1.5 days later.
  inject.ScheduleAction(TimePoint::FromMicros(0) + Duration::Days(2.0),
                        "1: other user needs cluster (suspend)", [&, id] {
                          engine->Suspend(id);
                          ++manual;
                        });
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(3.5), [&, id] {
    engine->Resume(id);
    ++manual;
  });
  // 2: heavy external load period.
  external.ScheduleHeavyPeriod(TimePoint::FromMicros(0) + Duration::Days(5),
                               Duration::Days(3),
                               "2: cluster busy with other jobs");
  // 3: massive hardware failure of the whole cluster, 12 hours.
  inject.ScheduleClusterOutage(TimePoint::FromMicros(0) + Duration::Days(10) +
                                   cluster_outage_shift,
                               Duration::Hours(12), "3: cluster failure");
  // 4: the BioOpera server crashes; it recovers automatically 4 h later.
  inject.ScheduleAction(TimePoint::FromMicros(0) + Duration::Days(13),
                        "4: BioOpera server crash", [&] { engine->Crash(); });
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(13) +
                      Duration::Hours(4),
                  [&] { engine->Startup(); });
  // 5/6: the process runs out of disk space; nobody notices for 1.5 days,
  //    then an operator fixes the storage and restarts the process. The
  //    shortage is injected at the filesystem (ENOSPC on every write), so
  //    the engine rides it out in degraded mode and resumes on its own;
  //    the operator restart covers activities that failed under event 5.
  inject.ScheduleDiskFullWindow(TimePoint::FromMicros(0) + Duration::Days(16),
                                Duration::Days(1.5), world.fault_fs.get(),
                                "5: disk space shortage");
  inject.ScheduleAction(TimePoint::FromMicros(0) + Duration::Days(17.5),
                        "6: storage fixed, process restarted", [&, id] {
                          engine->Restart(id);
                          ++manual;
                        });
  // 7: hardware failure of half the cluster for 8 hours.
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(21), [&] {
    cluster->Annotate("7: hardware failure (half the nodes)");
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < nodes.size() / 2; ++i) {
      cluster->CrashNode(nodes[i].name);
    }
  });
  sim->ScheduleAt(
      TimePoint::FromMicros(0) + Duration::Days(21) + Duration::Hours(8),
      [&] {
        for (const auto& node : cluster->Nodes()) {
          cluster->RepairNode(node.name);
        }
      });
  // 8: another period of heavy external utilization.
  external.ScheduleHeavyPeriod(TimePoint::FromMicros(0) + Duration::Days(23),
                               Duration::Days(3.5),
                               "8: cluster busy with other jobs");
  // 9: some nodes unavailable (maintenance) for two days.
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(28), [&] {
    cluster->Annotate("9: some nodes unavailable");
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < 6 && i < nodes.size(); ++i) {
      cluster->CrashNode(nodes[i].name);
    }
  });
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(30), [&] {
    auto nodes = cluster->Nodes();
    for (size_t i = 0; i < 6 && i < nodes.size(); ++i) {
      cluster->RepairNode(nodes[i].name);
    }
  });
  // 10: two nodes drop off the network and their TEUs never report; the
  //     operator restarts the process, which immediately re-schedules them.
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(32), [&] {
    cluster->Annotate("10: TEUs fail to report (software problem)");
    cluster->SetConnected("ik-sun0", false);
    cluster->SetConnected("ik-sun1", false);
  });
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(33), [&, id] {
    engine->Restart(id);
    ++manual;
  });
  sim->ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(34), [&] {
    cluster->SetConnected("ik-sun0", true);
    cluster->SetConnected("ik-sun1", true);
  });

  RunToCompletion(&world, id, /*max_days=*/partition_storm ? 120 : 90);
  if (partition_storm) QuiesceAfterStorm(&world, &inject, id);
  return Collect(&world, id, manual);
}

ScenarioResult RunNonSharedClusterScenario(uint64_t seed,
                                           bool partition_storm) {
  core::EngineOptions options;
  options.dispatch_retry = Duration::Minutes(10);
  options.checkpoint_every_commits = 5000;
  options.seed = seed;
  if (partition_storm) ApplyStormEngineOptions(&options);
  BenchWorld world(options, /*with_fault_channel=*/partition_storm);
  AddIkLinuxCluster(world.cluster.get(), /*cpus=*/1);

  auto ctx = MakeSp38Context(seed);
  Rng storm_fault_rng(seed ^ 0xfa17ULL);
  Rng storm_env_rng(seed ^ 0x5707ULL);
  std::string id = StartAllVsAll(&world, ctx);
  cluster::FailureInjector inject(world.cluster.get());
  if (partition_storm) {
    ArmPartitionStorm(&world, &inject, &storm_fault_rng, &storm_env_rng);
  }
  core::Engine* engine = world.engine.get();
  int manual = 0;

  // Two planned network outages, each preceded by a manual suspend
  // (§5.5: "planned network outages that required to suspend the
  // execution of the process").
  for (double day : {9.0, 18.0}) {
    world.sim.ScheduleAt(TimePoint::FromMicros(0) + Duration::Days(day),
                         [&, id] {
                           world.cluster->Annotate("planned network outage");
                           engine->Suspend(id);
                           ++manual;
                           world.cluster->SetAllConnected(false);
                         });
    world.sim.ScheduleAt(
        TimePoint::FromMicros(0) + Duration::Days(day) + Duration::Hours(10),
        [&, id] {
          world.cluster->SetAllConnected(true);
          engine->Resume(id);
          ++manual;
        });
  }
  // The OS/hardware upgrade: a second processor per node from day 25,
  // picked up by BioOpera without intervention (Figure 6).
  inject.ScheduleCpuUpgrade(TimePoint::FromMicros(0) + Duration::Days(25), 2,
                            "OS config change: 2nd processor per node");

  RunToCompletion(&world, id, /*max_days=*/partition_storm ? 120 : 90);
  if (partition_storm) QuiesceAfterStorm(&world, &inject, id);
  return Collect(&world, id, manual);
}

std::string RenderLifecycle(const ScenarioResult& result, int height) {
  const double t1 = result.wall_days > 0
                        ? result.wall_days
                        : (result.availability.points().empty()
                               ? 1.0
                               : result.availability.points().back().t);
  const size_t width = 78;
  std::vector<double> avail = result.availability.Resample(0, t1, width);
  std::vector<double> util = result.utilization.Resample(0, t1, width);
  double y_max = result.max_cpus > 0 ? result.max_cpus : 1;
  std::string out = AsciiAreaChart(avail, util, y_max, height);
  out += StrFormat("       x-axis: 0 .. %.0f days\n", t1);
  if (!result.events.empty()) {
    out += "\nevents:\n";
    for (const auto& event : result.events) {
      out += StrFormat("  day %5.1f  %s\n",
                       event.time.SinceEpoch().ToDays(),
                       event.label.c_str());
    }
  }
  return out;
}

std::string RenderCommsStats(const ScenarioResult& result) {
  if (!result.comms.enabled) return "";
  const CommsStats& c = result.comms;
  std::string out = "partition storm (lossy control plane):\n";
  out += StrFormat("  message faults injected: %llu "
                   "(drop/dup/delay/reorder)\n",
                   (unsigned long long)c.faults_injected);
  out += StrFormat("  lease detector: %.0f suspected, %.0f condemned, "
                   "%.0f reconciled\n",
                   c.nodes_suspected, c.nodes_condemned, c.nodes_reconciled);
  out += StrFormat("  exactly-once: %.0f stale reports fenced, %.0f "
                   "duplicates suppressed\n",
                   c.reports_fenced, c.reports_duplicate);
  out += StrFormat("  kill protocol: %.0f retries, %.0f abandoned to "
                   "condemnation\n",
                   c.kill_retries, c.kills_abandoned);
  return out;
}

bool WriteCommsJson(const ScenarioResult& result,
                    const std::string& bench_name, const std::string& path) {
  if (!result.comms.enabled) return false;
  const CommsStats& c = result.comms;
  BenchJson json(bench_name);
  json.Add("partition_storm",
           {{"completed", result.completed ? 1.0 : 0.0},
            {"wall_days", result.wall_days},
            {"faults_injected", static_cast<double>(c.faults_injected)},
            {"nodes_suspected", c.nodes_suspected},
            {"nodes_condemned", c.nodes_condemned},
            {"nodes_reconciled", c.nodes_reconciled},
            {"reports_fenced", c.reports_fenced},
            {"reports_duplicate", c.reports_duplicate},
            {"kill_retries", c.kill_retries},
            {"kills_abandoned", c.kills_abandoned},
            {"manual_interventions",
             static_cast<double>(result.manual_interventions)}});
  return json.Write(path);
}

}  // namespace biopera::bench
