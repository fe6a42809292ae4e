#include "src/world.h"

#include <filesystem>
#include <utility>

#include "obs/critical_path.h"
#include "obs/invariants.h"
#include "obs/report.h"
#include "workloads/partition.h"

namespace perfbench {

using namespace biopera;

World::World(const std::string& store_dir, const core::EngineOptions& options,
             Probe* world_probe, bool fault_channel, TimePoint start)
    : probe(world_probe), dir(store_dir) {
  Tracer* tracer = probe != nullptr ? probe->tracer : nullptr;
  if (start > TimePoint()) sim.RunUntil(start);
  Fs* base = Fs::Default();
  if (probe != nullptr && probe->fs != nullptr) {
    observed_fs = std::make_unique<ObservedFs>(base, tracer, probe->fs);
    base = observed_fs.get();
  }
  fault_fs = std::make_unique<FaultFs>(base);
  {
    Span span(tracer, "store", "open");
    const uint64_t t0 = NowNs();
    auto opened = RecordStore::Open(dir, fault_fs.get());
    open_ms = (NowNs() - t0) / 1e6;
    if (!opened.ok()) return;
    store = std::move(*opened);
  }
  if (probe != nullptr && probe->wall != nullptr) {
    store->SetWallProfile(probe->wall);
  }
  cluster = std::make_unique<cluster::ClusterSim>(&sim);
  core::EngineOptions engine_options = options;
  if (engine_options.observability == nullptr) {
    engine_options.observability = &obs;
  }
  if (fault_channel && engine_options.channel == nullptr) {
    channel = std::make_unique<comms::FaultChannel>();
    channel->BindSimulator(&sim);
    engine_options.channel = channel.get();
  }
  if (probe != nullptr && probe->wall != nullptr) {
    engine_options.wall_profile = probe->wall;
  }
  Span span(tracer, "core", "construct");
  const uint64_t t0 = NowNs();
  engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                          &registry, engine_options);
  construct_ms = (NowNs() - t0) / 1e6;
}

World::~World() {
  Tracer* tracer = probe != nullptr ? probe->tracer : nullptr;
  {
    Span span(tracer, "core", "destroy");
    engine.reset();
  }
  Span span(tracer, "store", "close");
  store.reset();
}

Status World::Startup() {
  Span span(probe != nullptr ? probe->tracer : nullptr, "core", "startup");
  const uint64_t t0 = NowNs();
  Status st = engine->Startup();
  startup_ms = (NowNs() - t0) / 1e6;
  return st;
}

Status RegisterAllVsAll(World* world,
                        std::shared_ptr<workloads::AllVsAllContext> context) {
  static const std::vector<std::string> kBindings = {
      "avsa.user_input",  "avsa.queue_gen",   "avsa.preprocess",
      "darwin.fixed_pam", "darwin.refine",    "avsa.merge_entry",
      "avsa.merge_pam"};
  BIOPERA_RETURN_IF_ERROR(
      workloads::RegisterAllVsAllActivities(&world->registry, context));
  Probe* probe = world->probe;
  if (probe == nullptr || probe->activities == nullptr) return Status::OK();
  return WrapActivities(&world->registry, kBindings, probe->tracer,
                        probe->activities);
}

Status RegisterAllVsAllTemplates(World* world) {
  Span span(world->probe != nullptr ? world->probe->tracer : nullptr, "core",
            "register_template");
  BIOPERA_RETURN_IF_ERROR(
      world->engine->RegisterTemplate(workloads::BuildAllVsAllProcess()));
  return world->engine->RegisterTemplate(
      workloads::BuildAlignPartitionProcess());
}

void HarvestCounters(World& world, Layers* layers) {
  core::Engine::DispatchStats dispatch = world.engine->GetDispatchStats();
  layers->dispatched += dispatch.dispatched;
  layers->pump_runs += dispatch.pump_runs;
  layers->entries_scanned += dispatch.entries_scanned;
  core::Engine::MonitoringStats monitor = world.engine->GetMonitoringStats();
  layers->monitor_samples += monitor.samples_taken;
  layers->monitor_reports += monitor.reports_sent;
  obs::MetricsSnapshot snapshot = world.obs.metrics.Snapshot();
  auto metric = [&snapshot](const char* key) -> uint64_t {
    const auto* entry = snapshot.Find(key);
    return entry != nullptr ? static_cast<uint64_t>(entry->value) : 0;
  };
  layers->store_commits += metric("store_commits_total");
  layers->store_checkpoints += metric("store_checkpoints_total");
  layers->preexec_batches += metric("engine_preexec_batches_total");
  layers->preexec_activities += metric("engine_preexec_activities_total");
  layers->preexec_lookahead += metric("engine_preexec_lookahead_total");
  layers->trace_dropped += metric("trace_events_dropped_total");
  layers->comms_suspected += metric("engine_comms_nodes_suspected_total");
  layers->comms_condemned += metric("engine_comms_nodes_condemned_total");
  layers->comms_kill_retries += metric("engine_comms_kill_retries_total");
  layers->obs_spans += world.obs.spans.size();
  if (world.channel != nullptr) {
    for (const auto& [point, hits] : world.channel->Hits()) {
      layers->comms_messages += hits;
    }
    layers->comms_faults += world.channel->faults_injected();
  }
}

void HarvestCompleted(World& world, Layers* layers) {
  for (const core::InstanceSummary& s : world.engine->ListInstances()) {
    layers->activities_completed += s.stats.activities_completed;
  }
}

void HarvestKernelLineage(World& world, const std::string& instance,
                          Layers* layers) {
  auto records = world.engine->GetTaskLineage(instance);
  if (!records.ok()) return;
  for (const obs::LineageRecord& record : *records) {
    for (const auto& [key, value] : record.params) {
      if (key == "sw_cells") layers->sw_cells += std::stoull(value);
      if (key == "sw_rescored") layers->sw_rescored += std::stoull(value);
    }
  }
}

std::string ExportRun(World& world, const std::string& instance,
                      Layers* layers) {
  Span span(world.probe != nullptr ? world.probe->tracer : nullptr, "obs",
            "export");
  const uint64_t t0 = NowNs();
  std::string spans = world.obs.spans.ExportJsonl();
  std::string chrome = world.obs.spans.ExportChromeTrace();
  std::string lineage = world.engine->ExportLineageJsonl(instance).value_or("");
  obs::ReportInput report_input;
  report_input.instance = instance;
  auto summary = world.engine->Summary(instance);
  if (summary.ok()) {
    report_input.state = std::string(core::InstanceStateName(summary->state));
    report_input.activities_done = summary->tasks_done;
    report_input.activities_total = summary->tasks_total;
  }
  auto remaining = world.engine->EstimateRemainingWork(instance);
  if (remaining.ok()) {
    report_input.remaining_work_seconds = remaining->ToSeconds();
  }
  report_input.now = world.sim.Now();
  std::string report = obs::BuildRunReport(report_input, world.obs);
  layers->export_ns += NowNs() - t0;
  layers->export_bytes +=
      spans.size() + chrome.size() + lineage.size() + report.size();
  return spans + lineage;
}

bool CheckRun(World& world, const std::string& instance, bool exactly_once,
              Batch* batch) {
  bool ok = true;
  auto state = world.engine->GetInstanceState(instance);
  if (!state.ok() || *state != core::InstanceState::kDone) {
    batch->errors.push_back(instance + ": did not reach kDone");
    ok = false;
  }
  obs::CriticalPathReport path =
      obs::AnalyzeCriticalPath(world.obs.spans, instance);
  Duration gap = path.makespan() - path.attributed();
  if (gap < Duration::Zero()) gap = Duration::Zero() - gap;
  if (!path.found || gap > Duration::Micros(1000)) {
    batch->errors.push_back(instance +
                            ": critical-path attribution != makespan");
    ok = false;
  }
  if (exactly_once) {
    auto violations = obs::CheckExactlyOnce(world.obs.spans, instance);
    if (!violations.empty()) {
      batch->errors.push_back(instance + ": exactly-once violated: " +
                              violations.front().ToText());
      ok = false;
    }
  }
  return ok;
}

Result<int64_t> SyntheticGroundTruth(
    const World& world, const std::string& instance,
    const workloads::AllVsAllContext& context) {
  BIOPERA_ASSIGN_OR_RETURN(
      ocr::Value partition,
      world.engine->GetWhiteboardValue(instance, "partition"));
  BIOPERA_ASSIGN_OR_RETURN(std::vector<workloads::Teu> teus,
                           workloads::TeusFromValue(partition));
  int64_t total = 0;
  uint32_t expected_first = 0;
  for (const workloads::Teu& teu : teus) {
    if (teu.first != expected_first) {
      return Status::Internal("partition is not contiguous");
    }
    expected_first = teu.last;
    total += static_cast<int64_t>(
        context.SyntheticMatchCount(teu.first, teu.last));
  }
  if (expected_first != context.lengths.size()) {
    return Status::Internal("partition does not cover the dataset");
  }
  return total;
}

std::string FreshDir(const Options& options, const std::string& tag) {
  std::filesystem::path dir = std::filesystem::path(options.work_dir) / tag;
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
  std::filesystem::create_directories(dir, ec);
  return dir.string();
}

void RemoveDir(const std::string& dir) {
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

}  // namespace perfbench
