// Storage fault injection: FaultFs semantics, store behavior under
// injected errors (ENOSPC mid-checkpoint, failed WAL truncation, failed
// reopen), writer-epoch fencing, engine degraded mode, and SCRUB.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "cluster/failure.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "obs/trace.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/fs.h"
#include "store/record_store.h"
#include "tests/test_util.h"
#include "workloads/allvsall.h"

namespace biopera {
namespace {

using core::Engine;
using core::EngineOptions;
using core::InstanceState;
using ocr::Value;

// --- FaultFs semantics ------------------------------------------------------

TEST(FaultFsTest, CountsHitsPerClassAndOp) {
  testing::TempDir dir;
  FaultFs fs(Fs::Default());
  {
    ASSERT_OK_AND_ASSIGN(auto wal, fs.OpenForAppend(dir.path() + "/wal.log"));
    ASSERT_OK(wal->Append("hello"));
    ASSERT_OK(wal->Flush());
    ASSERT_OK(wal->Close());
  }
  {
    // A ".tmp" suffix is ignored for classification: the tmp file of a
    // segment still counts as a segment.
    ASSERT_OK_AND_ASSIGN(auto seg,
                         fs.OpenForWrite(dir.path() + "/seg_000001.dat.tmp"));
    ASSERT_OK(seg->Append("payload"));
    ASSERT_OK(seg->Sync());
    ASSERT_OK(seg->Close());
  }
  ASSERT_OK(fs.Rename(dir.path() + "/seg_000001.dat.tmp",
                      dir.path() + "/seg_000001.dat"));
  ASSERT_OK(fs.SyncDir(dir.path()));
  ASSERT_OK(fs.Remove(dir.path() + "/seg_000001.dat"));

  const auto& hits = fs.Hits();
  EXPECT_EQ(hits.at("wal.open"), 1u);
  EXPECT_EQ(hits.at("wal.append"), 1u);
  EXPECT_GE(hits.at("wal.flush"), 1u);
  EXPECT_EQ(hits.at("seg.create"), 1u);
  EXPECT_EQ(hits.at("seg.append"), 1u);
  EXPECT_EQ(hits.at("seg.rename"), 1u);
  EXPECT_EQ(hits.at("seg.remove"), 1u);
  EXPECT_EQ(hits.at("dir.sync"), 1u);
}

TEST(FaultFsTest, DiskFullFailsWritesButNotRenamesOrReads) {
  testing::TempDir dir;
  FaultFs fs(Fs::Default());
  const std::string path = dir.path() + "/wal.log";
  {
    ASSERT_OK_AND_ASSIGN(auto f, fs.OpenForAppend(path));
    ASSERT_OK(f->Append("data"));
    ASSERT_OK(f->Close());
  }
  fs.SetDiskFull(true);
  EXPECT_FALSE(fs.OpenForAppend(path).ok());
  EXPECT_TRUE(fs.ReadFileToString(path).ok());          // reads fine
  EXPECT_OK(fs.Rename(path, dir.path() + "/wal.old"));  // metadata fine
  EXPECT_OK(fs.Remove(dir.path() + "/wal.old"));
  fs.SetDiskFull(false);
  EXPECT_TRUE(fs.OpenForAppend(path).ok());
}

TEST(FaultFsTest, DelayedRenameLandsAtDirSyncAndDiesWithCrash) {
  testing::TempDir dir;
  const std::string from = dir.path() + "/MANIFEST.tmp";
  const std::string to = dir.path() + "/MANIFEST";
  {
    FaultFs fs(Fs::Default());
    fs.SetDelayRenames(true);
    {
      ASSERT_OK_AND_ASSIGN(auto f, fs.OpenForWrite(from));
      ASSERT_OK(f->Append("m1"));
      ASSERT_OK(f->Close());
    }
    ASSERT_OK(fs.Rename(from, to));
    EXPECT_EQ(fs.PendingRenames(), 1u);
    EXPECT_FALSE(Fs::Default()->Exists(to));  // dirent never fsynced
    ASSERT_OK(fs.SyncDir(dir.path()));
    EXPECT_EQ(fs.PendingRenames(), 0u);
    EXPECT_TRUE(Fs::Default()->Exists(to));
  }
  // A crash with the rename still pending drops it entirely.
  {
    FaultFs fs(Fs::Default());
    fs.SetDelayRenames(true);
    {
      ASSERT_OK_AND_ASSIGN(auto f, fs.OpenForWrite(from));
      ASSERT_OK(f->Append("m2"));
      ASSERT_OK(f->Close());
    }
    ASSERT_OK(fs.Rename(from, dir.path() + "/MANIFEST2"));
    fs.ArmCrash("file.append", 1);
    ASSERT_OK_AND_ASSIGN(auto f, fs.OpenForAppend(dir.path() + "/other.txt"));
    EXPECT_FALSE(f->Append("x").ok());  // the crash fires
    EXPECT_TRUE(fs.dead());
    EXPECT_EQ(fs.PendingRenames(), 0u);  // pending intent died with the box
    EXPECT_FALSE(Fs::Default()->Exists(dir.path() + "/MANIFEST2"));
  }
}

TEST(FaultFsTest, ArmErrorIsSingleShot) {
  testing::TempDir dir;
  FaultFs fs(Fs::Default());
  fs.ArmError("wal.open", 1);
  EXPECT_FALSE(fs.OpenForAppend(dir.path() + "/wal.log").ok());
  EXPECT_TRUE(fs.OpenForAppend(dir.path() + "/wal.log").ok());
  EXPECT_FALSE(fs.dead());
}

// --- Store under injected faults -------------------------------------------

TEST(StoreFaultTest, EnospcMidCheckpointLeavesStoreConsistent) {
  testing::TempDir dir;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  store->SetCheckpointPolicy(policy);
  for (int i = 0; i < 10; ++i) {
    ASSERT_OK(store->Put("t", "k" + std::to_string(i), "v"));
  }
  fault_fs.SetDiskFull(true);
  EXPECT_FALSE(store->Checkpoint().ok());
  // The image is untouched and the store keeps serving.
  EXPECT_TRUE(store->Contains("t", "k9"));
  fault_fs.SetDiskFull(false);
  ASSERT_OK(store->Checkpoint());
  store.reset();
  auto reopened = RecordStore::Open(dir.path()).value();
  EXPECT_TRUE(reopened->Contains("t", "k0"));
  EXPECT_TRUE(reopened->Contains("t", "k9"));
}

TEST(StoreFaultTest, FailedWalReopenAfterCheckpointHealsOnNextApply) {
  testing::TempDir dir;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  ASSERT_OK(store->Put("t", "k", "v"));
  // Hit 1 of wal.open was the initial open; hit 2 is the post-checkpoint
  // reopen. Failing it used to leave the store with no WAL writer at all.
  fault_fs.ArmError("wal.open", 2);
  EXPECT_FALSE(store->Checkpoint().ok());
  ASSERT_OK(store->Put("t", "k2", "v2"));  // EnsureWal reopens on demand
  store.reset();
  auto reopened = RecordStore::Open(dir.path()).value();
  EXPECT_TRUE(reopened->Contains("t", "k"));
  EXPECT_TRUE(reopened->Contains("t", "k2"));
}

TEST(StoreFaultTest, FailedWalTruncationSurfacesAsCheckpointError) {
  testing::TempDir dir;
  obs::Observability obs;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  store->SetObservability(&obs);
  ASSERT_OK(store->Put("t", "k", "v"));
  fault_fs.ArmError("wal.remove", 1);
  EXPECT_FALSE(store->Checkpoint().ok());
  EXPECT_EQ(
      obs.metrics.GetCounter("store_remove_failures_total")->value(), 1u);
  // The next checkpoint succeeds and actually truncates.
  ASSERT_OK(store->Put("t", "k2", "v2"));
  ASSERT_OK(store->Checkpoint());
  store.reset();
  EXPECT_TRUE(RecordStore::Open(dir.path()).value()->Contains("t", "k2"));
}

// --- Writer-epoch fencing ---------------------------------------------------

TEST(FencingTest, StaleEpochCommitsAreRejectedAndPersistAcrossReopen) {
  testing::TempDir dir;
  {
    auto store = RecordStore::Open(dir.path()).value();
    uint64_t e1 = store->AcquireWriterEpoch();
    ASSERT_OK(store->Put("t", "k", "v", e1));
    uint64_t e2 = store->AcquireWriterEpoch();
    EXPECT_GT(e2, e1);
    Status stale = store->Put("t", "k", "v2", e1);
    EXPECT_TRUE(stale.IsFailedPrecondition()) << stale.ToString();
    EXPECT_TRUE(RecordStore::IsFenced(stale));
    ASSERT_OK(store->Put("t", "k", "v3", e2));
    // Epoch 0 (direct, unfenced users) is always admitted.
    ASSERT_OK(store->Put("t", "other", "x"));
  }
  auto reopened = RecordStore::Open(dir.path()).value();
  EXPECT_GE(reopened->fence_epoch(), 2u);
  EXPECT_TRUE(RecordStore::IsFenced(reopened->Put("t", "k", "v4", 1)));
  EXPECT_EQ(reopened->Get("t", "k").value(), "v3");
}

TEST(FencingTest, SplitBrainOldPrimaryStepsDown) {
  testing::TempDir dir;
  Simulator sim;
  auto store = RecordStore::Open(dir.path()).value();
  cluster::ClusterSim cluster(&sim);
  ASSERT_OK(cluster.AddNode({.name = "node0", .num_cpus = 2}));
  core::ActivityRegistry registry;
  ASSERT_OK(registry.Register(
      "noop", [](const core::ActivityInput&) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.cost = Duration::Seconds(5);
        return out;
      }));

  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  Engine old_primary(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(old_primary.Startup());
  uint64_t old_epoch = old_primary.writer_epoch();

  // A second server takes over the same store (the old one is presumed
  // dead but is actually still running — a split brain).
  Engine new_primary(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(new_primary.Startup());
  EXPECT_GT(new_primary.writer_epoch(), old_epoch);

  // The old primary's next commit is rejected and it steps down instead
  // of corrupting the spaces.
  EXPECT_TRUE(old_primary.IsUp());
  Status st = old_primary.RegisterTemplate(
      ocr::ProcessBuilder("p")
          .Task(ocr::TaskBuilder::Activity("a", "noop"))
          .Build()
          .value());
  EXPECT_TRUE(RecordStore::IsFenced(st)) << st.ToString();
  sim.RunFor(Duration::Seconds(1));  // the deferred step-down fires
  EXPECT_FALSE(old_primary.IsUp());
  EXPECT_TRUE(new_primary.IsUp());

  // The step-down shows as a zero-length server-down instant naming the
  // stale epoch.
  std::vector<obs::Span> fenced;
  obs.spans.ForEach([&](const obs::Span& span) {
    if (span.kind == obs::SpanKind::kServerDown && span.outcome == "fenced") {
      fenced.push_back(span);
    }
  });
  ASSERT_EQ(fenced.size(), 1u);
  EXPECT_FALSE(fenced[0].open);
  EXPECT_EQ(fenced[0].duration(), Duration::Zero());
  ASSERT_EQ(fenced[0].attrs.size(), 1u);
  EXPECT_EQ(fenced[0].attrs[0].first, "stale_epoch");
  EXPECT_EQ(fenced[0].attrs[0].second, std::to_string(old_epoch));
}

TEST(FencingTest, FencedWhileDegradedStepsDownWithTheGaugeCleared) {
  testing::TempDir dir;
  Simulator sim;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  cluster::ClusterSim cluster(&sim);
  ASSERT_OK(cluster.AddNode({.name = "node0", .num_cpus = 2}));
  core::ActivityRegistry registry;
  ASSERT_OK(registry.Register(
      "noop", [](const core::ActivityInput&) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.cost = Duration::Seconds(5);
        return out;
      }));

  obs::Observability old_obs;
  EngineOptions options;
  options.observability = &old_obs;
  Engine old_primary(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(old_primary.Startup());
  ASSERT_OK(old_primary.RegisterTemplate(
      ocr::ProcessBuilder("p")
          .Task(ocr::TaskBuilder::Activity("a", "noop"))
          .Build()
          .value()));
  ASSERT_OK_AND_ASSIGN(std::string id, old_primary.StartProcess("p"));

  // The disk fills while the job runs: its completion cannot be made
  // durable and the server goes degraded.
  fault_fs.SetDiskFull(true);
  sim.RunFor(Duration::Seconds(6));
  ASSERT_TRUE(old_primary.IsDegraded());
  EXPECT_EQ(old_obs.metrics.GetGauge("engine_store_degraded")->value(), 1.0);
  old_primary.TakeStateChanges();

  // The disk heals, but a second server takes the store over before the
  // degraded one retries: the retry is fenced and the old server steps
  // down, leaving neither degraded mode nor its gauge behind.
  fault_fs.SetDiskFull(false);
  obs::Observability new_obs;
  options.observability = &new_obs;
  Engine new_primary(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(new_primary.Startup());
  sim.RunFor(Duration::Seconds(5));
  EXPECT_FALSE(old_primary.IsUp());
  EXPECT_FALSE(old_primary.IsDegraded());
  EXPECT_EQ(old_obs.metrics.GetGauge("engine_store_degraded")->value(), 0.0);
  // The step-down reports the instance it dropped from memory.
  EXPECT_EQ(old_primary.TakeStateChanges(), std::vector<std::string>{id});
}

// --- Engine degraded mode ---------------------------------------------------

TEST(DegradedModeTest, EngineSurvivesDiskFullWindowWithoutLosingWork) {
  Rng data_rng(11);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 24;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &data_rng);
  auto ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  uint64_t expected = ctx->SyntheticMatchCount(0, 24);

  testing::TempDir dir;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(cluster.AddNode(
        {.name = "node" + std::to_string(i), .num_cpus = 1}));
  }
  core::ActivityRegistry registry;
  ASSERT_OK(workloads::RegisterAllVsAllActivities(&registry, ctx));
  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  auto engine = std::make_unique<Engine>(&sim, &cluster, store.get(),
                                         &registry, options);
  ASSERT_OK(engine->Startup());
  ASSERT_OK(engine->RegisterTemplate(workloads::BuildAllVsAllProcess()));
  ASSERT_OK(engine->RegisterTemplate(workloads::BuildAlignPartitionProcess()));
  Value::Map args;
  args["db_name"] = Value("degraded");
  args["num_teus"] = Value(6);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       engine->StartProcess("all_vs_all", args));

  // Script a disk-full window the way scenarios script node outages. The
  // fault-free run finishes in well under a simulated minute, so a window
  // opening at second 10 lands squarely in the middle of it.
  cluster::FailureInjector inject(&cluster);
  const TimePoint window_start =
      TimePoint::FromMicros(0) + Duration::Seconds(10);
  const Duration window = Duration::Minutes(3);
  inject.ScheduleDiskFullWindow(window_start, window, &fault_fs,
                                "disk full under the server");

  // Mid-window the engine must be degraded, with the gauge raised.
  sim.RunFor(Duration::Seconds(40));
  EXPECT_TRUE(engine->IsDegraded());
  EXPECT_TRUE(engine->IsUp());
  EXPECT_EQ(obs.metrics.GetGauge("engine_store_degraded")->value(), 1.0);
  EXPECT_GE(obs.metrics.GetCounter("engine_store_degraded_total")->value(),
            1u);

  // Ride out the window and finish.
  for (int waits = 0; waits < 300; ++waits) {
    sim.RunFor(Duration::Minutes(5));
    auto state = engine->GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kDone) break;
  }
  ASSERT_OK_AND_ASSIGN(auto state, engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);
  EXPECT_FALSE(engine->IsDegraded());
  EXPECT_EQ(obs.metrics.GetGauge("engine_store_degraded")->value(), 0.0);

  // Zero lost transitions: the result matches the failure-free truth.
  ASSERT_OK_AND_ASSIGN(Value total,
                       engine->GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), expected);

  // The span log shows the degraded window, and no job started inside
  // it: degraded mode really does pause the navigator.
  std::vector<std::pair<TimePoint, TimePoint>> windows;
  obs.spans.ForEach([&](const obs::Span& span) {
    if (span.kind != obs::SpanKind::kStoreDegraded) return;
    EXPECT_FALSE(span.open);
    EXPECT_EQ(span.outcome, "recovered");
    EXPECT_GT(span.end, span.start);
    windows.emplace_back(span.start, span.end);
  });
  ASSERT_FALSE(windows.empty());
  size_t dispatched_while_degraded = 0;
  obs.spans.ForEach([&](const obs::Span& span) {
    if (span.kind != obs::SpanKind::kJob) return;
    for (const auto& [degraded_at, recovered_at] : windows) {
      if (span.start > degraded_at && span.start < recovered_at) {
        ++dispatched_while_degraded;
      }
    }
  });
  EXPECT_EQ(dispatched_while_degraded, 0u);

  // And the store's durable state is complete after the fact. The engine
  // goes first: its destructor still talks to the store.
  sim.RunFor(Duration::Hours(1));
  engine.reset();
  store.reset();
  auto reopened = RecordStore::Open(dir.path()).value();
  EXPECT_FALSE(reopened->Scan("instance", "").empty());
}

// --- SCRUB ------------------------------------------------------------------

TEST(ScrubTest, QuarantinesCorruptSegmentAndSalvagesTheRest) {
  testing::TempDir dir;
  obs::Observability obs;
  auto store = RecordStore::Open(dir.path()).value();
  store->SetObservability(&obs);
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  policy.compact_delta_ratio = 100;  // keep every segment
  store->SetCheckpointPolicy(policy);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) {
      ASSERT_OK(store->Put("t" + std::to_string(round),
                           "k" + std::to_string(i), "v"));
    }
    ASSERT_OK(store->Checkpoint());
  }

  // Corrupt the payload of one on-disk segment behind the store's back.
  std::vector<std::string> segments;
  for (const std::string& f : testing::ListDirFiles(dir.path())) {
    if (f.find("seg_") != std::string::npos) segments.push_back(f);
  }
  ASSERT_GE(segments.size(), 2u);
  testing::FlipBitAt(segments[0], testing::FileSizeOf(segments[0]) / 2);

  ASSERT_OK_AND_ASSIGN(RecordStore::ScrubReport report, store->Scrub());
  ASSERT_EQ(report.quarantined.size(), 1u);
  EXPECT_TRUE(report.rebuilt);
  EXPECT_TRUE(
      Fs::Default()->Exists(segments[0].substr(0, segments[0].size()) +
                            ".quarantined") ||
      Fs::Default()->Exists(dir.path() + "/" + report.quarantined[0] +
                            ".quarantined"));
  EXPECT_GE(obs.metrics.GetCounter("store_scrub_runs_total")->value(), 1u);
  EXPECT_GE(obs.metrics.GetCounter("store_scrub_quarantined_total")->value(),
            1u);

  // Nothing was lost: the rebuild re-materialized the live image.
  store.reset();
  auto reopened = RecordStore::Open(dir.path()).value();
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 6; ++i) {
      EXPECT_TRUE(reopened->Contains("t" + std::to_string(round),
                                     "k" + std::to_string(i)))
          << "t" << round << "/k" << i;
    }
  }

  // A clean store scrubs clean.
  ASSERT_OK_AND_ASSIGN(RecordStore::ScrubReport clean, reopened->Scrub());
  EXPECT_TRUE(clean.quarantined.empty());
  EXPECT_FALSE(clean.rebuilt);
}

}  // namespace
}  // namespace biopera
