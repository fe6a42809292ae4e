// Crash-point recovery harness: a recording pass enumerates every fault
// point a small all-vs-all run exercises, then each point is armed as a
// crash (torn half-write, then a dead disk) at several occurrences. After
// every simulated crash the store directory must reopen on the real
// filesystem and a fresh engine must finish the run with the exact
// failure-free result — the paper's dependability claim quantified over
// every I/O the store issues.
//
// Two sweeps ride along: truncating the WAL at every byte offset, and
// flipping a bit in every byte of every store file. Neither may ever
// crash Open(); a bit flip may at worst surface a clean error.
#include <gtest/gtest.h>

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
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

constexpr int kNumSequences = 16;
constexpr int kNumTeus = 4;
constexpr int kNodes = 2;

std::shared_ptr<workloads::AllVsAllContext> MakeContext() {
  Rng data_rng(7);
  darwin::GeneratorOptions gen;
  gen.num_sequences = kNumSequences;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &data_rng);
  auto ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  return ctx;
}

/// One deterministic world over `fs` in `dir`. The checkpoint policy is
/// aggressive (checkpoint every 15 commits, compact at 2 segments) so a
/// short run exercises segment writes, manifest rewrites, WAL truncation
/// and compaction pruning — every fault point class.
struct World {
  /// Construction may legitimately fail when `fs` has a crash armed at a
  /// point hit during open or startup; no gtest assertions here — callers
  /// check ok()/status and decide whether a failure was expected.
  World(const std::string& dir, Fs* fs,
        std::shared_ptr<workloads::AllVsAllContext> ctx) {
    auto opened = RecordStore::Open(dir, fs);
    if (!(status = opened.status()).ok()) return;
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < kNodes; ++i) {
      if (!(status = cluster->AddNode(
                {.name = "node" + std::to_string(i), .num_cpus = 1}))
               .ok()) {
        return;
      }
    }
    if (!(status = workloads::RegisterAllVsAllActivities(&registry, ctx))
             .ok()) {
      return;
    }
    EngineOptions options;
    options.checkpoint_every_commits = 15;
    options.checkpoint_wal_bytes = 0;
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, options);
    RecordStore::CheckpointPolicy policy = store->checkpoint_policy();
    policy.compact_delta_ratio = 0.5;  // compact often: prune segments
    store->SetCheckpointPolicy(policy);
    if (!(status = engine->Startup()).ok()) return;
    if (!(status = engine->RegisterTemplate(workloads::BuildAllVsAllProcess()))
             .ok()) {
      return;
    }
    status = engine->RegisterTemplate(workloads::BuildAlignPartitionProcess());
  }

  bool ok() const { return engine != nullptr && status.ok(); }

  ~World() {
    engine.reset();
    store.reset();
  }

  /// Returns the new instance id, or "" if starting failed (which is a
  /// legitimate outcome under an armed crash; callers decide).
  std::string Start() {
    Value::Map args;
    args["db_name"] = Value("crash");
    args["num_teus"] = Value(kNumTeus);
    auto id = engine->StartProcess("all_vs_all", args);
    if (!id.ok()) {
      status = id.status();
      return "";
    }
    return *id;
  }

  /// Advances until the instance is done or `fault_fs` (optional) has
  /// died. Returns true when the run completed.
  bool RunToCompletion(const std::string& id, FaultFs* fault_fs = nullptr) {
    for (int step = 0; step < 500; ++step) {
      sim.RunFor(Duration::Hours(1));
      if (fault_fs != nullptr && fault_fs->dead()) return false;
      auto state = engine->GetInstanceState(id);
      if (state.ok() && *state == InstanceState::kDone) return true;
      if (state.ok() && *state == InstanceState::kFailed) {
        EXPECT_OK(engine->Restart(id));
      }
    }
    return false;
  }

  uint64_t Matches(const std::string& id) {
    auto total = engine->GetWhiteboardValue(id, "total_matches");
    EXPECT_TRUE(total.ok()) << total.status().ToString();
    return total.ok() ? static_cast<uint64_t>(total->AsInt()) : 0;
  }

  Status status = Status::OK();
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

/// Recovery check shared by all trials: the possibly-torn store directory
/// must reopen on the REAL filesystem and a fresh engine must finish the
/// workload with the failure-free result.
void ExpectRecovers(const std::string& dir,
                    std::shared_ptr<workloads::AllVsAllContext> ctx,
                    uint64_t expected, const std::string& context) {
  World recovered(dir, Fs::Default(), ctx);
  ASSERT_TRUE(recovered.ok()) << context << ": "
                              << recovered.status.ToString();
  // The crashed run's instance (if its start committed) is recovered in
  // whatever state it reached; otherwise start fresh.
  std::vector<core::InstanceSummary> instances =
      recovered.engine->ListInstances();
  std::string id = instances.empty() ? recovered.Start() : instances.front().id;
  ASSERT_FALSE(id.empty()) << context;
  auto state = recovered.engine->GetInstanceState(id);
  if (state.ok() && *state == InstanceState::kFailed) {
    ASSERT_OK(recovered.engine->Restart(id));
  }
  EXPECT_TRUE(recovered.RunToCompletion(id)) << context;
  EXPECT_EQ(recovered.Matches(id), expected) << context;
}

class CrashPointHarness : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    ctx_ = new std::shared_ptr<workloads::AllVsAllContext>(MakeContext());
    expected_ = (*ctx_)->SyntheticMatchCount(0, kNumSequences);
  }
  static void TearDownTestSuite() {
    delete ctx_;
    ctx_ = nullptr;
  }

  static std::shared_ptr<workloads::AllVsAllContext>* ctx_;
  static uint64_t expected_;
};

std::shared_ptr<workloads::AllVsAllContext>* CrashPointHarness::ctx_ = nullptr;
uint64_t CrashPointHarness::expected_ = 0;

TEST_F(CrashPointHarness, EveryFaultPointRecoversToGroundTruth) {
  // --- Recording pass: no faults, collect the hit counts. ---
  std::map<std::string, uint64_t> hits;
  {
    testing::TempDir dir;
    FaultFs fault_fs(Fs::Default());
    World world(dir.path(), &fault_fs, *ctx_);
    ASSERT_TRUE(world.ok());
    std::string id = world.Start();
    ASSERT_TRUE(world.RunToCompletion(id));
    ASSERT_EQ(world.Matches(id), expected_);
    hits = fault_fs.Hits();
  }
  ASSERT_FALSE(hits.empty());
  // The run must exercise the whole fault surface named in the store's
  // fault model; a refactor that silently routes I/O around the seam
  // fails here, not in production.
  for (const char* required :
       {"wal.open", "wal.append", "wal.flush", "wal.remove", "seg.create",
        "seg.append", "seg.sync", "seg.rename", "seg.remove",
        "manifest.create", "manifest.append", "manifest.sync",
        "manifest.rename", "dir.sync"}) {
    EXPECT_TRUE(hits.count(required)) << "fault point never hit: " << required;
  }

  // --- Crash trials: first, middle, and last occurrence of each point. ---
  int trials = 0;
  for (const auto& [point, count] : hits) {
    std::vector<uint64_t> occurrences = {1};
    if (count > 2) occurrences.push_back(count / 2);
    if (count > 1) occurrences.push_back(count);
    for (uint64_t at : occurrences) {
      SCOPED_TRACE(point + " @ " + std::to_string(at) + "/" +
                   std::to_string(count));
      testing::TempDir dir;
      {
        FaultFs fault_fs(Fs::Default());
        fault_fs.ArmCrash(point, at);
        World world(dir.path(), &fault_fs, *ctx_);
        if (!world.ok()) {
          // The crash fired during open/startup itself — legitimate, but
          // only if the disk really died (anything else is a plain bug).
          EXPECT_TRUE(fault_fs.dead())
              << point << ": " << world.status.ToString();
        } else {
          std::string id = world.Start();
          if (id.empty()) {
            EXPECT_TRUE(fault_fs.dead())
                << point << ": " << world.status.ToString();
          } else {
            bool completed = world.RunToCompletion(id, &fault_fs);
            // The run is deterministic, so an armed occurrence from the
            // recording pass must actually trigger (unless the run
            // finished first, which only happens for teardown points).
            EXPECT_TRUE(fault_fs.dead() || completed);
          }
        }
      }  // engine + store destroyed: the "machine" is gone
      ExpectRecovers(dir.path(), *ctx_, expected_,
                     "crash at " + point + " #" + std::to_string(at));
      if (HasFatalFailure()) return;
      ++trials;
    }
  }
  EXPECT_GE(trials, 30);
}

/// Builds a small pristine store directory directly (no engine): enough
/// commits for a checkpointed segment chain plus a live WAL tail.
void BuildPristineStore(const std::string& dir) {
  auto store = RecordStore::Open(dir).value();
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  policy.every_commits = 0;
  policy.compact_delta_ratio = 100;  // keep several segments around
  store->SetCheckpointPolicy(policy);
  for (int round = 0; round < 3; ++round) {
    for (int i = 0; i < 8; ++i) {
      ASSERT_OK(store->Put("t" + std::to_string(round),
                           "key" + std::to_string(i),
                           "value-" + std::to_string(round * 100 + i)));
    }
    ASSERT_OK(store->Checkpoint());
  }
  for (int i = 0; i < 8; ++i) {  // WAL tail past the last checkpoint
    ASSERT_OK(store->Put("tail", "key" + std::to_string(i),
                         "tail-value-" + std::to_string(i)));
  }
}

TEST(TornWriteSweep, WalTruncatedAtEveryByteOffsetStillOpens) {
  testing::TempDir pristine;
  BuildPristineStore(pristine.path());
  if (::testing::Test::HasFatalFailure()) return;
  long long wal_size = testing::FileSizeOf(pristine.path() + "/wal.log");
  ASSERT_GT(wal_size, 0);

  for (long long cut = 0; cut < wal_size; ++cut) {
    testing::TempDir work;
    testing::CopyDir(pristine.path(), work.path());
    testing::TruncateAt(work.path() + "/wal.log", cut);
    auto reopened = RecordStore::Open(work.path());
    // A torn tail is an expected crash artifact: open always succeeds and
    // silently drops the incomplete suffix.
    ASSERT_TRUE(reopened.ok())
        << "wal cut at byte " << cut << ": " << reopened.status().ToString();
    // Everything up to the last checkpoint is segment-backed and must
    // survive any WAL damage whatsoever.
    EXPECT_TRUE((*reopened)->Contains("t2", "key7")) << "cut " << cut;
  }
}

TEST(BitFlipSweep, EveryByteOfEveryStoreFileFailsCleanly) {
  testing::TempDir pristine;
  BuildPristineStore(pristine.path());
  if (::testing::Test::HasFatalFailure()) return;

  size_t flips = 0, clean_errors = 0;
  for (const std::string& file : testing::ListDirFiles(pristine.path())) {
    long long size = testing::FileSizeOf(file);
    std::string base = file.substr(file.find_last_of('/') + 1);
    for (long long off = 0; off < size; ++off) {
      testing::TempDir work;
      testing::CopyDir(pristine.path(), work.path());
      testing::FlipBitAt(work.path() + "/" + base, off, /*bit=*/3);
      auto reopened = RecordStore::Open(work.path());
      // Never a crash: either the flip was survivable (e.g. it landed in
      // the torn-tail region of the WAL) or Open reports a clean error.
      if (!reopened.ok()) ++clean_errors;
      ++flips;
    }
  }
  ASSERT_GT(flips, 0u);
  // Most flips hit checksummed payload bytes, so a healthy detector
  // rejects a large share of them; zero rejections would mean the CRCs
  // are not actually being checked.
  EXPECT_GT(clean_errors, 0u);
}

}  // namespace
}  // namespace biopera
