// Microbenchmarks of the persistent record store: WAL append/commit
// latency (every navigator transition pays one), checkpoint cost, and
// recovery time as a function of log length. These bound how much
// dependability overhead BioOpera adds per activity.
//
// BM_WalCommit models the engine's default commit pipeline: commits
// coalesce inside a commit group and hit the WAL at a flush barrier
// every kGroupSize commits (one simulator pump ~ one group).
// BM_DurableCommit is the ungrouped variant — one WAL append + flush per
// commit — i.e. the pre-group-commit behavior.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <optional>
#include <string>
#include <vector>

#include "bench/bench_main.h"
#include "common/strings.h"
#include "store/record_store.h"

namespace biopera {
namespace {

// Commits per flush barrier in BM_WalCommit; roughly what one dispatch
// pump of a busy engine coalesces.
constexpr int kGroupSize = 16;

// The commit benches overwrite a bounded working set of task records,
// which is what the engine actually does: a task's record is rewritten on
// every state transition (ready → running → done), it is not appended
// once. Keys are pre-built so the loop times the store, not StrFormat.
constexpr int kWorkingSet = 4096;

std::vector<std::string> MakeTaskKeys() {
  std::vector<std::string> keys;
  keys.reserve(kWorkingSet);
  for (int k = 0; k < kWorkingSet; ++k) {
    keys.push_back(StrFormat("inst-007/task/%04d/state", k));
  }
  return keys;
}

std::string FreshDir() {
  static int counter = 0;
  auto dir = std::filesystem::temp_directory_path() /
             StrFormat("biopera_microstore_%d_%d", ++counter, ::getpid());
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

// The commit benches measure WAL latency, not checkpoint cadence: disable
// the auto-checkpoint policy so the growing table never snapshots mid-run.
void DisableAutoCheckpoint(RecordStore* store) {
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  policy.every_commits = 0;
  store->SetCheckpointPolicy(policy);
}

void BM_WalCommit(benchmark::State& state) {
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  DisableAutoCheckpoint(store->get());
  const std::vector<std::string> keys = MakeTaskKeys();
  const std::string value(static_cast<size_t>(state.range(0)), 'x');
  for (const std::string& key : keys) (*store)->Put("instance", key, value);
  uint64_t i = 0;
  std::optional<RecordStore::CommitScope> group;
  int in_group = 0;
  for (auto _ : state) {
    if (!group.has_value()) {
      group.emplace(store->get());
      in_group = 0;
    }
    WriteBatch batch;
    batch.Put("instance", keys[i++ % kWorkingSet], value);
    benchmark::DoNotOptimize((*store)->Apply(batch));
    if (++in_group == kGroupSize) group.reset();  // flush barrier
  }
  group.reset();
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  state.counters["group"] = kGroupSize;
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalCommit)->Arg(64)->Arg(1024)->Arg(16384);

void BM_DurableCommit(benchmark::State& state) {
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  DisableAutoCheckpoint(store->get());
  const std::vector<std::string> keys = MakeTaskKeys();
  const std::string value(static_cast<size_t>(state.range(0)), 'x');
  for (const std::string& key : keys) (*store)->Put("instance", key, value);
  uint64_t i = 0;
  for (auto _ : state) {
    WriteBatch batch;
    batch.Put("instance", keys[i++ % kWorkingSet], value);
    benchmark::DoNotOptimize((*store)->Apply(batch));
  }
  state.SetBytesProcessed(static_cast<int64_t>(state.iterations()) *
                          state.range(0));
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_DurableCommit)->Arg(64)->Arg(1024)->Arg(16384);

void BM_BatchedCommit(benchmark::State& state) {
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  DisableAutoCheckpoint(store->get());
  uint64_t i = 0;
  for (auto _ : state) {
    WriteBatch batch;
    for (int k = 0; k < state.range(0); ++k) {
      batch.Put("instance", StrFormat("rec/%llu", (unsigned long long)i++),
                "value");
    }
    benchmark::DoNotOptimize((*store)->Apply(batch));
  }
  state.counters["records/s"] = benchmark::Counter(
      static_cast<double>(state.iterations() * state.range(0)),
      benchmark::Counter::kIsRate);
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_BatchedCommit)->Arg(1)->Arg(16)->Arg(256);

void BM_Checkpoint(benchmark::State& state) {
  // A large, quiescent instance table plus a small hot "meta" table: each
  // iteration changes one record and checkpoints. The delta segment holds
  // that one record (with the rare full compaction folded into the mean).
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  DisableAutoCheckpoint(store->get());
  for (int k = 0; k < state.range(0); ++k) {
    (*store)->Put("instance", StrFormat("rec/%06d", k), "some value text");
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (*store)->Put("meta", "cursor",
                  StrFormat("%llu", (unsigned long long)i++));
    benchmark::DoNotOptimize((*store)->Checkpoint());
  }
  state.counters["records"] = static_cast<double>(state.range(0));
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Arg(1000)->Arg(10000);

// Rows changed between two checkpoints in BM_CheckpointDelta.
constexpr int kChangedRows = 100;

void BM_CheckpointDelta(benchmark::State& state) {
  // The engine's steady state: a checkpoint after a burst of task-record
  // rewrites spread over a large instance table. A delta segment carries
  // just the changed rows, so the cost should stay flat as the table
  // grows; the compactions the default ratio triggers (once the deltas
  // reach the full segment's bytes) are folded into the mean.
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  DisableAutoCheckpoint(store->get());
  const int rows = static_cast<int>(state.range(0));
  std::vector<std::string> keys;
  keys.reserve(rows);
  for (int k = 0; k < rows; ++k) {
    keys.push_back(StrFormat("inst-%06d/task/state", k));
    (*store)->Put("instance", keys.back(), "some value text");
  }
  benchmark::DoNotOptimize((*store)->Checkpoint());  // the full segment
  uint64_t next = 0;
  for (auto _ : state) {
    for (int k = 0; k < kChangedRows; ++k) {
      (*store)->Put("instance", keys[next++ % rows], "a rewritten value");
    }
    benchmark::DoNotOptimize((*store)->Checkpoint());
  }
  state.counters["rows"] = static_cast<double>(rows);
  state.counters["changed"] = kChangedRows;
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointDelta)->Arg(1000)->Arg(10000)->Arg(100000);

void BM_CheckpointFull(benchmark::State& state) {
  // The compaction cost: every checkpoint rewrites all tables into a full
  // segment (ratio 0).
  std::string dir = FreshDir();
  auto store = RecordStore::Open(dir);
  if (!store.ok()) state.SkipWithError("open failed");
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 0;
  policy.compact_delta_ratio = 0;  // always compact = always full
  (*store)->SetCheckpointPolicy(policy);
  for (int k = 0; k < state.range(0); ++k) {
    (*store)->Put("instance", StrFormat("rec/%06d", k), "some value text");
  }
  uint64_t i = 0;
  for (auto _ : state) {
    (*store)->Put("instance", "rec/000000",
                  StrFormat("%llu", (unsigned long long)i++));
    benchmark::DoNotOptimize((*store)->Checkpoint());
  }
  state.counters["records"] = static_cast<double>(state.range(0));
  store->reset();
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_CheckpointFull)->Arg(1000)->Arg(10000);

void BM_RecoveryReplay(benchmark::State& state) {
  // Opening a store whose state lives entirely in the WAL measures replay.
  std::string dir = FreshDir();
  {
    auto store = RecordStore::Open(dir);
    if (!store.ok()) state.SkipWithError("open failed");
    DisableAutoCheckpoint(store->get());
    for (int k = 0; k < state.range(0); ++k) {
      (*store)->Put("instance", StrFormat("rec/%06d", k),
                    "task state record with a plausible payload size......");
    }
  }
  for (auto _ : state) {
    auto reopened = RecordStore::Open(dir);
    benchmark::DoNotOptimize(reopened);
  }
  state.counters["wal_records"] = static_cast<double>(state.range(0));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RecoveryReplay)->Arg(1000)->Arg(10000);

}  // namespace
}  // namespace biopera

int main(int argc, char** argv) {
  return biopera::bench::RunBenchmarkMain(argc, argv, "BENCH_store.json");
}
