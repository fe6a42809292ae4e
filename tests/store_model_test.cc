// Model-checked record store: seeded random sequences of puts, deletes,
// commit groups, checkpoints (delta and full), scrubs and reopens, checked
// against a std::map reference after every reopen. Also the store-level
// equivalence of grouped and ungrouped commits.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/strings.h"
#include "obs/trace.h"
#include "store/record_store.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

/// table -> key -> value.
using Model = std::map<std::string, std::map<std::string, std::string>>;

constexpr const char* kTables[] = {"instance", "provenance", "history"};
/// Deletes only: never created by a put.
constexpr char kGhostTable[] = "ghost";
constexpr int kKeysPerTable = 24;

void ExpectMatches(const RecordStore& store, const Model& model,
                   const std::string& context) {
  for (const char* table : kTables) {
    std::vector<std::pair<std::string, std::string>> expected;
    if (auto it = model.find(table); it != model.end()) {
      expected.assign(it->second.begin(), it->second.end());
    }
    EXPECT_EQ(store.Scan(table), expected) << context << ", table " << table;
  }
  EXPECT_EQ(store.TableSize(kGhostTable), 0u) << context;
}

/// What one sequence exercised; the suite requires each case at least once.
struct Coverage {
  int delete_then_put = 0;  // a key deleted and put again in one interval
  int emptied_tables = 0;   // a checkpoint that saw a table go empty
  int ghost_deletes = 0;
  int compactions = 0;
  int delta_checkpoints = 0;
  int scrub_rebuilds = 0;
  int reopens = 0;
};

class StoreModel {
 public:
  StoreModel(uint64_t seed, Coverage* coverage)
      : rng_(seed), coverage_(coverage) {
    // Compaction boundaries move with the ratio: every checkpoint full,
    // often, at the default, or rarely.
    const double ratios[] = {0, 0.3, 1.0, 4.0};
    policy_.compact_delta_ratio = ratios[rng_.NextUint64(4)];
    policy_.wal_bytes = rng_.Bernoulli(0.5) ? 0 : 2048;
    policy_.every_commits = rng_.Bernoulli(0.5) ? 0 : 17;
    Reopen();
  }

  void Run(int steps) {
    for (int step = 0; step < steps && !::testing::Test::HasFailure();
         ++step) {
      context_ = StrFormat("step %d", step);
      const uint64_t roll = rng_.NextUint64(100);
      if (roll < 50) {
        ApplyBatch();
      } else if (roll < 65) {
        RecordStore::CommitScope group(store_.get());
        for (int n = static_cast<int>(rng_.UniformInt(2, 6)); n > 0; --n) {
          ApplyBatch();
          if (rng_.Bernoulli(0.2)) ASSERT_OK(store_->Flush());
        }
      } else if (roll < 70) {
        EmptyTable();
      } else if (roll < 74) {
        WriteBatch batch;
        batch.Delete(kGhostTable, Key());
        ASSERT_OK(store_->Apply(batch));
        ++coverage_->ghost_deletes;
      } else if (roll < 88) {
        Checkpoint();
      } else if (roll < 96) {
        Reopen();
      } else {
        ScrubRebuild();
      }
    }
    context_ = "end";
    Reopen();
  }

 private:
  std::string Key() {
    return StrFormat("inst-%02d/rec", static_cast<int>(rng_.NextUint64(
                                          kKeysPerTable)));
  }
  const char* Table() { return kTables[rng_.NextUint64(3)]; }

  /// Starts a new interval in `deleted_` when the policy checkpointed.
  void SyncInterval() {
    const uint64_t checkpoints = Counter("store_checkpoints_total");
    if (checkpoints != seen_checkpoints_) deleted_.clear();
    seen_checkpoints_ = checkpoints;
  }

  void ApplyBatch() {
    SyncInterval();
    WriteBatch batch;
    Model next = model_;
    for (int n = static_cast<int>(rng_.UniformInt(1, 4)); n > 0; --n) {
      const char* table = Table();
      std::string key = Key();
      if (rng_.Bernoulli(0.35)) {
        batch.Delete(table, key);
        next[table].erase(key);
        deleted_.insert({table, key});
      } else {
        std::string value = StrFormat(
            "v%llu", static_cast<unsigned long long>(rng_.NextUint64(1000)));
        batch.Put(table, key, value);
        next[table][key] = value;
        if (deleted_.contains({table, key})) ++coverage_->delete_then_put;
      }
    }
    ASSERT_OK(store_->Apply(batch));
    model_ = std::move(next);
  }

  void EmptyTable() {
    SyncInterval();
    const char* table = Table();
    WriteBatch batch;
    for (const auto& [key, value] : model_[table]) {
      batch.Delete(table, key);
      deleted_.insert({table, key});
    }
    batch.Delete(table, Key());  // and one key that may not exist
    ASSERT_OK(store_->Apply(batch));
    model_[table].clear();
  }

  void Checkpoint() {
    SyncInterval();
    const uint64_t compactions = Counter("store_checkpoint_compactions_total");
    const uint64_t checkpoints = Counter("store_checkpoints_total");
    ASSERT_OK(store_->Checkpoint());
    if (Counter("store_checkpoints_total") > checkpoints) {
      if (Counter("store_checkpoint_compactions_total") > compactions) {
        ++coverage_->compactions;
      } else {
        ++coverage_->delta_checkpoints;
      }
    }
    for (const char* table : kTables) {
      if (model_[table].empty() && store_->TableSize(table) == 0 &&
          std::any_of(deleted_.begin(), deleted_.end(),
                      [&](const auto& d) { return d.first == table; })) {
        ++coverage_->emptied_tables;
      }
    }
    deleted_.clear();
    seen_checkpoints_ = Counter("store_checkpoints_total");
  }

  void Reopen() {
    store_.reset();  // flushes any pending group
    auto opened = RecordStore::Open(dir_.path());
    ASSERT_TRUE(opened.ok()) << context_ << ": " << opened.status().ToString();
    store_ = std::move(*opened);
    store_->SetCheckpointPolicy(policy_);
    store_->SetObservability(&obs_);
    ExpectMatches(*store_, model_, context_ + ", after reopen");
    ++coverage_->reopens;
    // The replayed WAL is not yet in a segment: its puts and deletes
    // count as changed until the next checkpoint, as before the reopen.
  }

  void ScrubRebuild() {
    std::vector<std::string> segments;
    for (const std::string& f : testing::ListDirFiles(dir_.path())) {
      if (f.ends_with(".dat") && f.find("/seg_") != std::string::npos) {
        segments.push_back(f);
      }
    }
    if (segments.empty()) return;
    const std::string& victim = segments[rng_.NextUint64(segments.size())];
    testing::FlipBitAt(victim, testing::FileSizeOf(victim) / 2);
    ASSERT_OK_AND_ASSIGN(RecordStore::ScrubReport report, store_->Scrub());
    EXPECT_EQ(report.quarantined.size(), 1u) << context_;
    EXPECT_TRUE(report.rebuilt) << context_;
    ++coverage_->scrub_rebuilds;
    SyncInterval();  // the rebuild is a checkpoint
    Reopen();
  }

  uint64_t Counter(const std::string& name) {
    return obs_.metrics.GetCounter(name)->value();
  }

  Rng rng_;
  Coverage* coverage_;
  testing::TempDir dir_;
  obs::Observability obs_;
  RecordStore::CheckpointPolicy policy_;
  std::unique_ptr<RecordStore> store_;
  Model model_;
  /// (table, key) deleted since the last checkpoint.
  std::set<std::pair<std::string, std::string>> deleted_;
  uint64_t seen_checkpoints_ = 0;
  std::string context_ = "open";
};

TEST(StoreModelTest, RandomSequencesMatchAMapReference) {
  Coverage coverage;
  const uint64_t offset = testing::ChaosSeedOffset();
  for (uint64_t seed = 1; seed <= 24; ++seed) {
    SCOPED_TRACE(StrFormat("seed %llu",
                           static_cast<unsigned long long>(seed + offset)));
    StoreModel model(seed + offset, &coverage);
    model.Run(400);
    if (HasFailure()) return;
  }
  // The sequences reached every case the delta format has to get right.
  EXPECT_GT(coverage.delete_then_put, 0);
  EXPECT_GT(coverage.emptied_tables, 0);
  EXPECT_GT(coverage.ghost_deletes, 0);
  EXPECT_GT(coverage.compactions, 0);
  EXPECT_GT(coverage.delta_checkpoints, 0);
  EXPECT_GT(coverage.scrub_rebuilds, 0);
  EXPECT_GT(coverage.reopens, 0);
}

TEST(StoreModelTest, GroupedAndUngroupedCommitsReopenToTheSameImage) {
  // The same batches, applied one WAL record each and in commit groups of
  // random size (with flush barriers inside some), with the same
  // checkpoint policy: both stores reopen to the same image. Group commit
  // changes how the WAL is framed and when checkpoints fire, never what is
  // persisted.
  Rng rng(7 + testing::ChaosSeedOffset());
  std::vector<WriteBatch> batches(600);
  for (WriteBatch& batch : batches) {
    for (int n = static_cast<int>(rng.UniformInt(1, 5)); n > 0; --n) {
      const char* table = kTables[rng.NextUint64(3)];
      std::string key = StrFormat("inst-%02d/rec",
                                  static_cast<int>(rng.NextUint64(40)));
      if (rng.Bernoulli(0.3)) {
        batch.Delete(table, key);
      } else {
        batch.Put(table, key,
                  StrFormat("v%llu", static_cast<unsigned long long>(
                                         rng.NextUint64(1000))));
      }
    }
  }
  RecordStore::CheckpointPolicy policy;
  policy.wal_bytes = 4096;
  policy.every_commits = 50;

  testing::TempDir ungrouped_dir, grouped_dir;
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(ungrouped_dir.path()));
    store->SetCheckpointPolicy(policy);
    for (const WriteBatch& batch : batches) ASSERT_OK(store->Apply(batch));
  }
  {
    ASSERT_OK_AND_ASSIGN(auto store, RecordStore::Open(grouped_dir.path()));
    store->SetCheckpointPolicy(policy);
    for (size_t i = 0; i < batches.size();) {
      RecordStore::CommitScope group(store.get());
      for (size_t n = rng.UniformInt(1, 12); n > 0 && i < batches.size();
           --n, ++i) {
        ASSERT_OK(store->Apply(batches[i]));
        if (rng.Bernoulli(0.1)) ASSERT_OK(store->Flush());
      }
    }
  }
  ASSERT_OK_AND_ASSIGN(auto ungrouped,
                       RecordStore::Open(ungrouped_dir.path()));
  ASSERT_OK_AND_ASSIGN(auto grouped, RecordStore::Open(grouped_dir.path()));
  size_t rows = 0;
  for (const char* table : kTables) {
    auto expected = ungrouped->Scan(table);
    EXPECT_EQ(grouped->Scan(table), expected) << table;
    rows += expected.size();
  }
  EXPECT_GT(rows, 0u);
}

}  // namespace
}  // namespace biopera
