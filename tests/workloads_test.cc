// Unit tests for the workloads module: TEU partitioning, queue decoding,
// synthetic match counting, and the tower-of-information process.
#include <gtest/gtest.h>

#include <numeric>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"
#include "workloads/allvsall.h"
#include "workloads/partition.h"
#include "workloads/tower.h"

namespace biopera::workloads {
namespace {

using ocr::Value;

// --- Partitioning -----------------------------------------------------------

std::vector<uint32_t> UniformLengths(size_t n, uint32_t len) {
  return std::vector<uint32_t>(n, len);
}

TEST(PartitionTest, CoversRangeWithoutGapsOrOverlap) {
  Rng rng(1);
  std::vector<uint32_t> lengths;
  for (int i = 0; i < 500; ++i) {
    lengths.push_back(static_cast<uint32_t>(rng.UniformInt(40, 900)));
  }
  for (size_t teus : {1u, 2u, 7u, 50u, 499u, 500u}) {
    auto partition = PartitionByCost(lengths, teus);
    ASSERT_EQ(partition.size(), teus) << teus;
    EXPECT_EQ(partition.front().first, 0u);
    EXPECT_EQ(partition.back().last, 500u);
    for (size_t k = 0; k + 1 < partition.size(); ++k) {
      EXPECT_EQ(partition[k].last, partition[k + 1].first);
      EXPECT_GT(partition[k].size(), 0u);
    }
  }
}

TEST(PartitionTest, MoreTeusThanEntriesClamps) {
  auto partition = PartitionByCost(UniformLengths(5, 100), 50);
  EXPECT_EQ(partition.size(), 5u);
}

TEST(PartitionTest, EmptyInputs) {
  EXPECT_TRUE(PartitionByCost({}, 10).empty());
  EXPECT_TRUE(PartitionByCost(UniformLengths(5, 1), 0).empty());
  EXPECT_TRUE(PartitionByCount(0, 5).empty());
}

TEST(PartitionTest, CostBalancingBeatsCountBalancing) {
  // Uniform lengths: triangular structure makes early entries far more
  // expensive. Cost balancing gives the first TEU far fewer entries.
  auto lengths = UniformLengths(1000, 300);
  auto by_cost = PartitionByCost(lengths, 10);
  auto by_count = PartitionByCount(1000, 10);
  EXPECT_LT(by_cost[0].size(), by_count[0].size() * 6 / 10);
  // Estimated cost imbalance (max/mean over TEUs) is much smaller for the
  // cost-based split.
  auto teu_cost = [&](const Teu& teu) {
    double suffix = 0;
    for (size_t j = lengths.size(); j > teu.last; --j) suffix += lengths[j - 1];
    double cells = 0;
    for (size_t i = teu.last; i > teu.first; --i) {
      cells += static_cast<double>(lengths[i - 1]) * suffix;
      suffix += lengths[i - 1];
    }
    return cells;
  };
  auto imbalance = [&](const std::vector<Teu>& teus) {
    double total = 0, worst = 0;
    for (const Teu& teu : teus) {
      double c = teu_cost(teu);
      total += c;
      worst = std::max(worst, c);
    }
    return worst / (total / teus.size());
  };
  EXPECT_LT(imbalance(by_cost), 1.3);
  EXPECT_GT(imbalance(by_count), 1.7);
}

TEST(PartitionTest, CountPartitionIsEven) {
  auto partition = PartitionByCount(10, 3);
  ASSERT_EQ(partition.size(), 3u);
  EXPECT_EQ(partition[0].size(), 4u);
  EXPECT_EQ(partition[1].size(), 3u);
  EXPECT_EQ(partition[2].size(), 3u);
}

TEST(PartitionTest, ValueRoundTrip) {
  std::vector<Teu> teus = {{0, 10}, {10, 25}, {25, 26}};
  ASSERT_OK_AND_ASSIGN(std::vector<Teu> parsed,
                       TeusFromValue(TeusToValue(teus)));
  EXPECT_EQ(parsed, teus);
}

TEST(PartitionTest, ValueRejectsMalformed) {
  EXPECT_FALSE(TeuFromValue(Value(3)).ok());
  EXPECT_FALSE(TeuFromValue(Value(Value::Map{})).ok());
  Value::Map reversed;
  reversed["first"] = Value(10);
  reversed["last"] = Value(3);
  EXPECT_FALSE(TeuFromValue(Value(reversed)).ok());
  EXPECT_FALSE(TeusFromValue(Value("nope")).ok());
}

// --- Synthetic match counting --------------------------------------------------

TEST(SyntheticCountTest, TeuCountsSumToTotal) {
  Rng rng(2);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 300;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  auto ctx = MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  ctx->PrepareSynthetic();
  uint64_t total = ctx->SyntheticMatchCount(0, 300);
  EXPECT_GT(total, 0u);
  for (size_t teus : {3u, 10u, 37u}) {
    auto partition = PartitionByCost(ctx->lengths, teus);
    uint64_t sum = 0;
    for (const Teu& teu : partition) {
      sum += ctx->SyntheticMatchCount(teu.first, teu.last);
    }
    EXPECT_EQ(sum, total) << teus;
  }
}

TEST(SyntheticCountTest, PairCountsAreTriangular) {
  Rng rng(3);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 50;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  auto ctx = MakeSyntheticContext(meta.lengths, meta.family_of);
  EXPECT_EQ(ctx->PairCount(0, 50), 50u * 49 / 2);
  EXPECT_EQ(ctx->PairCount(0, 25) + ctx->PairCount(25, 50),
            ctx->PairCount(0, 50));
  EXPECT_EQ(ctx->PairCount(49, 50), 0u);
}

TEST(SyntheticCountTest, NoiseFactorDeterministicAndMeanOne) {
  Rng rng(4);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 100;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  auto ctx = MakeSyntheticContext(meta.lengths, meta.family_of);
  EXPECT_DOUBLE_EQ(ctx->NoiseFactor(0, 5, 20), ctx->NoiseFactor(0, 5, 20));
  EXPECT_NE(ctx->NoiseFactor(0, 5, 20), ctx->NoiseFactor(1, 5, 20));
  // Mean over many distinct TEUs is ~1.
  double sum = 0;
  const int n = 4000;
  for (int i = 0; i < n; ++i) {
    sum += ctx->NoiseFactor(0, static_cast<uint32_t>(i),
                            static_cast<uint32_t>(i) + 10);
  }
  EXPECT_NEAR(sum / n, 1.0, 0.05);
  // Bigger TEUs have smaller variance.
  double var_small = 0, var_big = 0;
  for (int i = 0; i < n; ++i) {
    double s = ctx->NoiseFactor(0, static_cast<uint32_t>(i),
                                static_cast<uint32_t>(i) + 4);
    double b = ctx->NoiseFactor(0, static_cast<uint32_t>(i),
                                static_cast<uint32_t>(i) + 400);
    var_small += (s - 1) * (s - 1);
    var_big += (b - 1) * (b - 1);
  }
  EXPECT_GT(var_small, 5 * var_big);
}

TEST(SyntheticCountTest, UpdateModeCountsPairsInvolvingNewEntries) {
  Rng rng(5);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 200;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  const uint32_t update_from = 150;

  auto full = MakeSyntheticContext(meta.lengths, meta.family_of);
  full->background_match_rate = 0;
  full->PrepareSynthetic();
  auto old_only_meta = meta;
  old_only_meta.lengths.resize(update_from);
  old_only_meta.family_of.resize(update_from);
  auto old_only = MakeSyntheticContext(old_only_meta.lengths,
                                       old_only_meta.family_of);
  old_only->background_match_rate = 0;
  old_only->PrepareSynthetic();
  auto update = MakeSyntheticContext(meta.lengths, meta.family_of);
  update->background_match_rate = 0;
  update->update_from = update_from;
  update->PrepareSynthetic();

  std::vector<uint32_t> new_entries;
  for (uint32_t i = update_from; i < 200; ++i) new_entries.push_back(i);

  // Pair accounting: pairs involving a new entry = all pairs - old pairs.
  uint64_t all_pairs = full->PairCount(0, 200);
  uint64_t old_pairs = old_only->PairCount(0, update_from);
  EXPECT_EQ(update->PairCountFor(new_entries, 0,
                                 static_cast<uint32_t>(new_entries.size())),
            all_pairs - old_pairs);

  // Match accounting follows the same identity, and TEU splits of the new
  // queue sum to the total.
  uint64_t all_matches = full->SyntheticMatchCount(0, 200);
  uint64_t old_matches = old_only->SyntheticMatchCount(0, update_from);
  uint64_t update_total = update->SyntheticMatchCountFor(
      new_entries, 0, static_cast<uint32_t>(new_entries.size()));
  EXPECT_EQ(update_total, all_matches - old_matches);
  uint64_t split = update->SyntheticMatchCountFor(new_entries, 0, 20) +
                   update->SyntheticMatchCountFor(new_entries, 20, 50);
  EXPECT_EQ(split, update_total);
}

TEST(SyntheticCountTest, UpdateRunThroughEngineMatchesGroundTruth) {
  Rng rng(6);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 120;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  const uint32_t update_from = 90;
  auto ctx = MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  ctx->update_from = update_from;
  ctx->PrepareSynthetic();
  std::vector<uint32_t> new_entries;
  for (uint32_t i = update_from; i < 120; ++i) new_entries.push_back(i);
  uint64_t expected = ctx->SyntheticMatchCountFor(
      new_entries, 0, static_cast<uint32_t>(new_entries.size()));

  biopera::testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < 2; ++i) {
    ASSERT_OK(cluster.AddNode(
        {.name = "node" + std::to_string(i), .num_cpus = 2}));
  }
  core::ActivityRegistry registry;
  ASSERT_OK(RegisterAllVsAllActivities(&registry, ctx));
  core::Engine engine(&sim, &cluster, store.get(), &registry);
  ASSERT_OK(engine.Startup());
  ASSERT_OK(engine.RegisterTemplate(BuildAllVsAllProcess()));
  ASSERT_OK(engine.RegisterTemplate(BuildAlignPartitionProcess()));
  Value::Map args;
  args["db_name"] = Value("update120");
  args["num_teus"] = Value(4);
  Value::Map queue;
  queue["first"] = Value(static_cast<int64_t>(update_from));
  queue["count"] = Value(static_cast<int64_t>(120 - update_from));
  args["queue_file"] = Value(std::move(queue));
  ASSERT_OK_AND_ASSIGN(std::string id,
                       engine.StartProcess("all_vs_all", args));
  sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, engine.GetInstanceState(id));
  ASSERT_EQ(state, core::InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value total,
                       engine.GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), expected);
}

// A {"count", "first"} queue is read as a range over the dataset; the
// same entries as an explicit list take the per-entry path. Both must
// give the same costs, counts and pairs to the microsecond, for a full run
// (the range [0, n)) and for update mode (the range [update_from, n)).
TEST(SyntheticCountTest, RangeQueueEqualsExplicitList) {
  Rng rng(7);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 400;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &rng);
  const uint32_t n = static_cast<uint32_t>(meta.lengths.size());
  for (uint32_t update_from : {0u, 300u}) {
    SCOPED_TRACE(update_from);
    auto ctx = MakeSyntheticContext(meta.lengths, meta.family_of);
    ctx->update_from = update_from;
    core::ActivityRegistry registry;
    ASSERT_OK(RegisterAllVsAllActivities(&registry, ctx));
    ASSERT_OK_AND_ASSIGN(core::ActivityFn fixed_pam,
                         registry.Find("darwin.fixed_pam"));
    ASSERT_OK_AND_ASSIGN(core::ActivityFn refine,
                         registry.Find("darwin.refine"));

    Value::Map range;
    range["first"] = Value(static_cast<int64_t>(update_from));
    range["count"] = Value(static_cast<int64_t>(n - update_from));
    Value::List list;
    std::vector<uint32_t> entries;
    for (uint32_t i = update_from; i < n; ++i) {
      list.push_back(Value(static_cast<int64_t>(i)));
      entries.push_back(i);
    }
    const QueueEntries as_range = QueueEntries::Range(update_from,
                                                      n - update_from);
    const QueueEntries as_list(entries);
    for (uint32_t last = 0; last <= entries.size(); ++last) {
      // The table's suffix and the per-entry walk agree to the bit.
      ASSERT_EQ(ctx->PartnerResiduesAfter(as_range, last),
                ctx->PartnerResiduesAfter(as_list, last))
          << last;
    }
    double old_residues = 0;
    for (uint32_t j = 0; j < update_from; ++j) old_residues += meta.lengths[j];
    EXPECT_EQ(ctx->OldPartnerResidues(), old_residues);

    std::vector<Teu> teus = PartitionByCount(entries.size(), 13);
    for (const Teu& teu : teus) {
      SCOPED_TRACE(teu.first);
      core::ActivityInput by_range, by_list;
      by_range.params["partition"] = TeusToValue({teu}).AsList()[0];
      by_list.params["partition"] = by_range.params["partition"];
      by_range.params["queue_file"] = Value(range);
      by_list.params["queue_file"] = Value(list);
      ASSERT_OK_AND_ASSIGN(core::ActivityOutput fixed_range,
                           fixed_pam(by_range));
      ASSERT_OK_AND_ASSIGN(core::ActivityOutput fixed_list,
                           fixed_pam(by_list));
      EXPECT_EQ(fixed_range.cost, fixed_list.cost);
      EXPECT_EQ(fixed_range.fields["count"], fixed_list.fields["count"]);
      EXPECT_EQ(fixed_range.fields["pairs"], fixed_list.fields["pairs"]);
      EXPECT_EQ(fixed_range.fields["pairs"].AsInt(),
                static_cast<int64_t>(ctx->PairCountFor(entries, teu.first,
                                                       teu.last)));

      by_range.params["count"] = fixed_range.fields["count"];
      by_list.params["count"] = fixed_list.fields["count"];
      ASSERT_OK_AND_ASSIGN(core::ActivityOutput refine_range,
                           refine(by_range));
      ASSERT_OK_AND_ASSIGN(core::ActivityOutput refine_list, refine(by_list));
      EXPECT_EQ(refine_range.cost, refine_list.cost);
      EXPECT_EQ(refine_range.fields["count"], refine_list.fields["count"]);
    }
  }
}

// --- Tower of information --------------------------------------------------------

struct TowerWorld {
  TowerWorld() {
    auto opened = RecordStore::Open(dir.path());
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < 4; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = 2,
                                  .speed = 1.0}));
    }
    engine = std::make_unique<core::Engine>(&sim, cluster.get(), store.get(),
                                            &registry, core::EngineOptions());
    context = std::make_shared<TowerContext>();
    EXPECT_OK(RegisterTowerActivities(&registry, context));
    EXPECT_OK(engine->Startup());
    EXPECT_OK(engine->RegisterTemplate(BuildTowerProcess()));
    for (const auto& sub : BuildTowerSubprocesses()) {
      EXPECT_OK(engine->RegisterTemplate(sub));
    }
  }

  biopera::testing::TempDir dir;
  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::unique_ptr<core::Engine> engine;
  std::shared_ptr<TowerContext> context;
};

TEST(TowerTest, RunsEndToEnd) {
  TowerWorld w;
  Value::Map args;
  args["num_dna"] = Value(1000);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("tower_of_information", args));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, core::InstanceState::kDone);

  // Counts flow down the tower: 1000 DNA -> 700 genes -> 700 proteins.
  ASSERT_OK_AND_ASSIGN(Value proteins,
                       w.engine->GetWhiteboardValue(id, "protein_count"));
  EXPECT_EQ(proteins, Value(700));
  // 700 proteins shard into ceil(700/250) = 3 parallel comparative units.
  ASSERT_OK_AND_ASSIGN(Value results,
                       w.engine->GetWhiteboardValue(id, "comparative_results"));
  ASSERT_TRUE(results.is_list());
  EXPECT_EQ(results.AsList().size(), 3u);
  // Final prediction count exists and is positive.
  ASSERT_OK_AND_ASSIGN(Value predictions,
                       w.engine->GetWhiteboardValue(id, "prediction_count"));
  ASSERT_TRUE(predictions.is_int());
  EXPECT_GT(predictions.AsInt(), 0);
  // Lineage: the tower's final value was written by the prediction
  // subprocess.
  ASSERT_OK_AND_ASSIGN(std::string writer,
                       w.engine->GetLineage(id, "prediction_count"));
  EXPECT_EQ(writer, "prediction");
}

TEST(TowerTest, SurvivesServerCrashMidTower) {
  TowerWorld w;
  Value::Map args;
  args["num_dna"] = Value(1000);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("tower_of_information", args));
  w.sim.RunFor(Duration::Minutes(20));
  w.engine->Crash();
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto state, w.engine->GetInstanceState(id));
  EXPECT_EQ(state, core::InstanceState::kDone);
}

TEST(TowerTest, SubprocessesNestAndReportStats) {
  TowerWorld w;
  Value::Map args;
  args["num_dna"] = Value(500);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("tower_of_information", args));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.state, core::InstanceState::kDone);
  // acquire + 2 (genomics) + 2*shards (comparative) + 3 (phylogeny) +
  // 2 (prediction): 500 DNA -> 350 proteins -> 2 shards -> 12 activities.
  EXPECT_EQ(summary.stats.activities_completed, 12u);
  EXPECT_GT(summary.stats.cpu_seconds, 0);
}

}  // namespace
}  // namespace biopera::workloads
