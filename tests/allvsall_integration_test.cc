// Integration tests: the Figure-3 all-vs-all process end to end, in both
// synthetic and real-computation modes, including mid-run failures.
#include <gtest/gtest.h>

#include <algorithm>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/align.h"
#include "darwin/generator.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"
#include "workloads/allvsall.h"

namespace biopera {
namespace {

using core::Engine;
using core::EngineOptions;
using core::InstanceState;
using ocr::Value;
using workloads::AllVsAllContext;

struct AvsaWorld {
  AvsaWorld(const std::string& dir, std::shared_ptr<AllVsAllContext> ctx,
            int nodes, int cpus_per_node) {
    auto opened = RecordStore::Open(dir);
    EXPECT_TRUE(opened.ok());
    store = std::move(*opened);
    cluster = std::make_unique<cluster::ClusterSim>(&sim);
    for (int i = 0; i < nodes; ++i) {
      EXPECT_OK(cluster->AddNode({.name = "node" + std::to_string(i),
                                  .num_cpus = cpus_per_node,
                                  .speed = 1.0}));
    }
    engine = std::make_unique<Engine>(&sim, cluster.get(), store.get(),
                                      &registry, EngineOptions());
    EXPECT_OK(workloads::RegisterAllVsAllActivities(&registry, ctx));
    EXPECT_OK(engine->Startup());
    EXPECT_OK(engine->RegisterTemplate(workloads::BuildAllVsAllProcess()));
    EXPECT_OK(
        engine->RegisterTemplate(workloads::BuildAlignPartitionProcess()));
  }

  Simulator sim;
  std::unique_ptr<RecordStore> store;
  std::unique_ptr<cluster::ClusterSim> cluster;
  core::ActivityRegistry registry;
  std::unique_ptr<Engine> engine;
};

uint64_t GroundTruthMatches(const AllVsAllContext& ctx) {
  return ctx.SyntheticMatchCount(0,
                                 static_cast<uint32_t>(ctx.lengths.size()));
}

TEST(AllVsAllIntegration, SyntheticRunProducesGroundTruthCounts) {
  Rng rng(42);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 120;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeSyntheticContext(data);
  // Zero background rate: per-TEU counts then sum exactly to ground truth
  // (the spurious-match estimate rounds per TEU).
  ctx->background_match_rate = 0;

  testing::TempDir dir;
  AvsaWorld w(dir.path(), ctx, /*nodes=*/3, /*cpus_per_node=*/2);
  Value::Map args;
  args["db_name"] = Value("synthetic120");
  args["num_teus"] = Value(8);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("all_vs_all", args));
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value total,
                       w.engine->GetWhiteboardValue(id, "total_matches"));
  ASSERT_TRUE(total.is_int());
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), GroundTruthMatches(*ctx));

  // The parallel block expanded into 8 TEUs, each a 2-activity subprocess;
  // plus user_input, queue_generation, preprocessing and the two merges.
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.stats.activities_completed, 8u * 2 + 5);
  EXPECT_GT(summary.stats.cpu_seconds, 0);
  EXPECT_GT(summary.stats.WallTime(), Duration::Zero());
  // Parallelism: wall < cpu on a 6-CPU cluster.
  EXPECT_LT(summary.stats.WallTime().ToSeconds(),
            summary.stats.cpu_seconds);
}

TEST(AllVsAllIntegration, ExplicitQueueFileSkipsQueueGeneration) {
  Rng rng(43);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 60;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeSyntheticContext(data);

  testing::TempDir dir;
  AvsaWorld w(dir.path(), ctx, 2, 2);
  Value::Map args;
  args["db_name"] = Value("synthetic60");
  args["num_teus"] = Value(4);
  Value::Map queue;
  queue["count"] = Value(60);
  args["queue_file"] = Value(queue);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("all_vs_all", args));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);
  // queue_generation was dead-path eliminated: one fewer root activity
  // than the no-queue-file run.
  ASSERT_OK_AND_ASSIGN(auto summary, w.engine->Summary(id));
  EXPECT_EQ(summary.stats.activities_completed, 4u * 2 + 4);
}

TEST(AllVsAllIntegration, RealModeFindsFamilyMatches) {
  Rng rng(7);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 24;
  gen.mean_length = 120;
  gen.min_length = 60;
  gen.max_member_pam = 100;  // close homologs: strong scores
  gen.fragment_probability = 0;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeRealContext(&data.dataset,
                                        &darwin::SharedPamFamily(),
                                        /*match_threshold=*/60);

  testing::TempDir dir;
  AvsaWorld w(dir.path(), ctx, 2, 2);
  Value::Map args;
  args["db_name"] = Value("real24");
  args["num_teus"] = Value(3);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("all_vs_all", args));
  w.sim.Run();
  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);

  ASSERT_OK_AND_ASSIGN(Value master,
                       w.engine->GetWhiteboardValue(id, "master_file"));
  ASSERT_TRUE(master.is_string());
  ASSERT_OK_AND_ASSIGN(std::vector<darwin::Match> matches,
                       darwin::MatchesFromText(master.AsString()));
  // Every same-family pair should be found (close homologs, low threshold).
  size_t family_pairs = 0;
  for (size_t i = 0; i < data.family_of.size(); ++i) {
    for (size_t j = i + 1; j < data.family_of.size(); ++j) {
      if (data.SameFamily(i, j)) ++family_pairs;
    }
  }
  ASSERT_GT(family_pairs, 0u);
  size_t found_family_pairs = 0;
  for (const auto& m : matches) {
    EXPECT_LT(m.entry_a, m.entry_b);
    if (data.SameFamily(m.entry_a, m.entry_b)) ++found_family_pairs;
    EXPECT_GT(m.pam_distance, 0);  // refinement ran
  }
  EXPECT_GE(found_family_pairs, family_pairs * 9 / 10);
  // Master file is sorted by entry.
  for (size_t k = 1; k < matches.size(); ++k) {
    EXPECT_TRUE(matches[k - 1].entry_a < matches[k].entry_a ||
                (matches[k - 1].entry_a == matches[k].entry_a &&
                 matches[k - 1].entry_b <= matches[k].entry_b));
  }
}

// The fixed-PAM screen is exact: its striped-SIMD pass plus re-scoring
// inside the quantization band accepts exactly the pairs, with exactly
// the scores, that the double kernel accepts when it scores every pair.
TEST(AllVsAllIntegration, FixedPamScreenEqualsBruteForceDoubleKernel) {
  Rng rng(11);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 30;
  gen.mean_length = 120;
  gen.min_length = 60;
  gen.max_member_pam = 100;
  gen.fragment_probability = 0;
  auto data = darwin::GenerateDataset(gen, &rng);
  const darwin::PamFamily& pam = darwin::SharedPamFamily();

  for (uint32_t update_from : {0u, 10u}) {
    SCOPED_TRACE("update_from=" + std::to_string(update_from));
    auto ctx = workloads::MakeRealContext(&data.dataset, &pam);
    ctx->update_from = update_from;
    const darwin::ScoringMatrix& matrix = pam.Scoring(ctx->fixed_pam);
    const uint32_t n = static_cast<uint32_t>(data.dataset.size());

    // The screen's pair order: each queue (new) entry against every old
    // entry, then against the queue entries after it.
    std::vector<std::pair<uint32_t, uint32_t>> pairs;
    for (uint32_t i = update_from; i < n; ++i) {
      for (uint32_t old = 0; old < update_from; ++old) {
        pairs.push_back({i, old});
      }
      for (uint32_t j = i + 1; j < n; ++j) pairs.push_back({i, j});
    }
    std::vector<double> scores;
    for (const auto& [i, j] : pairs) {
      scores.push_back(darwin::SmithWatermanScore(data.dataset[i],
                                                  data.dataset[j], matrix));
    }
    std::vector<double> sorted = scores;
    std::sort(sorted.begin(), sorted.end());
    ctx->match_threshold = sorted[sorted.size() * 9 / 10];
    std::vector<darwin::Match> brute_force;
    for (size_t k = 0; k < pairs.size(); ++k) {
      if (scores[k] < ctx->match_threshold) continue;
      darwin::Match m;
      m.entry_a = std::min(pairs[k].first, pairs[k].second);
      m.entry_b = std::max(pairs[k].first, pairs[k].second);
      m.score = scores[k];
      m.pam_distance = ctx->fixed_pam;
      brute_force.push_back(m);
    }
    ASSERT_FALSE(brute_force.empty());

    core::ActivityRegistry registry;
    ASSERT_OK(workloads::RegisterAllVsAllActivities(&registry, ctx));
    ASSERT_OK_AND_ASSIGN(core::ActivityFn fixed_pam,
                         registry.Find("darwin.fixed_pam"));
    core::ActivityInput input;
    Value::Map teu;
    teu["first"] = Value(0);
    teu["last"] = Value(static_cast<int64_t>(n - update_from));
    input.params["partition"] = Value(teu);
    if (update_from > 0) {
      Value::Map queue;
      queue["first"] = Value(static_cast<int64_t>(update_from));
      queue["count"] = Value(static_cast<int64_t>(n - update_from));
      input.params["queue_file"] = Value(queue);
    }
    ASSERT_OK_AND_ASSIGN(core::ActivityOutput out, fixed_pam(input));

    EXPECT_EQ(out.fields["matches"].AsString(),
              darwin::MatchesToText(brute_force));
    EXPECT_EQ(out.fields["count"].AsInt(),
              static_cast<int64_t>(brute_force.size()));
    // Pairs inside the quantization band below the threshold were
    // re-scored by the double kernel and rejected.
    auto rescored = std::find_if(
        out.provenance.begin(), out.provenance.end(),
        [](const auto& kv) { return kv.first == "sw_rescored"; });
    ASSERT_NE(rescored, out.provenance.end());
    EXPECT_GT(std::stoull(rescored->second), brute_force.size());
  }
}

TEST(AllVsAllIntegration, SurvivesRepeatedNodeCrashesAndServerCrash) {
  Rng rng(99);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 100;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeSyntheticContext(data);
  ctx->background_match_rate = 0;

  testing::TempDir dir;
  AvsaWorld w(dir.path(), ctx, 4, 1);
  Value::Map args;
  args["db_name"] = Value("synthetic100");
  args["num_teus"] = Value(10);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       w.engine->StartProcess("all_vs_all", args));

  // Crash a different node every 2 simulated minutes for a while, with
  // repair 5 minutes later; then crash the whole server and recover.
  for (int k = 0; k < 6; ++k) {
    w.sim.RunFor(Duration::Minutes(2));
    std::string victim = "node" + std::to_string(k % 4);
    if (w.cluster->IsUp(victim)) {
      ASSERT_OK(w.cluster->CrashNode(victim));
      std::string v = victim;
      w.sim.Schedule(Duration::Minutes(5),
                     [&w2 = w, v] { w2.cluster->RepairNode(v).ok(); });
    }
  }
  w.sim.RunFor(Duration::Minutes(1));
  w.engine->Crash();
  w.sim.RunFor(Duration::Minutes(10));
  ASSERT_OK(w.engine->Startup());
  w.sim.Run();

  ASSERT_OK_AND_ASSIGN(InstanceState state, w.engine->GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone);
  ASSERT_OK_AND_ASSIGN(Value total,
                       w.engine->GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), GroundTruthMatches(*ctx));
}

}  // namespace
}  // namespace biopera
