// Randomized chaos testing: a synthetic all-vs-all runs while a seeded
// adversary injects node crashes, network partitions, server crashes,
// suspend/resume cycles and storage-failure windows at random times. The
// final result must always equal the failure-free ground truth — the
// paper's dependability claim as a property over random histories.
#include <gtest/gtest.h>

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

class ChaosSweep : public ::testing::TestWithParam<int> {};

TEST_P(ChaosSweep, AllVsAllSurvivesRandomHavoc) {
  const uint64_t seed =
      4000 + testing::ChaosSeedOffset() + static_cast<uint64_t>(GetParam());
  Rng data_rng(99);  // the dataset is the same across all chaos seeds
  darwin::GeneratorOptions gen;
  gen.num_sequences = 120;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &data_rng);
  auto ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  uint64_t expected = ctx->SyntheticMatchCount(0, 120);

  testing::TempDir dir;
  FaultFs fault_fs(Fs::Default());
  auto store = RecordStore::Open(dir.path(), &fault_fs).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  const int kNodes = 4;
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_OK(cluster.AddNode(
        {.name = "node" + std::to_string(i), .num_cpus = 1}));
  }
  core::ActivityRegistry registry;
  ASSERT_OK(workloads::RegisterAllVsAllActivities(&registry, ctx));
  EngineOptions options;
  options.dispatch_retry = Duration::Minutes(1);
  // The watchdog lets runs survive permanent partitions without manual
  // restarts.
  options.job_timeout_factor = 3.0;
  options.job_timeout_slack = Duration::Minutes(10);
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(engine.Startup());
  ASSERT_OK(engine.RegisterTemplate(workloads::BuildAllVsAllProcess()));
  ASSERT_OK(engine.RegisterTemplate(workloads::BuildAlignPartitionProcess()));
  Value::Map args;
  args["db_name"] = Value("chaos");
  args["num_teus"] = Value(8);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       engine.StartProcess("all_vs_all", args));

  Rng chaos(seed);
  bool storage_broken = false;
  std::string partitioned;  // at most one node partitioned at a time
  for (int step = 0; step < 400; ++step) {
    sim.RunFor(Duration::Minutes(static_cast<double>(
        chaos.UniformInt(1, 10))));
    auto state = engine.GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kDone) break;

    switch (chaos.UniformInt(0, 9)) {
      case 0: {  // node crash + delayed repair
        std::string victim =
            "node" + std::to_string(chaos.UniformInt(0, kNodes - 1));
        if (cluster.IsUp(victim)) {
          cluster.CrashNode(victim);
          std::string v = victim;
          sim.Schedule(Duration::Minutes(static_cast<double>(
                           chaos.UniformInt(5, 60))),
                       [&cluster, v] { cluster.RepairNode(v); });
        }
        break;
      }
      case 1: {  // transient network partition of one node
        if (partitioned.empty()) {
          partitioned =
              "node" + std::to_string(chaos.UniformInt(0, kNodes - 1));
          cluster.SetConnected(partitioned, false);
        } else {
          cluster.SetConnected(partitioned, true);
          partitioned.clear();
        }
        break;
      }
      case 2:  // server crash, recovered after a gap
        if (engine.IsUp()) {
          engine.Crash();
          sim.RunFor(Duration::Minutes(static_cast<double>(
              chaos.UniformInt(1, 30))));
          ASSERT_OK(engine.Startup());
        }
        break;
      case 3: {  // suspend/resume cycle
        auto current = engine.GetInstanceState(id);
        if (current.ok() && *current == InstanceState::kRunning) {
          engine.Suspend(id);
          sim.RunFor(Duration::Minutes(static_cast<double>(
              chaos.UniformInt(1, 45))));
          engine.Resume(id);
        }
        break;
      }
      case 4:  // storage trouble window toggles (real ENOSPC at the fs)
        storage_broken = !storage_broken;
        fault_fs.SetDiskFull(storage_broken);
        break;
      case 5: {  // operator restart (always safe)
        auto current = engine.GetInstanceState(id);
        if (current.ok() && (*current == InstanceState::kRunning ||
                             *current == InstanceState::kFailed)) {
          engine.Restart(id);
        }
        break;
      }
      default:
        break;  // mostly, time just passes
    }
  }
  // Let the run finish cleanly: heal everything.
  fault_fs.SetDiskFull(false);
  if (!partitioned.empty()) cluster.SetConnected(partitioned, true);
  for (int i = 0; i < kNodes; ++i) {
    cluster.RepairNode("node" + std::to_string(i));
  }
  if (!engine.IsUp()) ASSERT_OK(engine.Startup());
  {
    auto state = engine.GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kFailed) {
      ASSERT_OK(engine.Restart(id));
    }
  }
  for (int waits = 0; waits < 200; ++waits) {
    sim.RunFor(Duration::Hours(1));
    auto state = engine.GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kDone) break;
    if (state.ok() && *state == InstanceState::kFailed) {
      ASSERT_OK(engine.Restart(id));
    }
  }

  ASSERT_OK_AND_ASSIGN(auto state, engine.GetInstanceState(id));
  ASSERT_EQ(state, InstanceState::kDone) << "seed " << seed;
  ASSERT_OK_AND_ASSIGN(Value total,
                       engine.GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), expected)
      << "seed " << seed;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ChaosSweep, ::testing::Range(0, 12));

}  // namespace
}  // namespace biopera
