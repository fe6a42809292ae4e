// Chaos matrix for the lossy control plane: a synthetic all-vs-all runs
// over a FaultChannel while a seeded adversary drops, duplicates, delays
// and reorders protocol messages, cuts per-link asymmetric partitions
// and flaps node links. The run must still converge to the failure-free
// ground truth with zero lost and zero doubly-applied completions — the
// exactly-once protocol as a property over random message histories.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "cluster/cluster.h"
#include "cluster/failure.h"
#include "comms/channel.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "obs/invariants.h"
#include "obs/trace.h"
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

// The matrix axes: which part of the control plane misbehaves.
enum Mode {
  kDrop = 0,      // commands and reports vanish in flight
  kDup,           // messages arrive twice
  kDelayReorder,  // messages arrive late and out of order
  kPartition,     // random asymmetric per-link partitions
  kFlap,          // links bounce down/up in quick succession
  kEverything,    // all of the above at once, plus node crashes
  kNumModes,
};

const char* ModeName(int mode) {
  switch (mode) {
    case kDrop: return "drop";
    case kDup: return "dup";
    case kDelayReorder: return "delay_reorder";
    case kPartition: return "partition";
    case kFlap: return "flap";
    case kEverything: return "everything";
    default: return "?";
  }
}

class CommsChaos
    : public ::testing::TestWithParam<std::tuple<int, int>> {};

TEST_P(CommsChaos, ExactlyOnceUnderLossyControlPlane) {
  const int mode = std::get<0>(GetParam());
  const uint64_t seed =
      6000 + testing::ChaosSeedOffset() +
      37 * static_cast<uint64_t>(std::get<1>(GetParam()));
  SCOPED_TRACE(std::string("mode=") + ModeName(mode) +
               " seed=" + std::to_string(seed));

  Rng data_rng(99);  // the dataset is the same across all chaos seeds
  darwin::GeneratorOptions gen;
  gen.num_sequences = 240;
  darwin::DatasetMeta meta = darwin::GenerateDatasetMeta(gen, &data_rng);
  auto ctx = workloads::MakeSyntheticContext(meta.lengths, meta.family_of);
  ctx->background_match_rate = 0;
  const uint64_t expected = ctx->SyntheticMatchCount(0, 240);

  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  obs::Observability obs;
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  // Deliberately slow nodes: the synthetic workload is cheap, and the
  // Poisson adversaries (partition/flap/crash, MTBFs in minutes) only
  // exercise anything if the run spans well over an hour of virtual
  // time at every seed offset.
  const int kNodes = 4;
  for (int i = 0; i < kNodes; ++i) {
    ASSERT_OK(cluster.AddNode(
        {.name = "node" + std::to_string(i), .num_cpus = 1, .speed = 0.1}));
  }
  core::ActivityRegistry registry;
  ASSERT_OK(workloads::RegisterAllVsAllActivities(&registry, ctx));

  comms::FaultChannel chan;
  chan.BindSimulator(&sim);

  EngineOptions options;
  options.seed = seed;
  options.observability = &obs;
  options.channel = &chan;
  options.dispatch_retry = Duration::Minutes(1);
  // Lease mode: death and rebirth are detected from heartbeats alone.
  options.heartbeat_interval = Duration::Seconds(30);
  options.lease_misses_to_suspect = 3;
  options.lease_condemn_grace = Duration::Minutes(2);
  // The watchdog backstops lost reports the detector cannot see (a job
  // whose completion dropped while its node keeps heartbeating).
  options.job_timeout_factor = 3.0;
  options.job_timeout_slack = Duration::Minutes(10);
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(engine.Startup());
  ASSERT_OK(engine.RegisterTemplate(workloads::BuildAllVsAllProcess()));
  ASSERT_OK(engine.RegisterTemplate(workloads::BuildAlignPartitionProcess()));
  Value::Map args;
  args["db_name"] = Value("comms_chaos");
  args["num_teus"] = Value(16);
  ASSERT_OK_AND_ASSIGN(std::string id,
                       engine.StartProcess("all_vs_all", args));

  // Arm the adversary for this matrix cell.
  Rng fault_rng(seed);
  Rng env_rng(seed + 1);
  cluster::FailureInjector injector(&cluster);
  comms::FaultProfile profile;
  switch (mode) {
    case kDrop:
      profile.drop = 0.05;
      break;
    case kDup:
      profile.dup = 0.10;
      break;
    case kDelayReorder:
      profile.delay = 0.05;
      profile.reorder = 0.08;
      profile.delay_min = Duration::Seconds(5);
      profile.delay_max = Duration::Minutes(3);
      break;
    // MTBFs are minutes, not hours: the workload is short, and the
    // matrix only means something if partitions/flaps actually overlap
    // it at every seed offset.
    case kPartition:
      injector.StartRandomPartitions(&chan, Duration::Minutes(6),
                                     Duration::Minutes(3), &env_rng);
      break;
    case kFlap:
      injector.StartRandomFlaps(&chan, Duration::Minutes(5),
                                Duration::Seconds(20), &env_rng);
      break;
    case kEverything:
      profile.drop = 0.03;
      profile.dup = 0.04;
      profile.delay = 0.02;
      profile.reorder = 0.04;
      profile.delay_max = Duration::Minutes(2);
      injector.StartRandomPartitions(&chan, Duration::Minutes(10),
                                     Duration::Minutes(3), &env_rng);
      injector.StartRandomFlaps(&chan, Duration::Minutes(10),
                                Duration::Seconds(20), &env_rng);
      injector.StartRandomNodeFailures(Duration::Hours(1),
                                       Duration::Minutes(10), &env_rng);
      break;
  }
  if (profile.drop + profile.dup + profile.delay + profile.reorder > 0) {
    chan.SetRandomFaults(profile, &fault_rng);
  }

  // Let the adversary run against the workload.
  Rng pacing(seed + 2);
  for (int step = 0; step < 400; ++step) {
    sim.RunFor(Duration::Minutes(static_cast<double>(
        pacing.UniformInt(2, 15))));
    auto state = engine.GetInstanceState(id);
    if (state.ok() && *state == InstanceState::kDone) break;
  }

  // Heal everything and drain.
  chan.StopRandomFaults();
  injector.StopRandomPartitions();
  injector.StopRandomFlaps();
  injector.StopRandomFailures();
  for (int i = 0; i < kNodes; ++i) {
    const std::string name = "node" + std::to_string(i);
    cluster.RepairNode(name);
    chan.SetConnected(name, true);
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
  ASSERT_EQ(state, InstanceState::kDone);
  // Zero lost completions: the result equals the failure-free ground
  // truth.
  ASSERT_OK_AND_ASSIGN(Value total,
                       engine.GetWhiteboardValue(id, "total_matches"));
  EXPECT_EQ(static_cast<uint64_t>(total.AsInt()), expected);
  // Zero doubly-applied completions: run-level exactly-once invariant
  // over the span export.
  auto violations = obs::CheckExactlyOnce(obs.spans, id);
  EXPECT_TRUE(violations.empty())
      << violations.size() << " violations; first: "
      << (violations.empty() ? "" : violations[0].ToText());
  // The adversary actually did something in the message-fault modes.
  if (mode == kDrop || mode == kDup || mode == kDelayReorder ||
      mode == kEverything) {
    EXPECT_GT(chan.faults_injected(), 0u);
  }
  if (mode == kPartition || mode == kFlap || mode == kEverything) {
    EXPECT_FALSE(cluster.Events().empty());  // partitions/flaps annotated
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, CommsChaos,
    ::testing::Combine(::testing::Range(0, static_cast<int>(kNumModes)),
                       ::testing::Range(0, 2)));

}  // namespace
}  // namespace biopera
