// Shard partition storm: every shard of the sharded service runs behind
// its own FaultChannel while a seeded adversary cuts asymmetric per-link
// partitions and drops control-plane messages, independently per shard.
// The service must (a) converge to the fault-free ground truth — every
// instance done, every whiteboard result exactly what the deterministic
// activities compute — and (b) stay deterministic under chaos: reruns
// with the same seed export byte-identical per-shard spans, because each
// shard's faults are drawn from its own seeded stream in virtual time.
#include <gtest/gtest.h>

#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "common/strings.h"
#include "comms/channel.h"
#include "core/engine.h"
#include "ocr/builder.h"
#include "service/service.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

using core::InstanceState;
using service::ServiceOptions;
using service::ShardedService;
using service::Submission;
using service::Ticket;

constexpr int kShards = 3;
constexpr int kJobs = 24;
constexpr int kNodesPerShard = 2;

ocr::ProcessDef JobProcess() {
  auto def =
      ocr::ProcessBuilder("chaos_job")
          .Data("payload")
          .Task(ocr::TaskBuilder::Activity("prepare", "chaos.prepare"))
          .Task(ocr::TaskBuilder::Activity("run", "chaos.run")
                    .Input("wb.payload", "in.payload")
                    .Output("out.result", "wb.result")
                    .Retry(8, Duration::Minutes(2)))
          .Connect("prepare", "run")
          .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

void RegisterJobActivities(core::ActivityRegistry* registry) {
  ASSERT_OK(registry->Register(
      "chaos.prepare",
      [](const core::ActivityInput&) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.cost = Duration::Minutes(30);
        return out;
      }));
  ASSERT_OK(registry->Register(
      "chaos.run",
      [](const core::ActivityInput& in) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.fields["result"] = ocr::Value(in.Get("payload").AsInt() * 2);
        out.cost = Duration::Hours(1);
        return out;
      }));
}

ServiceOptions StormOptions(uint64_t seed) {
  ServiceOptions options;
  options.shards = kShards;
  options.seed = seed;
  options.barrier_quantum = Duration::Minutes(30);
  options.shard.fault_channel = true;
  auto& engine = options.shard.engine;
  engine.adaptive_monitoring = false;
  engine.dispatch_retry = Duration::Minutes(1);
  // Lease mode: shard engines detect dead/partitioned nodes from missing
  // heartbeats; the watchdog backstops completions lost in flight.
  engine.heartbeat_interval = Duration::Seconds(30);
  engine.lease_misses_to_suspect = 3;
  engine.lease_condemn_grace = Duration::Minutes(2);
  engine.job_timeout_factor = 3.0;
  engine.job_timeout_slack = Duration::Minutes(10);
  options.configure_cluster = [](int index, cluster::ClusterSim* cluster) {
    for (int n = 0; n < kNodesPerShard; ++n) {
      Status st = cluster->AddNode({.name = StrFormat("s%d-n%d", index, n),
                                    .num_cpus = 2,
                                    .speed = 1.0});
      if (!st.ok()) std::abort();
    }
  };
  return options;
}

struct StormRun {
  std::vector<std::string> global_ids;
  std::vector<std::string> shard_spans;
  std::vector<int64_t> results;       // payload-indexed whiteboard results
  uint64_t faults_injected = 0;
};

/// One full storm: submit, let per-shard partition storms rage for a
/// virtual day, heal, drain, restart anything the storm failed.
void RunStorm(const std::string& dir, uint64_t seed, StormRun* run) {
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ShardedService svc(dir, &registry, StormOptions(seed));
  ASSERT_OK(svc.Startup());
  ASSERT_OK(svc.RegisterTemplate(JobProcess()));

  StormRun& out = *run;
  for (int i = 0; i < kJobs; ++i) {
    Submission sub;
    sub.tenant = StrFormat("t%d", i % 2);
    sub.template_name = "chaos_job";
    sub.args["payload"] = ocr::Value(static_cast<int64_t>(i));
    auto ticket = svc.Submit(sub);
    ASSERT_TRUE(ticket.ok());
    out.global_ids.push_back(ticket->global_id);
  }

  // Arm one independent adversary per shard: asymmetric link partitions
  // (MTBF minutes — a storm, not background noise) plus random message
  // drops on the shard's own channel, each drawing from its own seeded
  // stream so shard k's fault history is independent of shard j's.
  std::vector<std::unique_ptr<cluster::FailureInjector>> injectors;
  std::vector<std::unique_ptr<Rng>> rngs;
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    service::EngineShard* shard = svc.shard(s);
    ASSERT_NE(shard->channel, nullptr);
    auto injector =
        std::make_unique<cluster::FailureInjector>(shard->cluster.get());
    auto env_rng = std::make_unique<Rng>(seed + 1000 * (s + 1));
    auto fault_rng = std::make_unique<Rng>(seed + 1000 * (s + 1) + 1);
    injector->StartRandomPartitions(shard->channel.get(),
                                    Duration::Minutes(8),
                                    Duration::Minutes(4), env_rng.get());
    comms::FaultProfile profile;
    profile.drop = 0.04;
    shard->channel->SetRandomFaults(profile, fault_rng.get());
    injectors.push_back(std::move(injector));
    rngs.push_back(std::move(env_rng));
    rngs.push_back(std::move(fault_rng));
  }

  // A virtual day of storm, one barrier per advance.
  for (int hour = 1; hour <= 24; ++hour) {
    svc.AdvanceUntil(TimePoint::Zero() + Duration::Hours(hour));
  }

  // Heal everything and drain; restart instances the storm failed.
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    service::EngineShard* shard = svc.shard(s);
    out.faults_injected += shard->channel->faults_injected();
    injectors[s]->StopRandomPartitions();
    shard->channel->StopRandomFaults();
    for (int n = 0; n < kNodesPerShard; ++n) {
      const std::string name = StrFormat("s%d-n%d", s, n);
      shard->cluster->RepairNode(name);
      shard->channel->SetConnected(name, true);
    }
  }
  for (int rounds = 0; rounds < 50; ++rounds) {
    svc.RunUntilQuiescent(/*max_barriers=*/100000);
    bool all_done = true;
    for (const std::string& id : out.global_ids) {
      auto state = svc.GetState(id);
      if (!state.ok()) continue;
      if (*state == InstanceState::kFailed) {
        auto ticket = svc.Find(id);
        ASSERT_TRUE(ticket.ok());
        ASSERT_OK(
            svc.shard(ticket->shard)->engine->Restart(ticket->instance_id));
        all_done = false;
      } else if (*state != InstanceState::kDone) {
        all_done = false;
      }
    }
    if (all_done) break;
  }

  // Restarts went to the shard engines directly; their state reports
  // still reach the front door's live count.
  EXPECT_EQ(svc.GetStats().live, 0u);
  for (const std::string& id : out.global_ids) {
    auto state = svc.GetState(id);
    ASSERT_TRUE(state.ok());
    EXPECT_EQ(*state, InstanceState::kDone) << id;
    auto result = svc.GetWhiteboardValue(id, "result");
    ASSERT_TRUE(result.ok()) << id;
    out.results.push_back(result->AsInt());
  }
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    out.shard_spans.push_back(svc.ExportShardSpans(s));
  }
}

StormRun RunStorm(const std::string& dir, uint64_t seed) {
  StormRun run;
  RunStorm(dir, seed, &run);
  return run;
}

class ShardPartitionStorm : public ::testing::TestWithParam<int> {};

TEST_P(ShardPartitionStorm, ConvergesToGroundTruthDeterministically) {
  const uint64_t seed =
      9100 + testing::ChaosSeedOffset() +
      53 * static_cast<uint64_t>(GetParam());
  SCOPED_TRACE("seed=" + std::to_string(seed));

  testing::TempDir a_dir, b_dir;
  StormRun a = RunStorm(a_dir.path(), seed);
  // The storm actually did something on the control plane.
  EXPECT_GT(a.faults_injected, 0u);
  // Fault-free ground truth: the activities are deterministic, so the
  // correct result of payload i is exactly 2*i regardless of how many
  // retries, re-dispatches or fencings the storm forced.
  ASSERT_EQ(a.results.size(), static_cast<size_t>(kJobs));
  for (int i = 0; i < kJobs; ++i) {
    EXPECT_EQ(a.results[i], 2 * i) << "payload " << i;
  }

  // Chaos is part of the simulation: a same-seed rerun replays the same
  // storm and exports byte-identical per-shard spans.
  StormRun b = RunStorm(b_dir.path(), seed);
  ASSERT_EQ(a.shard_spans.size(), b.shard_spans.size());
  EXPECT_EQ(a.shard_spans, b.shard_spans);
  EXPECT_EQ(a.results, b.results);
  EXPECT_EQ(a.faults_injected, b.faults_injected);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ShardPartitionStorm, ::testing::Values(0, 1),
                         [](const auto& info) {
                           return "seed" + std::to_string(info.param);
                         });

}  // namespace
}  // namespace biopera
