// ThreadPool unit tests plus the determinism contract of real-thread
// activity execution: running the engine with a pool must change nothing
// observable in virtual time — spans, lineage and whiteboard results
// stay byte-identical to the inline run.
#include <gtest/gtest.h>

#include <atomic>
#include <numeric>
#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "core/engine.h"
#include "darwin/generator.h"
#include "exec/thread_pool.h"
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
using exec::ThreadPool;
using ocr::Value;

TEST(ThreadPoolTest, RunsEveryTaskExactlyOnce) {
  ThreadPool pool(4);
  EXPECT_EQ(pool.size(), 4u);
  std::vector<std::atomic<int>> hits(100);
  std::vector<std::function<void()>> tasks;
  for (size_t i = 0; i < hits.size(); ++i) {
    tasks.push_back([&hits, i] { hits[i].fetch_add(1); });
  }
  pool.RunBatch(std::move(tasks));
  for (const auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ThreadPoolTest, RunBatchIsSynchronous) {
  // All writes performed by batch N are visible to the caller before
  // RunBatch returns — batch N+1 may depend on them without extra fences.
  ThreadPool pool(3);
  std::vector<int> values(64, 0);
  for (int round = 1; round <= 5; ++round) {
    std::vector<std::function<void()>> tasks;
    for (size_t i = 0; i < values.size(); ++i) {
      tasks.push_back([&values, i] { values[i] += 1; });
    }
    pool.RunBatch(std::move(tasks));
    EXPECT_EQ(std::accumulate(values.begin(), values.end(), 0),
              round * static_cast<int>(values.size()));
  }
}

TEST(ThreadPoolTest, SingleThreadPoolStillCompletesBatches) {
  // Degenerate configuration: one worker plus the draining caller.
  ThreadPool pool(1);
  std::atomic<int> count{0};
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 33; ++i) tasks.push_back([&count] { ++count; });
  pool.RunBatch(std::move(tasks));
  EXPECT_EQ(count.load(), 33);
}

TEST(ThreadPoolTest, EmptyBatchReturnsImmediately) {
  ThreadPool pool(2);
  pool.RunBatch({});
  ThreadPool idle(2);  // destruction with no batches must not hang
}

TEST(ThreadPoolTest, HardwareThreadsHasFloorOfOne) {
  EXPECT_GE(ThreadPool::HardwareThreads(), 1u);
}

struct EngineExports {
  std::string spans_jsonl;
  std::string lineage_jsonl;
  std::string master_file;
  uint64_t preexec_batches = 0;
  uint64_t preexec_tasks = 0;
  uint64_t preexec_lookahead = 0;
};

/// One small real-mode all-vs-all (actual Smith-Waterman kernels, not the
/// cost model), optionally pre-executing dispatched activities on a pool.
/// `lookahead` sets EngineOptions::preexec_lookahead (-1 keeps default);
/// `num_teus` widens the fan-out past cluster capacity so entries park.
EngineExports RunRealAllVsAll(uint64_t seed, ThreadPool* pool,
                              int lookahead = -1, int num_teus = 4) {
  Rng rng(seed);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 16;
  gen.mean_length = 90;
  gen.min_length = 50;
  gen.max_member_pam = 100;
  gen.fragment_probability = 0;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeRealContext(&data.dataset,
                                        &darwin::SharedPamFamily(),
                                        /*match_threshold=*/60);

  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  for (int i = 0; i < 2; ++i) {
    EXPECT_TRUE(
        cluster.AddNode({.name = "node" + std::to_string(i), .num_cpus = 2})
            .ok());
  }
  core::ActivityRegistry registry;
  EXPECT_TRUE(workloads::RegisterAllVsAllActivities(&registry, ctx).ok());

  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  options.executor = pool;
  if (lookahead >= 0) options.preexec_lookahead = lookahead;
  Engine engine(&sim, &cluster, store.get(), &registry, options);
  EXPECT_TRUE(engine.Startup().ok());
  EXPECT_TRUE(engine.RegisterTemplate(workloads::BuildAllVsAllProcess()).ok());
  EXPECT_TRUE(
      engine.RegisterTemplate(workloads::BuildAlignPartitionProcess()).ok());
  Value::Map args;
  args["db_name"] = Value("exec-real16");
  args["num_teus"] = Value(num_teus);
  auto id = engine.StartProcess("all_vs_all", args);
  EXPECT_TRUE(id.ok());
  sim.Run();
  EXPECT_EQ(engine.GetInstanceState(*id).value_or(InstanceState::kFailed),
            InstanceState::kDone);

  EngineExports out;
  out.spans_jsonl = obs.spans.ExportJsonl();
  out.lineage_jsonl = engine.ExportLineageJsonl(*id).value_or("");
  out.master_file =
      engine.GetWhiteboardValue(*id, "master_file").value_or(Value()).AsString();
  obs::MetricsSnapshot snap = obs.metrics.Snapshot();
  const auto* batches = snap.Find("engine_preexec_batches_total");
  const auto* tasks = snap.Find("engine_preexec_activities_total");
  const auto* lookahead_specs = snap.Find("engine_preexec_lookahead_total");
  out.preexec_batches =
      batches == nullptr ? 0 : static_cast<uint64_t>(batches->value);
  out.preexec_tasks =
      tasks == nullptr ? 0 : static_cast<uint64_t>(tasks->value);
  out.preexec_lookahead =
      lookahead_specs == nullptr
          ? 0
          : static_cast<uint64_t>(lookahead_specs->value);
  return out;
}

TEST(ThreadPoolEngineTest, PoolAndInlineRunsAreByteIdentical) {
  ThreadPool pool(4);
  EngineExports inline_run = RunRealAllVsAll(11, nullptr);
  EngineExports pooled_run = RunRealAllVsAll(11, &pool);

  // The pool actually pre-executed work...
  EXPECT_EQ(inline_run.preexec_batches, 0u);
  EXPECT_GT(pooled_run.preexec_batches, 0u);
  EXPECT_GT(pooled_run.preexec_tasks, 0u);

  // ...without perturbing anything in virtual time.
  EXPECT_FALSE(pooled_run.spans_jsonl.empty());
  EXPECT_EQ(inline_run.spans_jsonl, pooled_run.spans_jsonl);
  EXPECT_EQ(inline_run.lineage_jsonl, pooled_run.lineage_jsonl);
  EXPECT_FALSE(pooled_run.master_file.empty());
  EXPECT_EQ(inline_run.master_file, pooled_run.master_file);
}

TEST(ThreadPoolEngineTest, PooledRunsAreMutuallyDeterministic) {
  ThreadPool pool(3);
  EngineExports a = RunRealAllVsAll(23, &pool);
  EngineExports b = RunRealAllVsAll(23, &pool);
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  EXPECT_EQ(a.lineage_jsonl, b.lineage_jsonl);
  EXPECT_EQ(a.master_file, b.master_file);
}

// Multi-frontier speculation: with preexec_lookahead > 0, inactive
// activity nodes — the ready frontier of *future* pumps — are also
// pre-executed as pool batches, and overflow waves that form mid-pump
// get their own batches. The byte-identity contract must hold at every
// depth — against the inline run AND against single-frontier
// speculation.
TEST(ThreadPoolEngineTest, LookaheadDepthsAreByteIdentical) {
  ThreadPool pool(4);
  // 12 TEUs against 4 cpus: most of the fan-out parks for capacity, so
  // plenty of inactive downstream nodes exist while pumps run.
  EngineExports inline_run = RunRealAllVsAll(31, nullptr, -1, 12);
  EngineExports frontier_only = RunRealAllVsAll(31, &pool, 0, 12);
  EngineExports deep = RunRealAllVsAll(31, &pool, 8, 12);

  EXPECT_GT(frontier_only.preexec_batches, 0u);
  // Depth 0 never reaches past the current ready set; depth 8 must
  // speculate ahead of it.
  EXPECT_EQ(frontier_only.preexec_lookahead, 0u);
  EXPECT_GT(deep.preexec_lookahead, 0u);
  // Speculation count is conserved: lookahead moves pre-execution
  // earlier (overlapping more compute with the pump) but every activity
  // is still speculated at most once.
  EXPECT_EQ(deep.preexec_tasks, frontier_only.preexec_tasks);

  EXPECT_FALSE(inline_run.spans_jsonl.empty());
  EXPECT_EQ(inline_run.spans_jsonl, frontier_only.spans_jsonl);
  EXPECT_EQ(inline_run.spans_jsonl, deep.spans_jsonl);
  EXPECT_EQ(inline_run.lineage_jsonl, frontier_only.lineage_jsonl);
  EXPECT_EQ(inline_run.lineage_jsonl, deep.lineage_jsonl);
  EXPECT_EQ(inline_run.master_file, frontier_only.master_file);
  EXPECT_EQ(inline_run.master_file, deep.master_file);
}

}  // namespace
}  // namespace biopera
