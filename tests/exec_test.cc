// ThreadPool unit tests plus the determinism contract of real-thread
// activity execution: running the engine with a pool must change nothing
// observable in virtual time — spans, lineage and whiteboard results
// stay byte-identical to the inline run — and must run each activity
// kernel once per dispatch, as the inline run does.
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
  /// Activity kernel invocations, speculative and inline alike.
  uint64_t kernel_calls = 0;
  uint64_t dispatched = 0;
};

/// One small real-mode all-vs-all (actual Smith-Waterman kernels, not the
/// cost model), optionally pre-executing dispatched activities on a pool.
/// `num_teus` widens the fan-out past cluster capacity so entries park.
EngineExports RunRealAllVsAll(uint64_t seed, ThreadPool* pool,
                              int num_teus = 4) {
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
  // Count every kernel call, whether a pool worker or the scan makes it.
  std::atomic<uint64_t> kernel_calls{0};
  for (const char* binding :
       {"avsa.user_input", "avsa.queue_gen", "avsa.preprocess",
        "darwin.fixed_pam", "darwin.refine", "avsa.merge_entry",
        "avsa.merge_pam"}) {
    core::ActivityFn inner = registry.Find(binding).value();
    registry.Override(binding, [inner, &kernel_calls](
                                   const core::ActivityInput& input) {
      kernel_calls.fetch_add(1);
      return inner(input);
    });
  }

  obs::Observability obs;
  EngineOptions options;
  options.observability = &obs;
  options.executor = pool;
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
  out.preexec_batches =
      batches == nullptr ? 0 : static_cast<uint64_t>(batches->value);
  out.preexec_tasks =
      tasks == nullptr ? 0 : static_cast<uint64_t>(tasks->value);
  out.kernel_calls = kernel_calls.load();
  out.dispatched = engine.GetDispatchStats().dispatched;
  return out;
}

/// The pooled run matches the inline run byte for byte, and every kernel
/// runs exactly once per dispatch: the scan uses each speculative result,
/// so nothing is computed twice.
void ExpectPooledMatchesInline(const EngineExports& inline_run,
                               const EngineExports& pooled_run) {
  // The pool actually pre-executed work...
  EXPECT_EQ(inline_run.preexec_batches, 0u);
  EXPECT_GT(pooled_run.preexec_batches, 0u);
  EXPECT_GT(pooled_run.preexec_tasks, 0u);
  EXPECT_GT(pooled_run.dispatched, 0u);
  EXPECT_EQ(inline_run.kernel_calls, inline_run.dispatched);
  EXPECT_EQ(pooled_run.kernel_calls, pooled_run.dispatched);

  // ...without perturbing anything in virtual time.
  EXPECT_FALSE(pooled_run.spans_jsonl.empty());
  EXPECT_EQ(inline_run.spans_jsonl, pooled_run.spans_jsonl);
  EXPECT_EQ(inline_run.lineage_jsonl, pooled_run.lineage_jsonl);
  EXPECT_FALSE(pooled_run.master_file.empty());
  EXPECT_EQ(inline_run.master_file, pooled_run.master_file);
}

TEST(ThreadPoolEngineTest, PoolAndInlineRunsAreByteIdentical) {
  ThreadPool pool(4);
  ExpectPooledMatchesInline(RunRealAllVsAll(11, nullptr),
                            RunRealAllVsAll(11, &pool));
}

TEST(ThreadPoolEngineTest, PooledRunsAreMutuallyDeterministic) {
  ThreadPool pool(3);
  EngineExports a = RunRealAllVsAll(23, &pool);
  EngineExports b = RunRealAllVsAll(23, &pool);
  EXPECT_EQ(a.spans_jsonl, b.spans_jsonl);
  EXPECT_EQ(a.lineage_jsonl, b.lineage_jsonl);
  EXPECT_EQ(a.master_file, b.master_file);
}

// 12 TEUs against 4 cpus: most of the fixed-PAM fan-out parks for
// capacity holding its speculated result, and each refinement becomes
// ready alone when its fixed-PAM job ends. Every speculative result must
// still be used exactly once, and the run must match the inline one byte
// for byte.
TEST(ThreadPoolEngineTest, CapacityParkedFanOutIsByteIdentical) {
  ThreadPool pool(4);
  ExpectPooledMatchesInline(RunRealAllVsAll(31, nullptr, /*num_teus=*/12),
                            RunRealAllVsAll(31, &pool, /*num_teus=*/12));
}

}  // namespace
}  // namespace biopera
