// Self-tests of the benchmark's instruments: the Fs decorator and the
// activity wrappers are pure pass-throughs, the wrappers are safe from
// pool threads, a traced and an untraced run export byte-identical spans
// and lineage, the lifecycle replay matches the Figure 5 bench scenario,
// and a wrong pin fails the run.
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/scenario.h"
#include "exec/thread_pool.h"
#include "src/bench.h"
#include "src/tracer.h"

namespace perfbench {
namespace {

using namespace biopera;

std::string TestDir(const std::string& tag) {
  auto dir = std::filesystem::temp_directory_path() /
             ("perfbench_test_" + tag + "_" + std::to_string(::getpid()));
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir.string();
}

TEST(ObservedFsTest, PassesBytesThroughAndCounts) {
  const std::string dir = TestDir("fs");
  Tracer tracer;
  FsCounters counters;
  ObservedFs fs(Fs::Default(), &tracer, &counters);
  auto file = fs.OpenForWrite(dir + "/a.dat");
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE((*file)->Append("hello ").ok());
  ASSERT_TRUE((*file)->Append("world").ok());
  ASSERT_TRUE((*file)->Flush().ok());
  ASSERT_TRUE((*file)->Sync().ok());
  ASSERT_TRUE((*file)->Close().ok());
  EXPECT_EQ(Fs::Default()->ReadFileToString(dir + "/a.dat").value_or(""),
            "hello world");
  EXPECT_EQ(fs.ReadFileToString(dir + "/a.dat").value_or(""), "hello world");
  EXPECT_FALSE(fs.ReadFileToString(dir + "/missing").ok());
  EXPECT_EQ(counters.appends.load(), 2u);
  EXPECT_EQ(counters.append_bytes.load(), 11u);
  EXPECT_EQ(counters.flushes.load(), 1u);
  EXPECT_EQ(counters.syncs.load(), 1u);
  EXPECT_EQ(counters.read_bytes.load(), 11u);
  EXPECT_GE(tracer.size(), 7u);
  std::filesystem::remove_all(dir);
}

TEST(ActivityWrapperTest, ReturnsTheInnerResultUnchanged) {
  core::ActivityRegistry registry;
  ASSERT_TRUE(registry
                  .Register("t.ok",
                            [](const core::ActivityInput& in)
                                -> Result<core::ActivityOutput> {
                              core::ActivityOutput out;
                              out.fields["echo"] = in.Get("x");
                              out.cost = Duration::Seconds(7);
                              out.provenance.emplace_back("k", "v");
                              return out;
                            })
                  .ok());
  ASSERT_TRUE(registry
                  .Register("t.fail",
                            [](const core::ActivityInput&)
                                -> Result<core::ActivityOutput> {
                              return Status::Internal("boom");
                            })
                  .ok());
  Tracer tracer;
  ActivityStats stats;
  ASSERT_TRUE(
      WrapActivities(&registry, {"t.ok", "t.fail"}, &tracer, &stats).ok());
  EXPECT_FALSE(WrapActivities(&registry, {"t.missing"}, &tracer, &stats).ok());
  core::ActivityInput input;
  input.params["x"] = ocr::Value(int64_t{42});
  auto out = (*registry.Find("t.ok"))(input);
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->fields["echo"].AsInt(), 42);
  EXPECT_EQ(out->cost, Duration::Seconds(7));
  ASSERT_EQ(out->provenance.size(), 1u);
  auto failed = (*registry.Find("t.fail"))(input);
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().ToString(), Status::Internal("boom").ToString());
  EXPECT_EQ(stats.TotalCalls(), 2u);
  EXPECT_EQ(tracer.size(), 2u);
}

TEST(ActivityWrapperTest, SafeForCallsFromPoolThreads) {
  core::ActivityRegistry registry;
  std::atomic<int> inner_calls{0};
  ASSERT_TRUE(registry
                  .Register("t.count",
                            [&inner_calls](const core::ActivityInput&)
                                -> Result<core::ActivityOutput> {
                              ++inner_calls;
                              return core::ActivityOutput{};
                            })
                  .ok());
  Tracer tracer;
  ActivityStats stats;
  ASSERT_TRUE(WrapActivities(&registry, {"t.count"}, &tracer, &stats).ok());
  core::ActivityFn fn = *registry.Find("t.count");
  exec::ThreadPool pool(4);
  Span outer(&tracer, "sim", "run");
  std::vector<std::function<void()>> tasks;
  for (int i = 0; i < 400; ++i) {
    tasks.push_back([&fn] { (void)fn(core::ActivityInput{}); });
  }
  pool.RunBatch(std::move(tasks));
  EXPECT_EQ(inner_calls.load(), 400);
  EXPECT_EQ(stats.TotalCalls(), 400u);
  EXPECT_EQ(stats.CallMicros().size(), 400u);
  std::vector<SpanRecord> spans = tracer.Spans();
  ASSERT_EQ(spans.size(), 401u);
  for (size_t i = 1; i < spans.size(); ++i) {
    // Pool-thread spans hang off the span open on the creating thread.
    EXPECT_EQ(spans[i].parent, 0);
  }
}

/// Runs one small batch of `workload`, traced or not, keeping exports.
Batch RunSmall(const std::string& workload, bool traced,
               const std::string& dir, bool corrupt_pins = false) {
  Options options;
  options.workload = workload;
  options.small = true;
  options.work_dir = dir;
  options.corrupt_pins = corrupt_pins;
  Tracer tracer;
  FsCounters fs;
  ActivityStats activities;
  obs::WallProfile wall;
  Probe untraced;
  Probe probe{&tracer, &fs, &activities, &wall};
  Layers layers;
  BatchRequest request{&options, traced ? &probe : &untraced, &layers, true};
  return RunBatch(request);
}

TEST(ObserveNeverSteerTest, TracedAndUntracedExportsAreByteIdentical) {
  const std::string dir = TestDir("identity");
  for (const std::string& workload : WorkloadNames()) {
    SCOPED_TRACE(workload);
    Batch plain = RunSmall(workload, false, dir);
    Batch traced = RunSmall(workload, true, dir);
    EXPECT_EQ(plain.failed, 0u) << (plain.errors.empty() ? ""
                                                         : plain.errors[0]);
    EXPECT_EQ(traced.failed, 0u);
    ASSERT_FALSE(plain.exports.empty());
    ASSERT_EQ(plain.exports.size(), traced.exports.size());
    for (size_t i = 0; i < plain.exports.size(); ++i) {
      EXPECT_FALSE(plain.exports[i].empty());
      EXPECT_TRUE(plain.exports[i] == traced.exports[i]) << "operation " << i;
    }
    EXPECT_EQ(plain.tasks_done, traced.tasks_done);
  }
  std::filesystem::remove_all(dir);
}

TEST(LifecycleReplayTest, MatchesTheFigure5BenchScenario) {
  const std::string dir = TestDir("replay");
  Options options;
  options.workload = "lifecycle";
  options.work_dir = dir;
  Probe untraced;
  Layers layers;
  Batch batch = RunBatch({&options, &untraced, &layers, true});
  EXPECT_EQ(batch.failed, 0u) << (batch.errors.empty() ? "" : batch.errors[0]);
  ASSERT_EQ(batch.exports.size(), 4u);  // fig5, fig5_storm, fig6, fig6_storm
  bench::ScenarioResult fig5 = bench::RunSharedClusterScenario(kPinnedSeed);
  EXPECT_TRUE(batch.exports[0] == fig5.spans_jsonl + fig5.lineage_jsonl);
  bench::ScenarioResult fig6_storm =
      bench::RunNonSharedClusterScenario(kPinnedSeed, /*partition_storm=*/true);
  EXPECT_TRUE(batch.exports[3] ==
              fig6_storm.spans_jsonl + fig6_storm.lineage_jsonl);
  std::filesystem::remove_all(dir);
}

TEST(OracleTest, AWrongPinFailsTheRun) {
  const std::string dir = TestDir("pins");
  Options options;
  options.workload = "align";
  options.work_dir = dir;
  Probe untraced;
  Layers layers;
  Batch good = RunBatch({&options, &untraced, &layers});
  EXPECT_EQ(good.failed, 0u) << (good.errors.empty() ? "" : good.errors[0]);
  options.corrupt_pins = true;
  Batch bad = RunBatch({&options, &untraced, &layers});
  EXPECT_GT(bad.failed, 0u);
  ASSERT_FALSE(bad.errors.empty());
  EXPECT_NE(bad.errors[0].find("pin align."), std::string::npos);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace perfbench
