// Unit tests for the observability layer: metrics registry, the
// observability context, the span-fed timeline, and the logging capture
// hook.
#include <gtest/gtest.h>

#include <map>
#include <type_traits>

#include "cluster/cluster.h"
#include "common/logging.h"
#include "core/engine.h"
#include "obs/metrics.h"
#include "obs/timeline.h"
#include "obs/trace.h"
#include "ocr/builder.h"
#include "sim/simulator.h"
#include "store/record_store.h"
#include "tests/test_util.h"

namespace biopera::obs {
namespace {

// --- Metrics ---------------------------------------------------------------

TEST(MetricKeyTest, CanonicalForm) {
  EXPECT_EQ(MetricKey("reqs", {}), "reqs");
  EXPECT_EQ(MetricKey("reqs", {{"node", "n0"}}), "reqs{node=n0}");
  // std::map orders labels, so the key is independent of insertion order.
  EXPECT_EQ(MetricKey("reqs", {{"b", "2"}, {"a", "1"}}), "reqs{a=1,b=2}");
}

TEST(RegistryTest, HandlesAreStableAndCheap) {
  Registry registry;
  Counter* c = registry.GetCounter("dispatches");
  c->Increment();
  c->Increment(4);
  EXPECT_EQ(c->value(), 5u);
  // Same name -> same handle; different labels -> different family member.
  EXPECT_EQ(registry.GetCounter("dispatches"), c);
  EXPECT_NE(registry.GetCounter("dispatches", {{"node", "n1"}}), c);
  EXPECT_EQ(registry.size(), 2u);

  Gauge* g = registry.GetGauge("depth");
  g->Set(3);
  g->Add(-1);
  EXPECT_DOUBLE_EQ(g->value(), 2.0);

  registry.Clear();
  EXPECT_EQ(registry.size(), 0u);
}

TEST(HistogramTest, BucketsAndPercentiles) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 4;  // bounds 1, 2, 4, 8 (+overflow)
  Histogram h(options);
  EXPECT_EQ(h.bounds().size(), 4u);
  EXPECT_EQ(h.buckets().size(), 5u);
  EXPECT_DOUBLE_EQ(h.Percentile(50), 0.0);  // empty

  h.Observe(0.5);   // bucket 0 (<= 1)
  h.Observe(1.5);   // bucket 1 (<= 2)
  h.Observe(3.0);   // bucket 2 (<= 4)
  h.Observe(100.0); // overflow
  EXPECT_EQ(h.count(), 4u);
  EXPECT_DOUBLE_EQ(h.sum(), 105.0);
  EXPECT_EQ(h.buckets()[0], 1u);
  EXPECT_EQ(h.buckets()[1], 1u);
  EXPECT_EQ(h.buckets()[2], 1u);
  EXPECT_EQ(h.buckets()[3], 0u);
  EXPECT_EQ(h.buckets()[4], 1u);
  // The median falls in the second bucket (1, 2].
  double p50 = h.Percentile(50);
  EXPECT_GE(p50, 1.0);
  EXPECT_LE(p50, 2.0);
  EXPECT_GE(h.Percentile(100), 8.0);  // overflow reported at/above last bound
}

TEST(HistogramTest, PercentileEdgeCases) {
  HistogramOptions options;
  options.first_bound = 1.0;
  options.growth = 2.0;
  options.num_buckets = 1;  // one finite bucket (<= 1) plus overflow
  Histogram single(options);
  EXPECT_DOUBLE_EQ(single.Percentile(99), 0.0);  // empty

  // Single finite bucket: interpolation stays inside (0, first_bound].
  single.Observe(0.4);
  single.Observe(0.9);
  EXPECT_GT(single.Percentile(50), 0.0);
  EXPECT_LE(single.Percentile(50), 1.0);

  // Overflow-only: every sample is beyond the last bound, where
  // interpolation is undefined — the documented result is the last
  // finite bound for any requested percentile.
  Histogram overflow(options);
  overflow.Observe(100.0);
  overflow.Observe(250.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(1), 1.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(50), 1.0);
  EXPECT_DOUBLE_EQ(overflow.Percentile(100), 1.0);

  // Degenerate histogram with no finite buckets at all: percentiles have
  // no bound to report, so they collapse to 0 rather than reading past
  // the (empty) bounds array.
  HistogramOptions none;
  none.num_buckets = 0;
  Histogram unbounded(none);
  unbounded.Observe(5.0);
  EXPECT_EQ(unbounded.count(), 1u);
  EXPECT_DOUBLE_EQ(unbounded.Percentile(50), 0.0);
}

TEST(RegistryTest, ToTextPrefixFilter) {
  Registry registry;
  registry.GetCounter("engine_dispatch_total")->Increment(3);
  registry.GetCounter("store_commit_total")->Increment(5);
  MetricsSnapshot snap = registry.Snapshot();

  std::string all = snap.ToText();
  EXPECT_NE(all.find("engine_dispatch_total"), std::string::npos);
  EXPECT_NE(all.find("store_commit_total"), std::string::npos);

  std::string store_only = snap.ToText("store_");
  EXPECT_NE(store_only.find("store_commit_total"), std::string::npos);
  EXPECT_EQ(store_only.find("engine_dispatch_total"), std::string::npos);

  EXPECT_EQ(snap.ToText("zzz"), "(no metrics matching zzz)\n");
  EXPECT_EQ(Registry().Snapshot().ToText(), "(no metrics)\n");
}

TEST(RegistryTest, SnapshotIsSortedAndDeterministic) {
  Registry registry;
  registry.GetCounter("z_total")->Increment(7);
  registry.GetGauge("a_depth")->Set(2.5);
  registry.GetHistogram("m_cost")->Observe(0.25);

  MetricsSnapshot snap = registry.Snapshot();
  ASSERT_EQ(snap.entries.size(), 3u);
  EXPECT_EQ(snap.entries[0].key, "a_depth");
  EXPECT_EQ(snap.entries[1].key, "m_cost");
  EXPECT_EQ(snap.entries[2].key, "z_total");

  const MetricsSnapshot::Entry* z = snap.Find("z_total");
  ASSERT_NE(z, nullptr);
  EXPECT_EQ(z->kind, MetricsSnapshot::Kind::kCounter);
  EXPECT_DOUBLE_EQ(z->value, 7.0);
  EXPECT_EQ(snap.Find("ghost"), nullptr);

  // Byte-identical across repeated snapshots of unchanged state.
  EXPECT_EQ(snap.ToJson(), registry.Snapshot().ToJson());
  std::string text = snap.ToText();
  EXPECT_NE(text.find("z_total"), std::string::npos);
  EXPECT_NE(text.find("7"), std::string::npos);
  // Integral values serialize without an exponent or decimal point.
  EXPECT_NE(snap.ToJson().find("\"z_total\":7"), std::string::npos);
}

// --- Observability context ----------------------------------------------

// A bare number must never silently become a sink capacity: the context is
// an aggregate, so a sized sink is spelled out.
static_assert(!std::is_constructible_v<Observability, int>);
static_assert(!std::is_constructible_v<Observability, size_t>);

TEST(ObservabilityTest, SizedSpanSinkIsSpelledOut) {
  Observability sized{.spans = SpanSink(2)};
  EXPECT_EQ(sized.spans.capacity(), 2u);
  EXPECT_EQ(Observability().spans.capacity(), size_t{1} << 20);
  Simulator sim;
  sized.SetClock(&sim);
  EXPECT_TRUE(sized.spans.has_clock());
}

// --- Timeline --------------------------------------------------------------

/// Opens a job span the way the engine's dispatcher does.
uint64_t BeginJob(SpanSink* sink, const std::string& task,
                  const std::string& node) {
  return sink->Begin(SpanKind::kJob, task, /*parent=*/0, /*link=*/0, "i1",
                     task, node);
}

TEST(TimelineTest, PairsDispatchWithTerminalEvents) {
  Simulator sim;
  SpanSink sink;
  sink.SetClock(&sim);
  uint64_t a = BeginJob(&sink, "a", "n0");
  uint64_t b = BeginJob(&sink, "b", "n1");
  uint64_t c = BeginJob(&sink, "c", "n1");
  BeginJob(&sink, "d", "n0");  // never reports: still open
  sim.RunFor(Duration::Seconds(10));
  sink.End(a, "completed");
  sink.End(b, "failed");
  sim.RunFor(Duration::Seconds(5));
  sink.End(c, "killed");
  // Other kinds are not execution intervals.
  sink.EmitInstant(SpanKind::kCheckpoint, "checkpoint delta");

  std::vector<TimelineInterval> intervals = BuildTimeline(sink);
  ASSERT_EQ(intervals.size(), 4u);
  std::map<std::string, const TimelineInterval*> by_task;
  for (const TimelineInterval& iv : intervals) by_task[iv.task] = &iv;
  ASSERT_EQ(by_task.size(), 4u);
  EXPECT_EQ(by_task["a"]->outcome, "completed");
  EXPECT_EQ(by_task["a"]->node, "n0");
  EXPECT_EQ(by_task["a"]->instance, "i1");
  EXPECT_EQ(by_task["a"]->end - by_task["a"]->start, Duration::Seconds(10));
  EXPECT_EQ(by_task["b"]->outcome, "failed");
  EXPECT_EQ(by_task["c"]->outcome, "killed");
  EXPECT_EQ(by_task["c"]->end - by_task["c"]->start, Duration::Seconds(15));
  // An open job extends to the latest timestamp the sink has seen.
  EXPECT_EQ(by_task["d"]->outcome, "open");
  EXPECT_EQ(by_task["d"]->end, TimePoint::FromMicros(15000000));

  // Node filter.
  std::vector<TimelineInterval> n0 = BuildTimeline(sink, "n0");
  ASSERT_EQ(n0.size(), 2u);
  for (const TimelineInterval& iv : n0) EXPECT_EQ(iv.node, "n0");
  EXPECT_EQ(BuildTimeline(sink, "n1").size(), 2u);
  EXPECT_TRUE(BuildTimeline(sink, "ghost").empty());
}

TEST(TimelineTest, NodeDownClosesItsTasks) {
  // A job lost to a node crash ends at the crash with the engine's
  // outcome: without a lease detector the engine hears of the crash at
  // once and fails the job, and the retry runs on the surviving node.
  testing::TempDir dir;
  auto store = RecordStore::Open(dir.path()).value();
  Simulator sim;
  cluster::ClusterSim cluster(&sim);
  ASSERT_OK(cluster.AddNode({.name = "n0", .num_cpus = 1}));
  ASSERT_OK(cluster.AddNode({.name = "n1", .num_cpus = 1}));
  core::ActivityRegistry registry;
  ASSERT_OK(registry.Register(
      "work", [](const core::ActivityInput&) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.cost = Duration::Minutes(10);
        return out;
      }));
  Observability obs;
  core::EngineOptions options;
  options.observability = &obs;
  core::Engine engine(&sim, &cluster, store.get(), &registry, options);
  ASSERT_OK(engine.Startup());
  ASSERT_OK(engine.RegisterTemplate(
      ocr::ProcessBuilder("one")
          .Task(ocr::TaskBuilder::Activity("a", "work"))
          .Build()
          .value()));
  ASSERT_OK_AND_ASSIGN(std::string id, engine.StartProcess("one"));
  sim.RunFor(Duration::Minutes(4));
  std::vector<TimelineInterval> running = BuildTimeline(obs.spans);
  ASSERT_EQ(running.size(), 1u);
  EXPECT_EQ(running[0].outcome, "open");
  const std::string lost_node = running[0].node;
  ASSERT_OK(cluster.CrashNode(lost_node));
  const TimePoint crash = sim.Now();
  sim.Run();
  EXPECT_EQ(engine.GetInstanceState(id).value(), core::InstanceState::kDone);

  std::vector<TimelineInterval> intervals = BuildTimeline(obs.spans);
  ASSERT_EQ(intervals.size(), 2u);
  EXPECT_EQ(intervals[0].node, lost_node);
  EXPECT_EQ(intervals[0].end, crash);
  EXPECT_EQ(intervals[0].outcome, "failed");
  EXPECT_NE(intervals[1].node, lost_node);
  EXPECT_EQ(intervals[1].outcome, "completed");
}

TEST(TimelineTest, CsvOrdersRowsByStartThenNode) {
  Simulator sim;
  SpanSink sink;
  sink.SetClock(&sim);
  uint64_t first = BeginJob(&sink, "w", "n1");
  sim.RunFor(Duration::Seconds(4));
  uint64_t x = BeginJob(&sink, "x", "n1");
  uint64_t y = BeginJob(&sink, "y", "n0");
  uint64_t z = BeginJob(&sink, "z", "n0");  // same (start, node) as y
  sim.RunFor(Duration::Seconds(4));
  for (uint64_t id : {first, x, y, z}) sink.End(id, "completed");

  // Start time first (w on n1 leads), then node, then dispatch order.
  EXPECT_EQ(TimelineCsv(BuildTimeline(sink)),
            "node,instance,task,start_us,end_us,outcome\n"
            "n1,i1,w,0,8000000,completed\n"
            "n0,i1,y,4000000,8000000,completed\n"
            "n0,i1,z,4000000,8000000,completed\n"
            "n1,i1,x,4000000,8000000,completed\n");
}

TEST(TimelineTest, CsvMarksTruncation) {
  SpanSink sink(/*capacity=*/1);
  sink.End(BeginJob(&sink, "a", "n0"), "completed");
  std::string intact = TimelineCsv(BuildTimeline(sink), sink.dropped());
  EXPECT_EQ(intact.find("truncated"), std::string::npos);

  BeginJob(&sink, "b", "n0");  // dropped: the sink is full
  BeginJob(&sink, "c", "n1");
  ASSERT_EQ(sink.dropped(), 2u);
  std::string truncated = TimelineCsv(BuildTimeline(sink), sink.dropped());
  EXPECT_NE(truncated.find("# truncated: 2 spans dropped at capacity; later "
                           "intervals are missing"),
            std::string::npos);
  // The marker is a CSV comment right after the header, so naive readers
  // still parse the data rows.
  EXPECT_LT(truncated.find("node,instance,task"), truncated.find("# truncated"));
  EXPECT_NE(truncated.find("n0,i1,a,0,0,completed"), std::string::npos);
}

// --- Logging hook ----------------------------------------------------------

TEST(LoggingTest, CaptureHookSeesAllLevelsWithVirtualTimestamp) {
  Simulator sim;
  sim.RunFor(Duration::Seconds(3));
  SetLogClock(&sim);
  std::vector<std::pair<LogLevel, std::string>> captured;
  SetLogCaptureHook([&](LogLevel level, const std::string& line) {
    captured.emplace_back(level, line);
  });
  // kDebug is below the default stderr level but must still be captured.
  BIOPERA_LOG(kDebug) << "quiet debug line";
  BIOPERA_LOG(kError) << "loud error line";
  SetLogCaptureHook(nullptr);
  SetLogClock(nullptr);
  BIOPERA_LOG(kDebug) << "not captured";

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, LogLevel::kDebug);
  EXPECT_NE(captured[0].second.find("quiet debug line"), std::string::npos);
  EXPECT_NE(captured[0].second.find("D "), std::string::npos);
  // Virtual timestamp from the registered simulator clock.
  EXPECT_NE(captured[0].second.find("3.000s"), std::string::npos);
  EXPECT_EQ(captured[1].first, LogLevel::kError);
  EXPECT_NE(captured[1].second.find("E "), std::string::npos);
}

}  // namespace
}  // namespace biopera::obs
