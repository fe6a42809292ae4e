// Unit tests for the span layer: SpanSink mechanics, the JSONL /
// Chrome-trace exporters, and the critical-path analyzer on hand-built
// span DAGs with exactly known answers.
#include "obs/span.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "obs/critical_path.h"
#include "sim/simulator.h"

namespace biopera::obs {
namespace {

/// Checks that `json` has balanced braces/brackets outside of string
/// literals — a structural sanity check that the exporters emit
/// well-formed JSON without pulling in a parser.
bool BalancedJson(const std::string& json) {
  int depth = 0;
  bool in_string = false;
  bool escaped = false;
  for (char c : json) {
    if (escaped) {
      escaped = false;
      continue;
    }
    if (in_string) {
      if (c == '\\') escaped = true;
      if (c == '"') in_string = false;
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{' || c == '[') ++depth;
    if (c == '}' || c == ']') --depth;
    if (depth < 0) return false;
  }
  return depth == 0 && !in_string;
}

size_t CountOccurrences(const std::string& haystack, const std::string& needle) {
  size_t count = 0;
  for (size_t pos = haystack.find(needle); pos != std::string::npos;
       pos = haystack.find(needle, pos + needle.size())) {
    ++count;
  }
  return count;
}

/// Builds span DAGs at exact virtual times: At(s) advances the clock to
/// absolute second `s`, so tests read as chronological event scripts.
class SpanDagTest : public ::testing::Test {
 protected:
  SpanDagTest() { sink_.SetClock(&sim_); }

  void At(int64_t seconds) {
    sim_.RunUntil(TimePoint::FromMicros(seconds * 1000000));
  }

  Simulator sim_;
  SpanSink sink_;
};

TEST(SpanSinkTest, IdsAreDenseAndFindIsExact) {
  SpanSink sink;
  EXPECT_EQ(sink.Now(), TimePoint::Zero());  // no clock registered
  uint64_t a = sink.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t b = sink.Begin(SpanKind::kAttempt, "t", a, 0, "i1", "t");
  EXPECT_EQ(a, 1u);
  EXPECT_EQ(b, 2u);
  ASSERT_NE(sink.Find(a), nullptr);
  ASSERT_NE(sink.Find(b), nullptr);
  EXPECT_EQ(sink.Find(b)->parent, a);
  EXPECT_EQ(sink.Find(b)->task, "t");
  EXPECT_TRUE(sink.Find(a)->open);
  EXPECT_EQ(sink.Find(0), nullptr);
  EXPECT_EQ(sink.Find(99), nullptr);

  sink.End(b, "completed", {{"extra", "1"}});
  EXPECT_FALSE(sink.Find(b)->open);
  EXPECT_EQ(sink.Find(b)->outcome, "completed");
  ASSERT_EQ(sink.Find(b)->attrs.size(), 1u);
  EXPECT_EQ(sink.Find(b)->attrs[0].first, "extra");
  // Ending a closed span is a no-op.
  sink.End(b, "failed");
  EXPECT_EQ(sink.Find(b)->outcome, "completed");
}

TEST(SpanSinkTest, CapacityDropsCountAndReturnZero) {
  SpanSink sink(/*capacity=*/2);
  EXPECT_NE(sink.Begin(SpanKind::kInstance, "a"), 0u);
  EXPECT_NE(sink.Begin(SpanKind::kInstance, "b"), 0u);
  uint64_t dropped_id = sink.Begin(SpanKind::kInstance, "c");
  EXPECT_EQ(dropped_id, 0u);
  EXPECT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.dropped(), 1u);
  EXPECT_EQ(sink.total_started(), 3u);
  EXPECT_TRUE(sink.truncated());
  // Instrumentation never branches on a full sink: id-0 ops are no-ops.
  sink.End(0, "completed");
  sink.Annotate(0, "k", "v");
}

TEST(SpanSinkTest, FindOpenMatchesMostRecentOpenSpan) {
  SpanSink sink;
  uint64_t first = sink.Begin(SpanKind::kNodeOutage, "down", 0, 0, "", "", "n1");
  uint64_t second = sink.Begin(SpanKind::kNodeOutage, "down", 0, 0, "", "", "n2");
  EXPECT_EQ(sink.FindOpen(SpanKind::kNodeOutage, "", "n1"), first);
  EXPECT_EQ(sink.FindOpen(SpanKind::kNodeOutage, "", "n2"), second);
  // "" matches any node; the most recent open span wins.
  EXPECT_EQ(sink.FindOpen(SpanKind::kNodeOutage, ""), second);
  EXPECT_EQ(sink.FindOpen(SpanKind::kInstance, ""), 0u);
  sink.End(second, "repaired");
  EXPECT_EQ(sink.FindOpen(SpanKind::kNodeOutage, ""), first);
  sink.End(first, "repaired");
  EXPECT_EQ(sink.FindOpen(SpanKind::kNodeOutage, ""), 0u);
}

TEST(SpanSinkTest, EmitInstantIsZeroDuration) {
  Simulator sim;
  SpanSink sink;
  sink.SetClock(&sim);
  sim.RunFor(Duration::Seconds(7));
  uint64_t id = sink.EmitInstant(SpanKind::kCommitBatch, "commit group", 0, "",
                                 "", "", {{"commits", "3"}});
  ASSERT_NE(sink.Find(id), nullptr);
  const Span& span = *sink.Find(id);
  EXPECT_FALSE(span.open);
  EXPECT_EQ(span.start, TimePoint::FromMicros(7000000));
  EXPECT_EQ(span.duration(), Duration::Zero());
  EXPECT_EQ(span.outcome, "done");
}

TEST(SpanSinkTest, TailFiltersByInstance) {
  SpanSink sink;
  sink.Begin(SpanKind::kInstance, "a", 0, 0, "a");
  sink.Begin(SpanKind::kInstance, "b", 0, 0, "b");
  sink.Begin(SpanKind::kAttempt, "t", 0, 0, "b", "t");
  std::vector<Span> all = sink.Tail(10);
  ASSERT_EQ(all.size(), 3u);
  EXPECT_EQ(all[0].id, 1u);  // oldest of the tail first
  std::vector<Span> only_b = sink.Tail(10, "b");
  ASSERT_EQ(only_b.size(), 2u);
  EXPECT_EQ(only_b[0].instance, "b");
  std::vector<Span> last_one = sink.Tail(1, "b");
  ASSERT_EQ(last_one.size(), 1u);
  EXPECT_EQ(last_one[0].kind, SpanKind::kAttempt);
}

TEST(SpanSinkTest, ToJsonDistinguishesOpenAndClosed) {
  Simulator sim;
  SpanSink sink;
  sink.SetClock(&sim);
  uint64_t open_id = sink.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  sim.RunFor(Duration::Seconds(3));
  uint64_t closed_id = sink.Begin(SpanKind::kAttempt, "t", open_id, 0, "i1", "t");
  sim.RunFor(Duration::Seconds(2));
  sink.End(closed_id, "completed");

  std::string open_json = sink.Find(open_id)->ToJson();
  EXPECT_NE(open_json.find("\"open\":true"), std::string::npos);
  EXPECT_EQ(open_json.find("\"end_us\""), std::string::npos);
  EXPECT_NE(open_json.find("\"kind\":\"instance\""), std::string::npos);

  std::string closed_json = sink.Find(closed_id)->ToJson();
  EXPECT_EQ(closed_json.find("\"open\""), std::string::npos);
  EXPECT_NE(closed_json.find("\"start_us\":3000000"), std::string::npos);
  EXPECT_NE(closed_json.find("\"end_us\":5000000"), std::string::npos);
  EXPECT_NE(closed_json.find("\"dur_us\":2000000"), std::string::npos);
  EXPECT_NE(closed_json.find("\"parent\":1"), std::string::npos);
  EXPECT_NE(closed_json.find("\"outcome\":\"completed\""), std::string::npos);
  EXPECT_TRUE(BalancedJson(open_json));
  EXPECT_TRUE(BalancedJson(closed_json));
}

TEST(SpanSinkTest, ExportJsonlMarksTruncation) {
  SpanSink sink(/*capacity=*/1);
  sink.Begin(SpanKind::kInstance, "a");
  std::string intact = sink.ExportJsonl();
  EXPECT_EQ(intact.find("truncated"), std::string::npos);
  EXPECT_EQ(CountOccurrences(intact, "\n"), 1u);

  sink.Begin(SpanKind::kInstance, "b");  // dropped
  std::string truncated = sink.ExportJsonl();
  EXPECT_EQ(truncated.find("{\"truncated\":true,\"spans_dropped\":1}"), 0u);
  EXPECT_EQ(CountOccurrences(truncated, "\n"), 2u);
}

TEST(SpanSinkTest, ChromeTraceIsStructurallyValidAndDeterministic) {
  Simulator sim;
  SpanSink sink;
  sink.SetClock(&sim);
  uint64_t inst = sink.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t attempt = sink.Begin(SpanKind::kAttempt, "t", inst, 0, "i1", "t");
  sim.RunFor(Duration::Seconds(1));
  uint64_t job =
      sink.Begin(SpanKind::kJob, "t", attempt, 0, "i1", "t", "node-1");
  sim.RunFor(Duration::Seconds(4));
  sink.End(job, "completed");
  sink.End(attempt, "completed");
  sink.EmitInstant(SpanKind::kCheckpoint, "checkpoint full");
  // `inst` stays open: exported with dur 0 and an "open" marker.

  std::string json = sink.ExportChromeTrace();
  EXPECT_EQ(json.find("{\"displayTimeUnit\":\"ms\",\"traceEvents\":["), 0u);
  EXPECT_TRUE(BalancedJson(json));
  // One complete event per span, with thread-name metadata ahead of them.
  EXPECT_EQ(CountOccurrences(json, "\"ph\":\"X\""), sink.size());
  EXPECT_GT(CountOccurrences(json, "\"ph\":\"M\""), 0u);
  EXPECT_LT(json.find("\"ph\":\"M\""), json.find("\"ph\":\"X\""));
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("node node-1"), std::string::npos);
  EXPECT_NE(json.find("instance i1"), std::string::npos);
  EXPECT_NE(json.find("\"open\":\"true\""), std::string::npos);
  EXPECT_EQ(json.find(":-"), std::string::npos);  // no negative ts/dur
  EXPECT_EQ(json.find("otherData"), std::string::npos);

  // Byte-identical on re-export: the determinism fixtures depend on it.
  EXPECT_EQ(json, sink.ExportChromeTrace());

  // ts/dur stay monotonically consistent with the span store.
  sink.ForEach([](const Span& span) {
    EXPECT_GE(span.start, TimePoint::Zero());
    EXPECT_GE(span.end, span.start);
  });
}

TEST(SpanSinkTest, ChromeTraceRecordsTruncation) {
  SpanSink sink(/*capacity=*/1);
  sink.Begin(SpanKind::kInstance, "a");
  sink.Begin(SpanKind::kInstance, "b");  // dropped
  std::string json = sink.ExportChromeTrace();
  EXPECT_NE(json.find("\"otherData\":{\"truncated\":\"true\",\"spans_dropped\":"
                      "\"1\"}"),
            std::string::npos);
  EXPECT_TRUE(BalancedJson(json));
}

// ---------------------------------------------------------------------------
// Golden exports: the exact bytes every exporter writes for small sinks.

/// Every span kind once or more (so every Chrome track family appears,
/// some tracks more than once and not in first-appearance order), open
/// and closed spans, zero and non-zero parent and link, empty and
/// non-empty instance/task/node/outcome, and strings holding every
/// escape class: `"`, `\`, `\n`, `\t`, `\r`, 0x01, 0x1f, 0x7f and UTF-8.
/// A second clock set halfway, as a successor engine sharing the
/// `Observability` does, makes start times go backwards in id order and
/// closes one span before it started.
void FillGoldenSink(Simulator* first, Simulator* second, SpanSink* sink) {
  sink->SetClock(first);
  auto at = [first](int64_t micros) {
    first->RunUntil(TimePoint::FromMicros(micros));
  };
  uint64_t inst = sink->Begin(SpanKind::kInstance, "run \"all\"", 0, 0, "i-1",
                              "", "", {{"template", "all\\vs\\all"}});
  at(1500000);
  uint64_t attempt = sink->Begin(SpanKind::kAttempt, "align", inst, 0, "i-1",
                                 "align");
  uint64_t job = sink->Begin(SpanKind::kJob, "align", attempt, 0, "i-1",
                             "align", "n\t7", {{"cpus", "2"}});
  sink->EmitInstant(SpanKind::kCommitBatch, "commit", 0, "", "", "",
                    {{"records", "3"}});
  at(4060800000000);  // 47 days: past 32 bits
  sink->End(job, "completed", {{"note", "line1\nline2\r"}});
  sink->End(attempt, "failed");
  uint64_t retry = sink->Begin(SpanKind::kAttempt, "align", inst, attempt,
                               "i-1", "align");
  uint64_t outage =
      sink->Begin(SpanKind::kNodeOutage, "down", 0, 0, "", "", "n\t7");
  sink->Begin(SpanKind::kSuspicion, "suspect", 0, 0, "", "",
              std::string("ctl\x01\x1f\x7f", 6));
  sink->EmitInstant(SpanKind::kCheckpoint, "checkpoint delta", 0, "", "", "",
                    {}, "");
  uint64_t server = sink->Begin(SpanKind::kServerDown, "server crash");
  sink->Begin(SpanKind::kInstance, "caf\xc3\xa9", 0, 0, "i-2");
  at(4060800000007);
  sink->End(outage, "repaired");
  sink->End(server, "restarted", {{"k\"ey", "v\\al"}});
  uint64_t degraded = sink->Begin(SpanKind::kStoreDegraded, "store degraded");
  sink->Begin(SpanKind::kRecovery, "replay", 0, 0, "", "", "",
              {{"rows", ""}});
  uint64_t admission = sink->Begin(SpanKind::kAdmission, "submit", 0, 0, "",
                                   "", "", {{"tenant", "\xce\xbc"}});
  sink->EmitInstant(SpanKind::kBarrier, "barrier 1");
  sink->EmitInstant(SpanKind::kSloTransition, "p99 \"hot\"", 0, "", "", "",
                    {{"from", "ok"}, {"to", "degraded"}}, "degraded");
  sink->End(admission, "admitted");
  sink->Begin(SpanKind::kJob, "align", retry, 0, "i-1", "align", "n\t7");

  sink->SetClock(second);
  second->RunUntil(TimePoint::FromMicros(2000000));
  sink->End(degraded, "healthy");  // ends before it started: dur < 0
  sink->Begin(SpanKind::kAttempt, "align", inst, retry, "i-1", "align");
}

// clang-format off
constexpr char kGoldenJsonl[] =
    R"({"id":1,"kind":"instance","start_us":0,"open":true,"name":"run \"all\"","instance":"i-1","template":"all\\vs\\all"})" "\n"
    R"({"id":2,"kind":"attempt","start_us":1500000,"end_us":4060800000000,"dur_us":4060798500000,"parent":1,"name":"align","instance":"i-1","task":"align","outcome":"failed"})" "\n"
    R"({"id":3,"kind":"job","start_us":1500000,"end_us":4060800000000,"dur_us":4060798500000,"parent":2,"name":"align","instance":"i-1","task":"align","node":"n\t7","outcome":"completed","cpus":"2","note":"line1\nline2\r"})" "\n"
    R"({"id":4,"kind":"commit_batch","start_us":1500000,"end_us":1500000,"dur_us":0,"name":"commit","outcome":"done","records":"3"})" "\n"
    R"({"id":5,"kind":"attempt","start_us":4060800000000,"open":true,"parent":1,"link":2,"name":"align","instance":"i-1","task":"align"})" "\n"
    R"({"id":6,"kind":"node_outage","start_us":4060800000000,"end_us":4060800000007,"dur_us":7,"name":"down","node":"n\t7","outcome":"repaired"})" "\n"
    R"({"id":7,"kind":"suspicion","start_us":4060800000000,"open":true,"name":"suspect","node":"ctl\u0001\u001f)" "\x7f" R"("})" "\n"
    R"({"id":8,"kind":"checkpoint","start_us":4060800000000,"end_us":4060800000000,"dur_us":0,"name":"checkpoint delta"})" "\n"
    R"({"id":9,"kind":"server_down","start_us":4060800000000,"end_us":4060800000007,"dur_us":7,"name":"server crash","outcome":"restarted","k\"ey":"v\\al"})" "\n"
    R"({"id":10,"kind":"instance","start_us":4060800000000,"open":true,"name":"caf)" "\xc3\xa9" R"(","instance":"i-2"})" "\n"
    R"({"id":11,"kind":"store_degraded","start_us":4060800000007,"end_us":2000000,"dur_us":-4060798000007,"name":"store degraded","outcome":"healthy"})" "\n"
    R"({"id":12,"kind":"recovery","start_us":4060800000007,"open":true,"name":"replay","rows":""})" "\n"
    R"({"id":13,"kind":"admission","start_us":4060800000007,"end_us":4060800000007,"dur_us":0,"name":"submit","outcome":"admitted","tenant":")" "\xce\xbc" R"("})" "\n"
    R"({"id":14,"kind":"barrier","start_us":4060800000007,"end_us":4060800000007,"dur_us":0,"name":"barrier 1","outcome":"done"})" "\n"
    R"({"id":15,"kind":"slo_transition","start_us":4060800000007,"end_us":4060800000007,"dur_us":0,"name":"p99 \"hot\"","outcome":"degraded","from":"ok","to":"degraded"})" "\n"
    R"({"id":16,"kind":"job","start_us":4060800000007,"open":true,"parent":5,"name":"align","instance":"i-1","task":"align","node":"n\t7"})" "\n"
    R"({"id":17,"kind":"attempt","start_us":2000000,"open":true,"parent":1,"link":5,"name":"align","instance":"i-1","task":"align"})" "\n";
constexpr char kGoldenChrome[] =
    R"({"displayTimeUnit":"ms","traceEvents":[)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"instance i-1"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":1}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"node n\t7"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":2,"args":{"sort_index":2}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":3,"args":{"name":"store"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":3,"args":{"sort_index":3}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":4,"args":{"name":"node ctl\u0001\u001f)" "\x7f" R"("}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":4,"args":{"sort_index":4}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":5,"args":{"name":"server"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":5,"args":{"sort_index":5}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":6,"args":{"name":"instance i-2"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":6,"args":{"sort_index":6}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":7,"args":{"name":"instance "}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":7,"args":{"sort_index":7}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":8,"args":{"name":"front door"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":8,"args":{"sort_index":8}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":9,"args":{"name":"barriers"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":9,"args":{"sort_index":9}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":10,"args":{"name":"health"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":10,"args":{"sort_index":10}},)" "\n"
    R"({"name":"run \"all\"","cat":"instance","ph":"X","ts":0,"dur":0,"pid":1,"tid":1,"args":{"id":"1","instance":"i-1","open":"true","template":"all\\vs\\all"}},)" "\n"
    R"({"name":"align","cat":"attempt","ph":"X","ts":1500000,"dur":4060798500000,"pid":1,"tid":1,"args":{"id":"2","parent":"1","instance":"i-1","task":"align","outcome":"failed"}},)" "\n"
    R"({"name":"align","cat":"job","ph":"X","ts":1500000,"dur":4060798500000,"pid":1,"tid":2,"args":{"id":"3","parent":"2","instance":"i-1","task":"align","outcome":"completed","cpus":"2","note":"line1\nline2\r"}},)" "\n"
    R"({"name":"commit","cat":"commit_batch","ph":"X","ts":1500000,"dur":0,"pid":1,"tid":3,"args":{"id":"4","outcome":"done","records":"3"}},)" "\n"
    R"({"name":"align","cat":"attempt","ph":"X","ts":4060800000000,"dur":0,"pid":1,"tid":1,"args":{"id":"5","parent":"1","link":"2","instance":"i-1","task":"align","open":"true"}},)" "\n"
    R"({"name":"down","cat":"node_outage","ph":"X","ts":4060800000000,"dur":7,"pid":1,"tid":2,"args":{"id":"6","outcome":"repaired"}},)" "\n"
    R"({"name":"suspect","cat":"suspicion","ph":"X","ts":4060800000000,"dur":0,"pid":1,"tid":4,"args":{"id":"7","open":"true"}},)" "\n"
    R"({"name":"checkpoint delta","cat":"checkpoint","ph":"X","ts":4060800000000,"dur":0,"pid":1,"tid":3,"args":{"id":"8"}},)" "\n"
    R"({"name":"server crash","cat":"server_down","ph":"X","ts":4060800000000,"dur":7,"pid":1,"tid":5,"args":{"id":"9","outcome":"restarted","k\"ey":"v\\al"}},)" "\n"
    R"({"name":"caf)" "\xc3\xa9" R"(","cat":"instance","ph":"X","ts":4060800000000,"dur":0,"pid":1,"tid":6,"args":{"id":"10","instance":"i-2","open":"true"}},)" "\n"
    R"({"name":"store degraded","cat":"store_degraded","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":3,"args":{"id":"11","outcome":"healthy"}},)" "\n"
    R"({"name":"replay","cat":"recovery","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":7,"args":{"id":"12","open":"true","rows":""}},)" "\n"
    R"({"name":"submit","cat":"admission","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":8,"args":{"id":"13","outcome":"admitted","tenant":")" "\xce\xbc" R"("}},)" "\n"
    R"({"name":"barrier 1","cat":"barrier","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":9,"args":{"id":"14","outcome":"done"}},)" "\n"
    R"({"name":"p99 \"hot\"","cat":"slo_transition","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":10,"args":{"id":"15","outcome":"degraded","from":"ok","to":"degraded"}},)" "\n"
    R"({"name":"align","cat":"job","ph":"X","ts":4060800000007,"dur":0,"pid":1,"tid":2,"args":{"id":"16","parent":"5","instance":"i-1","task":"align","open":"true"}},)" "\n"
    R"({"name":"align","cat":"attempt","ph":"X","ts":2000000,"dur":0,"pid":1,"tid":1,"args":{"id":"17","parent":"1","link":"5","instance":"i-1","task":"align","open":"true"}})" "\n"
    R"(]})" "\n";
constexpr char kGoldenTruncatedJsonl[] =
    R"({"truncated":true,"spans_dropped":2})" "\n"
    R"({"id":1,"kind":"job","start_us":0,"open":true,"name":"a","instance":"i","task":"t","node":"n"})" "\n"
    R"({"id":2,"kind":"checkpoint","start_us":0,"end_us":0,"dur_us":0,"name":"b","outcome":"done"})" "\n";
constexpr char kGoldenTruncatedChrome[] =
    R"({"displayTimeUnit":"ms","traceEvents":[)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"node n"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":1,"args":{"sort_index":1}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"store"}},)" "\n"
    R"({"name":"thread_sort_index","ph":"M","pid":1,"tid":2,"args":{"sort_index":2}},)" "\n"
    R"({"name":"a","cat":"job","ph":"X","ts":0,"dur":0,"pid":1,"tid":1,"args":{"id":"1","instance":"i","task":"t","open":"true"}},)" "\n"
    R"({"name":"b","cat":"checkpoint","ph":"X","ts":0,"dur":0,"pid":1,"tid":2,"args":{"id":"2","outcome":"done"}})" "\n"
    R"(],"otherData":{"truncated":"true","spans_dropped":"2"}})" "\n";
// clang-format on

TEST(SpanExportGolden, ToJsonWritesExactRows) {
  Simulator first, second;
  SpanSink sink;
  FillGoldenSink(&first, &second, &sink);
  // clang-format off
  EXPECT_EQ(sink.Find(3)->ToJson(),
            R"({"id":3,"kind":"job","start_us":1500000,"end_us":4060800000000,"dur_us":4060798500000,"parent":2,"name":"align","instance":"i-1","task":"align","node":"n\t7","outcome":"completed","cpus":"2","note":"line1\nline2\r"})");
  EXPECT_EQ(sink.Find(5)->ToJson(),
            R"({"id":5,"kind":"attempt","start_us":4060800000000,"open":true,"parent":1,"link":2,"name":"align","instance":"i-1","task":"align"})");
  // clang-format on
}

TEST(SpanExportGolden, ExportJsonlIsExact) {
  Simulator first, second;
  SpanSink sink;
  FillGoldenSink(&first, &second, &sink);
  EXPECT_EQ(sink.ExportJsonl(), kGoldenJsonl);
}

TEST(SpanExportGolden, ExportChromeTraceIsExact) {
  Simulator first, second;
  SpanSink sink;
  FillGoldenSink(&first, &second, &sink);
  EXPECT_EQ(sink.ExportChromeTrace(), kGoldenChrome);
}

TEST(SpanExportGolden, TruncatedSinksWriteBothMarkers) {
  SpanSink sink(/*capacity=*/2);
  sink.Begin(SpanKind::kJob, "a", 0, 0, "i", "t", "n");
  sink.EmitInstant(SpanKind::kCheckpoint, "b");
  EXPECT_EQ(sink.Begin(SpanKind::kJob, "c"), 0u);  // dropped
  EXPECT_EQ(sink.Begin(SpanKind::kJob, "d"), 0u);  // dropped
  EXPECT_EQ(sink.ExportJsonl(), kGoldenTruncatedJsonl);
  EXPECT_EQ(sink.ExportChromeTrace(), kGoldenTruncatedChrome);
}

// ---------------------------------------------------------------------------
// Critical-path analysis on hand-built DAGs.

TEST_F(SpanDagTest, PicksLatestFinishingAttemptNotLatestStarted) {
  // Two parallel attempts A [0,40] and B [0,35]; B's job even starts
  // later, but A finishes later so only A is on the critical path.
  uint64_t inst = sink_.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t a = sink_.Begin(SpanKind::kAttempt, "a", inst, 0, "i1", "a");
  uint64_t b = sink_.Begin(SpanKind::kAttempt, "b", inst, 0, "i1", "b");
  At(5);
  uint64_t job_a = sink_.Begin(SpanKind::kJob, "a", a, 0, "i1", "a", "n1");
  At(6);
  uint64_t job_b = sink_.Begin(SpanKind::kJob, "b", b, 0, "i1", "b", "n2");
  At(35);
  sink_.End(job_b, "completed");
  sink_.End(b, "completed");
  At(40);
  sink_.End(job_a, "completed");
  sink_.End(a, "completed");
  uint64_t c = sink_.Begin(SpanKind::kAttempt, "c", inst, 0, "i1", "c");
  At(50);
  uint64_t job_c = sink_.Begin(SpanKind::kJob, "c", c, 0, "i1", "c", "n1");
  At(100);
  sink_.End(job_c, "completed");
  sink_.End(c, "completed");
  sink_.End(inst, "completed");

  CriticalPathReport report = AnalyzeCriticalPath(sink_, "i1");
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.makespan(), Duration::Seconds(100));
  EXPECT_EQ(report.attributed(), report.makespan());

  ASSERT_EQ(report.segments.size(), 4u);
  EXPECT_EQ(report.segments[0].category, "queue");
  EXPECT_EQ(report.segments[0].start, TimePoint::Zero());
  EXPECT_EQ(report.segments[0].end, TimePoint::FromMicros(5000000));
  EXPECT_EQ(report.segments[1].category, "compute");
  EXPECT_EQ(report.segments[1].task, "a");
  EXPECT_EQ(report.segments[1].end, TimePoint::FromMicros(40000000));
  EXPECT_EQ(report.segments[2].category, "queue");
  EXPECT_EQ(report.segments[2].end, TimePoint::FromMicros(50000000));
  EXPECT_EQ(report.segments[3].category, "compute");
  EXPECT_EQ(report.segments[3].task, "c");
  EXPECT_EQ(report.segments[3].end, TimePoint::FromMicros(100000000));
  // Task "b" is nowhere on the path.
  for (const CriticalPathSegment& segment : report.segments) {
    EXPECT_NE(segment.task, "b");
  }
  EXPECT_EQ(report.totals.at("compute"), Duration::Seconds(85));
  EXPECT_EQ(report.totals.at("queue"), Duration::Seconds(15));

  std::string text = report.ToText();
  EXPECT_NE(text.find("critical path of i1"), std::string::npos);
  EXPECT_NE(text.find("compute"), std::string::npos);
}

TEST_F(SpanDagTest, OverlayWindowsClassifyWaitTime) {
  // Wait time under a server-down window is recovery; under a
  // store-degraded window, store_stall; server-down wins where the two
  // overlap.
  uint64_t inst = sink_.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t a = sink_.Begin(SpanKind::kAttempt, "a", inst, 0, "i1", "a");
  uint64_t job_a = sink_.Begin(SpanKind::kJob, "a", a, 0, "i1", "a", "n1");
  At(10);
  sink_.End(job_a, "completed");
  sink_.End(a, "completed");
  uint64_t b = sink_.Begin(SpanKind::kAttempt, "b", inst, 0, "i1", "b");
  At(20);
  uint64_t down = sink_.Begin(SpanKind::kServerDown, "server down");
  At(30);
  uint64_t degraded = sink_.Begin(SpanKind::kStoreDegraded, "store degraded");
  At(40);
  sink_.End(down, "recovered");
  At(60);
  sink_.End(degraded, "healthy");
  At(70);
  uint64_t job_b = sink_.Begin(SpanKind::kJob, "b", b, 0, "i1", "b", "n2");
  At(100);
  sink_.End(job_b, "completed");
  sink_.End(b, "completed");
  sink_.End(inst, "completed");

  CriticalPathReport report = AnalyzeCriticalPath(sink_, "i1");
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.attributed(), report.makespan());
  EXPECT_EQ(report.totals.at("compute"), Duration::Seconds(40));
  EXPECT_EQ(report.totals.at("queue"), Duration::Seconds(20));
  EXPECT_EQ(report.totals.at("recovery"), Duration::Seconds(20));
  EXPECT_EQ(report.totals.at("store_stall"), Duration::Seconds(20));

  // The classifier cuts at every overlay boundary, so the server-down
  // window [20,40] shows up as two adjacent recovery segments split at
  // the degraded-window start (t=30).
  ASSERT_EQ(report.segments.size(), 7u);
  EXPECT_EQ(report.segments[1].category, "queue");        // [10,20]
  EXPECT_EQ(report.segments[2].category, "recovery");     // [20,30]
  EXPECT_EQ(report.segments[3].category, "recovery");     // [30,40]
  EXPECT_EQ(report.segments[3].end, TimePoint::FromMicros(40000000));
  EXPECT_EQ(report.segments[4].category, "store_stall");  // [40,60]
  EXPECT_EQ(report.segments[5].category, "queue");        // [60,70]
}

TEST_F(SpanDagTest, RetryAfterMigrationWaitsOnMigration) {
  uint64_t inst = sink_.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t m1 = sink_.Begin(SpanKind::kAttempt, "m", inst, 0, "i1", "m");
  At(5);
  uint64_t job_m1 = sink_.Begin(SpanKind::kJob, "m", m1, 0, "i1", "m", "n1");
  At(20);
  sink_.End(job_m1, "migrated");
  sink_.End(m1, "migrated");
  uint64_t m2 = sink_.Begin(SpanKind::kAttempt, "m", inst, m1, "i1", "m");
  At(30);
  uint64_t job_m2 = sink_.Begin(SpanKind::kJob, "m", m2, 0, "i1", "m", "n2");
  At(50);
  sink_.End(job_m2, "completed");
  sink_.End(m2, "completed");
  sink_.End(inst, "completed");

  CriticalPathReport report = AnalyzeCriticalPath(sink_, "i1");
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.attributed(), report.makespan());
  EXPECT_EQ(report.totals.at("compute"), Duration::Seconds(35));
  EXPECT_EQ(report.totals.at("queue"), Duration::Seconds(5));
  EXPECT_EQ(report.totals.at("migration"), Duration::Seconds(10));

  ASSERT_EQ(report.segments.size(), 4u);
  EXPECT_EQ(report.segments[2].category, "migration");  // [20,30]
  EXPECT_EQ(report.segments[2].start, TimePoint::FromMicros(20000000));
  EXPECT_EQ(report.segments[2].end, TimePoint::FromMicros(30000000));
}

TEST_F(SpanDagTest, OpenInstanceExtendsToHorizon) {
  uint64_t inst = sink_.Begin(SpanKind::kInstance, "i1", 0, 0, "i1");
  uint64_t a = sink_.Begin(SpanKind::kAttempt, "a", inst, 0, "i1", "a");
  uint64_t job_a = sink_.Begin(SpanKind::kJob, "a", a, 0, "i1", "a", "n1");
  At(10);
  sink_.End(job_a, "completed");
  sink_.End(a, "completed");
  At(25);
  // A later store event moves the horizon; the still-open instance span
  // is analyzed up to it.
  sink_.EmitInstant(SpanKind::kCheckpoint, "checkpoint delta");

  CriticalPathReport report = AnalyzeCriticalPath(sink_, "i1");
  ASSERT_TRUE(report.found);
  EXPECT_EQ(report.makespan(), Duration::Seconds(25));
  EXPECT_EQ(report.attributed(), report.makespan());
  EXPECT_EQ(report.totals.at("compute"), Duration::Seconds(10));
  EXPECT_EQ(report.totals.at("queue"), Duration::Seconds(15));
}

TEST_F(SpanDagTest, UnknownInstanceReportsNotFound) {
  CriticalPathReport report = AnalyzeCriticalPath(sink_, "nope");
  EXPECT_FALSE(report.found);
  EXPECT_EQ(report.segments.size(), 0u);
  EXPECT_NE(report.ToText().find("(no instance span for nope)"),
            std::string::npos);
}

}  // namespace
}  // namespace biopera::obs
