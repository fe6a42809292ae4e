// Fleet observability: the P-square streaming quantile, wall-profile
// self-time accounting, barrier-stall attribution (exact tiling), cross-
// shard span federation, fleet critical paths extended to submission
// time, tenant SLO rules + health events, and the determinism contract —
// federated exports, FLEETREPORT, HEALTH and merged METRICS key order are
// byte-identical across same-seed runs, including under partition storms.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "cluster/failure.h"
#include "common/rng.h"
#include "common/strings.h"
#include "comms/channel.h"
#include "core/engine.h"
#include "exec/thread_pool.h"
#include "obs/barrier_profile.h"
#include "obs/fleet.h"
#include "obs/quantile.h"
#include "ocr/builder.h"
#include "service/service.h"
#include "service/service_console.h"
#include "service/slo.h"
#include "sim/simulator.h"
#include "tests/test_util.h"

namespace biopera {
namespace {

using service::HealthState;
using service::ServiceConsole;
using service::ServiceOptions;
using service::ShardedService;
using service::SloRule;
using service::Submission;
using service::Ticket;

// ---------------------------------------------------------------------------
// StreamingQuantile (P-square)

TEST(StreamingQuantile, ExactForFiveOrFewerObservations) {
  obs::StreamingQuantile median(0.5);
  EXPECT_EQ(median.Estimate(), 0.0);
  for (double v : {9.0, 1.0, 5.0}) median.Observe(v);
  EXPECT_EQ(median.Estimate(), 5.0);  // exact order statistic
  median.Observe(7.0);
  median.Observe(3.0);
  EXPECT_EQ(median.Estimate(), 5.0);
  EXPECT_EQ(median.min(), 1.0);
  EXPECT_EQ(median.max(), 9.0);
  EXPECT_EQ(median.count(), 5u);
}

/// Deterministic pseudo-random stream (SplitMix64; no std::random so the
/// sequence is pinned across library versions).
double NextUniform(uint64_t* state) {
  uint64_t z = (*state += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z = z ^ (z >> 31);
  return static_cast<double>(z >> 11) / 9007199254740992.0;  // [0,1)
}

TEST(StreamingQuantile, TracksExactQuantilesOfAUniformStream) {
  for (double q : {0.5, 0.9, 0.99}) {
    obs::StreamingQuantile sq(q);
    std::vector<double> all;
    uint64_t state = 42;
    for (int i = 0; i < 20000; ++i) {
      double v = NextUniform(&state);
      sq.Observe(v);
      all.push_back(v);
    }
    std::sort(all.begin(), all.end());
    double exact = all[static_cast<size_t>(q * (all.size() - 1))];
    EXPECT_NEAR(sq.Estimate(), exact, 0.02)
        << "q=" << q << " estimate=" << sq.Estimate() << " exact=" << exact;
  }
}

TEST(StreamingQuantile, IsAPureFunctionOfTheObservationSequence) {
  obs::StreamingQuantile a(0.9), b(0.9);
  uint64_t s1 = 7, s2 = 7;
  for (int i = 0; i < 1000; ++i) a.Observe(NextUniform(&s1));
  for (int i = 0; i < 1000; ++i) b.Observe(NextUniform(&s2));
  EXPECT_EQ(a.Estimate(), b.Estimate());  // bitwise, not just approximate
}

TEST(QuantileSensor, RowIsFixedFormat) {
  obs::QuantileSensor sensor;
  for (int i = 1; i <= 100; ++i) sensor.Observe(static_cast<double>(i));
  EXPECT_EQ(sensor.count, 100u);
  EXPECT_EQ(sensor.min, 1.0);
  EXPECT_EQ(sensor.max, 100.0);
  EXPECT_EQ(sensor.mean(), 50.5);
  std::string row = sensor.ToRow("probe");
  EXPECT_NE(row.find("probe"), std::string::npos);
  EXPECT_NE(row.find("n=100"), std::string::npos);
  EXPECT_NE(row.find("p99="), std::string::npos);
}

// ---------------------------------------------------------------------------
// WallProfile self-time accounting

uint64_t g_fake_now_ns = 0;
uint64_t FakeNowNs() { return g_fake_now_ns; }

class WallProfileTest : public ::testing::Test {
 protected:
  void SetUp() override {
    g_fake_now_ns = 0;
    obs::WallProfile::SetClockForTest(&FakeNowNs);
  }
  void TearDown() override { obs::WallProfile::SetClockForTest(nullptr); }
};

TEST_F(WallProfileTest, NestedScopesChargeSelfTimeOnly) {
  obs::WallProfile profile;
  {
    obs::WallProfile::Scope pump(&profile, obs::WallProfile::kPump);
    g_fake_now_ns += 100;
    {
      obs::WallProfile::Scope kernel(&profile, obs::WallProfile::kKernel);
      g_fake_now_ns += 40;
    }
    {
      obs::WallProfile::Scope store(&profile, obs::WallProfile::kStore);
      g_fake_now_ns += 10;
    }
    g_fake_now_ns += 50;
  }
  uint64_t buckets[obs::WallProfile::kNumBuckets];
  profile.Drain(buckets);
  EXPECT_EQ(buckets[obs::WallProfile::kKernel], 40u);
  EXPECT_EQ(buckets[obs::WallProfile::kStore], 10u);
  // Pump elapsed 200ns minus 50ns of enclosed children = 150ns self.
  EXPECT_EQ(buckets[obs::WallProfile::kPump], 150u);
  // Drain resets.
  profile.Drain(buckets);
  EXPECT_EQ(buckets[0] + buckets[1] + buckets[2], 0u);
}

TEST_F(WallProfileTest, SiblingScopesAreIndependentAndDeepNestingWorks) {
  obs::WallProfile profile;
  {
    obs::WallProfile::Scope pump(&profile, obs::WallProfile::kPump);
    g_fake_now_ns += 5;
    {
      obs::WallProfile::Scope store(&profile, obs::WallProfile::kStore);
      g_fake_now_ns += 20;
      {
        obs::WallProfile::Scope kernel(&profile, obs::WallProfile::kKernel);
        g_fake_now_ns += 7;
      }
      g_fake_now_ns += 3;
    }
  }
  uint64_t buckets[obs::WallProfile::kNumBuckets];
  profile.Drain(buckets);
  EXPECT_EQ(buckets[obs::WallProfile::kKernel], 7u);
  EXPECT_EQ(buckets[obs::WallProfile::kStore], 23u);  // 30 elapsed - 7 child
  EXPECT_EQ(buckets[obs::WallProfile::kPump], 5u);    // 35 elapsed - 30 child
}

TEST_F(WallProfileTest, NullProfileScopeIsANoOp) {
  obs::WallProfile::Scope scope(nullptr, obs::WallProfile::kKernel);
  g_fake_now_ns += 1000;
  // Destructor must not dereference anything; reaching TearDown is the
  // assertion.
}

// ---------------------------------------------------------------------------
// BarrierProfiler: exact tiling, slowest-shard attribution

TEST(BarrierProfiler, SegmentsTileEveryShardOfEveryBarrierExactly) {
  obs::Registry registry;
  obs::BarrierProfiler profiler(2, &registry);
  std::vector<obs::BarrierProfiler::RawSample> raw(2);
  raw[0] = {/*step_ns=*/1000, /*pump_ns=*/300, /*kernel_ns=*/400,
            /*store_ns=*/100};
  raw[1] = {/*step_ns=*/600, /*pump_ns=*/200, /*kernel_ns=*/200,
            /*store_ns=*/100};
  profiler.Record(1200, TimePoint::Zero(),
                  TimePoint::Zero() + Duration::Minutes(1), raw);
  ASSERT_EQ(profiler.records().size(), 1u);
  const obs::BarrierRecord& rec = profiler.records()[0];
  EXPECT_EQ(rec.slowest, 0);
  for (const obs::BarrierShardSample& s : rec.shards) {
    EXPECT_EQ(s.pump_ns + s.kernel_ns + s.store_ns + s.idle_ns + s.wait_ns,
              rec.wall_ns);
  }
  EXPECT_EQ(rec.shards[0].idle_ns, 200u);  // 1000 step - 800 attributed
  EXPECT_EQ(rec.shards[0].wait_ns, 200u);  // 1200 wall - 1000 step
  EXPECT_EQ(rec.shards[1].wait_ns, 600u);
  std::string error;
  EXPECT_TRUE(profiler.CheckTiling(&error)) << error;
}

TEST(BarrierProfiler, OverflowingRawBucketsAreClampedIntoTiling) {
  obs::BarrierProfiler profiler(2, nullptr);
  std::vector<obs::BarrierProfiler::RawSample> raw(2);
  // Pathological raws: buckets exceeding the step, a step exceeding the
  // wall. Clamping must still produce an exact tiling.
  raw[0] = {/*step_ns=*/500, /*pump_ns=*/900, /*kernel_ns=*/900,
            /*store_ns=*/900};
  raw[1] = {/*step_ns=*/999, /*pump_ns=*/0, /*kernel_ns=*/0, /*store_ns=*/0};
  profiler.Record(400, TimePoint::Zero(),
                  TimePoint::Zero() + Duration::Minutes(1), raw);
  std::string error;
  EXPECT_TRUE(profiler.CheckTiling(&error)) << error;
  for (const obs::BarrierShardSample& s : profiler.records()[0].shards) {
    EXPECT_EQ(s.pump_ns + s.kernel_ns + s.store_ns + s.idle_ns + s.wait_ns,
              400u);
  }
}

TEST(BarrierProfiler, SlowestTieGoesToTheLowestShardAndCountsAccumulate) {
  obs::Registry registry;
  obs::BarrierProfiler profiler(3, &registry);
  std::vector<obs::BarrierProfiler::RawSample> raw(3);
  raw[0].step_ns = raw[1].step_ns = raw[2].step_ns = 700;
  profiler.Record(700, TimePoint::Zero(),
                  TimePoint::Zero() + Duration::Minutes(1), raw);
  EXPECT_EQ(profiler.records()[0].slowest, 0);
  raw[2].step_ns = 900;
  profiler.Record(900, TimePoint::Zero() + Duration::Minutes(1),
                  TimePoint::Zero() + Duration::Minutes(2), raw);
  EXPECT_EQ(profiler.records()[1].slowest, 2);
  EXPECT_EQ(profiler.totals()[0].slowest, 1u);
  EXPECT_EQ(profiler.totals()[2].slowest, 1u);
  EXPECT_EQ(profiler.barriers(), 2u);
  // Metric *keys* are registered up front for every shard and cause.
  obs::MetricsSnapshot snapshot = registry.Snapshot();
  for (int shard = 0; shard < 3; ++shard) {
    EXPECT_NE(snapshot.Find(StrFormat(
                  "service_barrier_slowest_total{shard=%d}", shard)),
              nullptr);
    for (int cause = 0; cause < obs::BarrierProfiler::kNumCauses; ++cause) {
      EXPECT_NE(
          snapshot.Find(StrFormat(
              "service_barrier_stall_seconds{cause=%s,shard=%d}",
              obs::BarrierProfiler::CauseName(cause), shard)),
          nullptr);
    }
  }
  std::string text = profiler.ToText();
  EXPECT_NE(text.find("slowest"), std::string::npos);
  std::string chrome = profiler.ExportChromeTrace();
  EXPECT_NE(chrome.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(chrome.find("shard 2"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Fleet span id + JSONL fan-in units

TEST(FleetSpanId, PacksShardAndLocalIdStably) {
  EXPECT_EQ(obs::FleetSpanId(-1, 0), 0u);   // "no span" stays "no span"
  EXPECT_EQ(obs::FleetSpanId(3, 0), 0u);
  EXPECT_EQ(obs::FleetSpanId(-1, 5), 5u);   // front door keeps local ids
  EXPECT_EQ(obs::FleetSpanId(0, 5), (1ull << 40) + 5);
  EXPECT_EQ(obs::FleetSpanId(2, 1), (3ull << 40) + 1);
  EXPECT_NE(obs::FleetSpanId(0, 7), obs::FleetSpanId(1, 7));
}

TEST(MergeJsonlByShard, TagsEveryObjectLineWithItsShard) {
  std::string merged = obs::MergeJsonlByShard(
      {{0, "{\"a\":1}\n{\"b\":2}\n"}, {1, "{\"c\":3}\n"}});
  EXPECT_EQ(merged,
            "{\"shard\":0,\"a\":1}\n{\"shard\":0,\"b\":2}\n"
            "{\"shard\":1,\"c\":3}\n");
}

// ---------------------------------------------------------------------------
// Golden federated exports

/// A front door and two shards. Spans at 60 s exist in all three sinks,
/// so the fleet id breaks the start-time tie; shard 1 is truncated, holds
/// open spans, and switches to a second clock that stands earlier (as a
/// successor engine sharing the `Observability` does), so its start
/// times go backwards in id order and federation has to sort, not merge.
struct GoldenFleet {
  Simulator front_clock, shard0_clock, shard1_clock, shard1_successor;
  obs::SpanSink front, shard0;
  obs::SpanSink shard1{/*capacity=*/6};

  GoldenFleet() {
    using obs::SpanKind;
    front.SetClock(&front_clock);
    shard0.SetClock(&shard0_clock);
    shard1.SetClock(&shard1_clock);
    const TimePoint minute = TimePoint::FromMicros(60000000);

    uint64_t early = front.Begin(SpanKind::kAdmission, "submit", 0, 0, "", "",
                                 "", {{"tenant", "t\"0"}});
    front_clock.RunUntil(minute);
    front.End(early, "admitted");
    front.EmitInstant(SpanKind::kBarrier, "barrier 1", 0, "", "", "",
                      {{"step", "1"}});
    front.Begin(SpanKind::kAdmission, "submit", 0, 0, "", "", "",
                {{"tenant", "caf\xc3\xa9"}});

    shard0_clock.RunUntil(minute);
    uint64_t inst = shard0.Begin(SpanKind::kInstance, "job\\1", 0, 0, "i-1");
    uint64_t attempt = shard0.Begin(SpanKind::kAttempt, "run", inst, 0,
                                    "i-1", "run");
    shard0_clock.RunUntil(TimePoint::FromMicros(90000000));
    uint64_t job = shard0.Begin(SpanKind::kJob, "run", attempt, 0, "i-1",
                                "run", "s0\tn0");
    shard0_clock.RunUntil(TimePoint::FromMicros(150000000));
    shard0.End(job, "completed", {{"cpu", "1.5"}});
    shard0.End(attempt, "completed");
    shard0.End(inst, "done\n");

    shard1_clock.RunUntil(minute);
    uint64_t other = shard1.Begin(SpanKind::kInstance, "job\x01", 0, 0, "i-1");
    uint64_t first = shard1.Begin(SpanKind::kAttempt, "run", other, 0, "i-1",
                                  "run");
    shard1_clock.RunUntil(TimePoint::FromMicros(120000000));
    shard1.End(first, "failed");
    shard1.Begin(SpanKind::kAttempt, "run", other, first, "i-1", "run");
    shard1.SetClock(&shard1_successor);
    shard1_successor.RunUntil(TimePoint::FromMicros(30000000));
    shard1.EmitInstant(SpanKind::kServerDown, "server", 0, "", "", "", {},
                       "fenced");
    shard1.Begin(SpanKind::kRecovery, "replay", other, 0, "i-1");
    for (int i = 0; i < 3; ++i) shard1.Begin(SpanKind::kCheckpoint, "lost");
  }

  std::vector<obs::FleetSource> Sources() const {
    return {{-1, &front}, {0, &shard0}, {1, &shard1}, {2, nullptr}};
  }
};

// clang-format off
constexpr char kGoldenFleetJsonl[] =
    R"({"truncated":true,"spans_dropped":2})" "\n"
    R"({"id":1,"kind":"admission","start_us":0,"end_us":60000000,"dur_us":60000000,"name":"submit","outcome":"admitted","shard":"front","tenant":"t\"0"})" "\n"
    R"({"id":2199023255556,"kind":"server_down","start_us":30000000,"end_us":30000000,"dur_us":0,"name":"server","outcome":"fenced","shard":"1"})" "\n"
    R"({"id":2199023255557,"kind":"recovery","start_us":30000000,"open":true,"parent":2199023255553,"name":"replay","instance":"i-1","shard":"1"})" "\n"
    R"({"id":2199023255558,"kind":"checkpoint","start_us":30000000,"open":true,"name":"lost","shard":"1"})" "\n"
    R"({"id":2,"kind":"barrier","start_us":60000000,"end_us":60000000,"dur_us":0,"name":"barrier 1","outcome":"done","shard":"front","step":"1"})" "\n"
    R"({"id":3,"kind":"admission","start_us":60000000,"open":true,"name":"submit","shard":"front","tenant":"caf)" "\xc3\xa9" R"("})" "\n"
    R"({"id":1099511627777,"kind":"instance","start_us":60000000,"end_us":150000000,"dur_us":90000000,"name":"job\\1","instance":"i-1","outcome":"done\n","shard":"0"})" "\n"
    R"({"id":1099511627778,"kind":"attempt","start_us":60000000,"end_us":150000000,"dur_us":90000000,"parent":1099511627777,"name":"run","instance":"i-1","task":"run","outcome":"completed","shard":"0"})" "\n"
    R"({"id":2199023255553,"kind":"instance","start_us":60000000,"open":true,"name":"job\u0001","instance":"i-1","shard":"1"})" "\n"
    R"({"id":2199023255554,"kind":"attempt","start_us":60000000,"end_us":120000000,"dur_us":60000000,"parent":2199023255553,"name":"run","instance":"i-1","task":"run","outcome":"failed","shard":"1"})" "\n"
    R"({"id":1099511627779,"kind":"job","start_us":90000000,"end_us":150000000,"dur_us":60000000,"parent":1099511627778,"name":"run","instance":"i-1","task":"run","node":"s0\tn0","outcome":"completed","shard":"0","cpu":"1.5"})" "\n"
    R"({"id":2199023255555,"kind":"attempt","start_us":120000000,"open":true,"parent":2199023255553,"link":2199023255554,"name":"run","instance":"i-1","task":"run","shard":"1"})" "\n";
constexpr char kGoldenFleetChrome[] =
    R"({"displayTimeUnit":"ms","traceEvents":[)" "\n"
    R"({"name":"process_name","ph":"M","pid":1,"args":{"name":"front door"}},)" "\n"
    R"({"name":"process_sort_index","ph":"M","pid":1,"args":{"sort_index":1}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":1,"args":{"name":"front door"}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":1,"tid":2,"args":{"name":"barriers"}},)" "\n"
    R"({"name":"submit","cat":"admission","ph":"X","ts":0,"dur":60000000,"pid":1,"tid":1,"args":{"id":"1","outcome":"admitted"}},)" "\n"
    R"({"name":"barrier 1","cat":"barrier","ph":"X","ts":60000000,"dur":0,"pid":1,"tid":2,"args":{"id":"2","outcome":"done"}},)" "\n"
    R"({"name":"submit","cat":"admission","ph":"X","ts":60000000,"dur":0,"pid":1,"tid":1,"args":{"id":"3","open":"true"}},)" "\n"
    R"({"name":"process_name","ph":"M","pid":2,"args":{"name":"shard 0"}},)" "\n"
    R"({"name":"process_sort_index","ph":"M","pid":2,"args":{"sort_index":2}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":2,"tid":1,"args":{"name":"instance i-1"}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":2,"tid":2,"args":{"name":"node s0\tn0"}},)" "\n"
    R"({"name":"job\\1","cat":"instance","ph":"X","ts":60000000,"dur":90000000,"pid":2,"tid":1,"args":{"id":"1099511627777","instance":"i-1","outcome":"done\n"}},)" "\n"
    R"({"name":"run","cat":"attempt","ph":"X","ts":60000000,"dur":90000000,"pid":2,"tid":1,"args":{"id":"1099511627778","parent":"1099511627777","instance":"i-1","outcome":"completed"}},)" "\n"
    R"({"name":"run","cat":"job","ph":"X","ts":90000000,"dur":60000000,"pid":2,"tid":2,"args":{"id":"1099511627779","parent":"1099511627778","instance":"i-1","outcome":"completed"}},)" "\n"
    R"({"name":"process_name","ph":"M","pid":3,"args":{"name":"shard 1"}},)" "\n"
    R"({"name":"process_sort_index","ph":"M","pid":3,"args":{"sort_index":3}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":3,"tid":1,"args":{"name":"instance i-1"}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":3,"tid":2,"args":{"name":"server"}},)" "\n"
    R"({"name":"thread_name","ph":"M","pid":3,"tid":3,"args":{"name":"store"}},)" "\n"
    R"({"name":"job\u0001","cat":"instance","ph":"X","ts":60000000,"dur":0,"pid":3,"tid":1,"args":{"id":"2199023255553","instance":"i-1","open":"true"}},)" "\n"
    R"({"name":"run","cat":"attempt","ph":"X","ts":60000000,"dur":60000000,"pid":3,"tid":1,"args":{"id":"2199023255554","parent":"2199023255553","instance":"i-1","outcome":"failed"}},)" "\n"
    R"({"name":"run","cat":"attempt","ph":"X","ts":120000000,"dur":0,"pid":3,"tid":1,"args":{"id":"2199023255555","parent":"2199023255553","instance":"i-1","open":"true"}},)" "\n"
    R"({"name":"server","cat":"server_down","ph":"X","ts":30000000,"dur":0,"pid":3,"tid":2,"args":{"id":"2199023255556","outcome":"fenced"}},)" "\n"
    R"({"name":"replay","cat":"recovery","ph":"X","ts":30000000,"dur":0,"pid":3,"tid":1,"args":{"id":"2199023255557","parent":"2199023255553","instance":"i-1","open":"true"}},)" "\n"
    R"({"name":"lost","cat":"checkpoint","ph":"X","ts":30000000,"dur":0,"pid":3,"tid":3,"args":{"id":"2199023255558","open":"true"}})" "\n"
    R"(],"otherData":{"truncated":"true","spans_dropped":"2"}})" "\n";
// clang-format on

TEST(FleetFederationGolden, SpansJsonlIsExact) {
  GoldenFleet fleet;
  ASSERT_EQ(fleet.shard1.dropped(), 2u);
  EXPECT_EQ(obs::FederateSpansJsonl(fleet.Sources()), kGoldenFleetJsonl);
}

TEST(FleetFederationGolden, ChromeTraceIsExact) {
  GoldenFleet fleet;
  EXPECT_EQ(obs::FederateChromeTrace(fleet.Sources()), kGoldenFleetChrome);
}

// ---------------------------------------------------------------------------
// Service-level fixtures (mirrors service_test.cc's workload)

ocr::ProcessDef JobProcess() {
  auto def =
      ocr::ProcessBuilder("svc_job")
          .Data("payload")
          .Task(ocr::TaskBuilder::Activity("prepare", "svc.prepare"))
          .Task(ocr::TaskBuilder::Activity("run", "svc.run")
                    .Input("wb.payload", "in.payload")
                    .Output("out.result", "wb.result"))
          .Connect("prepare", "run")
          .Build();
  if (!def.ok()) std::abort();
  return std::move(*def);
}

void RegisterJobActivities(core::ActivityRegistry* registry) {
  ASSERT_OK(registry->Register(
      "svc.prepare",
      [](const core::ActivityInput&) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.cost = Duration::Minutes(30);
        return out;
      }));
  ASSERT_OK(registry->Register(
      "svc.run",
      [](const core::ActivityInput& in) -> Result<core::ActivityOutput> {
        core::ActivityOutput out;
        out.fields["result"] = ocr::Value(in.Get("payload").AsInt() * 2);
        out.cost = Duration::Hours(1);
        return out;
      }));
}

ServiceOptions BaseOptions(int shards, uint64_t seed) {
  ServiceOptions options;
  options.shards = shards;
  options.seed = seed;
  options.barrier_quantum = Duration::Minutes(30);
  options.shard.engine.adaptive_monitoring = false;
  options.configure_cluster = [](int index, cluster::ClusterSim* cluster) {
    for (int n = 0; n < 2; ++n) {
      Status st = cluster->AddNode({.name = StrFormat("s%d-n%d", index, n),
                                    .num_cpus = 2,
                                    .speed = 1.0});
      if (!st.ok()) std::abort();
    }
  };
  return options;
}

Submission MakeJob(int i) {
  Submission sub;
  sub.tenant = StrFormat("t%d", i % 3);
  sub.template_name = "svc_job";
  sub.args["payload"] = ocr::Value(static_cast<int64_t>(i));
  return sub;
}

/// Everything the determinism contract covers at the fleet level.
struct FleetExports {
  std::string spans;
  std::string chrome;
  std::string lineage;
  std::string report;
  std::string health;
  std::string metrics;  // deterministic prefix only
};

FleetExports CollectFleetExports(ShardedService* svc) {
  FleetExports out;
  out.spans = svc->ExportFleetSpans();
  out.chrome = svc->ExportFleetChrome();
  out.lineage = svc->ExportFleetLineage();
  out.report = svc->BuildFleetReport();
  out.health = svc->EvaluateHealth().ToText();
  ServiceConsole console(svc);
  // service_a* = admitted counters + admission-wait histograms: virtual-
  // time quantities, so values (not just keys) must be byte-identical.
  auto metrics = console.Execute("METRICS service_a");
  EXPECT_TRUE(metrics.ok());
  out.metrics = metrics.value_or("");
  return out;
}

FleetExports RunFleetOnce(const std::string& dir, uint64_t seed,
                          exec::ThreadPool* pool) {
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ServiceOptions options = BaseOptions(3, seed);
  options.pool = pool;
  options.max_live_instances = 8;
  options.max_backlog = 100;
  ShardedService svc(dir, &registry, options);
  EXPECT_TRUE(svc.Startup().ok());
  EXPECT_TRUE(svc.RegisterTemplate(JobProcess()).ok());
  for (int i = 0; i < 40; ++i) {
    auto ticket = svc.Submit(MakeJob(i));
    EXPECT_TRUE(ticket.ok());
  }
  svc.RunUntilQuiescent(100000);
  // The wall-clock profiler must tile exactly on every run it records.
  std::string error;
  EXPECT_TRUE(svc.barrier_profiler()->CheckTiling(&error)) << error;
  EXPECT_EQ(svc.barrier_profiler()->barriers(), svc.GetStats().barriers);
  return CollectFleetExports(&svc);
}

TEST(FleetFederation, ExportsAreByteIdenticalAcrossSameSeedReruns) {
  testing::TempDir dir_a, dir_b;
  FleetExports a = RunFleetOnce(dir_a.path(), 77, nullptr);
  FleetExports b = RunFleetOnce(dir_b.path(), 77, nullptr);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.lineage, b.lineage);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.metrics, b.metrics);
  EXPECT_NE(a.spans.find("\"shard\":"), std::string::npos);
  EXPECT_NE(a.spans.find("admission"), std::string::npos);
  EXPECT_NE(a.spans.find("barrier"), std::string::npos);
  EXPECT_NE(a.chrome.find("front door"), std::string::npos);
  EXPECT_NE(a.report.find("straggler"), std::string::npos);
}

TEST(FleetFederation, PoolPumpedRunsFederateIdenticallyToSerialRuns) {
  testing::TempDir dir_a, dir_b;
  exec::ThreadPool pool(3);
  FleetExports serial = RunFleetOnce(dir_a.path(), 99, nullptr);
  FleetExports pooled = RunFleetOnce(dir_b.path(), 99, &pool);
  EXPECT_EQ(serial.spans, pooled.spans);
  EXPECT_EQ(serial.lineage, pooled.lineage);
  EXPECT_EQ(serial.report, pooled.report);
  EXPECT_EQ(serial.health, pooled.health);
  EXPECT_EQ(serial.metrics, pooled.metrics);
}

// ---------------------------------------------------------------------------
// Federation under a per-shard partition storm

ServiceOptions StormOptions(uint64_t seed) {
  ServiceOptions options = BaseOptions(3, seed);
  options.shard.fault_channel = true;
  auto& engine = options.shard.engine;
  engine.dispatch_retry = Duration::Minutes(1);
  engine.heartbeat_interval = Duration::Seconds(30);
  engine.lease_misses_to_suspect = 3;
  engine.lease_condemn_grace = Duration::Minutes(2);
  engine.job_timeout_factor = 3.0;
  engine.job_timeout_slack = Duration::Minutes(10);
  return options;
}

FleetExports RunStormOnce(const std::string& dir, uint64_t seed) {
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ShardedService svc(dir, &registry, StormOptions(seed));
  EXPECT_TRUE(svc.Startup().ok());
  EXPECT_TRUE(svc.RegisterTemplate(JobProcess()).ok());
  for (int i = 0; i < 24; ++i) {
    auto ticket = svc.Submit(MakeJob(i));
    EXPECT_TRUE(ticket.ok());
  }
  // One independent adversary per shard, each on its own seeded stream.
  std::vector<std::unique_ptr<cluster::FailureInjector>> injectors;
  std::vector<std::unique_ptr<Rng>> rngs;
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    service::EngineShard* shard = svc.shard(s);
    EXPECT_NE(shard->channel, nullptr);
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
  for (int hour = 1; hour <= 8; ++hour) {
    svc.AdvanceUntil(TimePoint::Zero() + Duration::Hours(hour));
  }
  for (int s = 0; s < svc.hosted_shards(); ++s) {
    service::EngineShard* shard = svc.shard(s);
    injectors[s]->StopRandomPartitions();
    shard->channel->StopRandomFaults();
    for (int n = 0; n < 2; ++n) {
      const std::string name = StrFormat("s%d-n%d", s, n);
      shard->cluster->RepairNode(name);
      shard->channel->SetConnected(name, true);
    }
  }
  svc.RunUntilQuiescent(100000);
  std::string error;
  EXPECT_TRUE(svc.barrier_profiler()->CheckTiling(&error)) << error;
  return CollectFleetExports(&svc);
}

TEST(FleetFederation, StormRunsStayByteIdenticalAcrossSameSeedReruns) {
  testing::TempDir dir_a, dir_b;
  FleetExports a = RunStormOnce(dir_a.path(), 1234);
  FleetExports b = RunStormOnce(dir_b.path(), 1234);
  EXPECT_EQ(a.spans, b.spans);
  EXPECT_EQ(a.chrome, b.chrome);
  EXPECT_EQ(a.lineage, b.lineage);
  EXPECT_EQ(a.report, b.report);
  EXPECT_EQ(a.health, b.health);
  EXPECT_EQ(a.metrics, b.metrics);
}

// ---------------------------------------------------------------------------
// Fleet critical path: extended back to submission time

TEST(FleetCriticalPath, TilesFromSubmissionThroughBarrierAndBacklogWaits) {
  testing::TempDir dir;
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ServiceOptions options = BaseOptions(2, 5);
  options.max_live_instances = 2;  // force a backlog
  options.max_backlog = 50;
  ShardedService svc(dir.path(), &registry, options);
  ASSERT_OK(svc.Startup());
  ASSERT_OK(svc.RegisterTemplate(JobProcess()));
  std::vector<std::string> ids;
  for (int i = 0; i < 8; ++i) {
    auto ticket = svc.Submit(MakeJob(i));
    ASSERT_TRUE(ticket.ok());
    ids.push_back(ticket->global_id);
  }
  svc.RunUntilQuiescent(100000);
  ASSERT_FALSE(svc.barrier_bounds().empty());

  bool saw_fleet_wait = false;
  for (const std::string& id : ids) {
    auto report = svc.FleetCriticalPath(id);
    ASSERT_TRUE(report.ok()) << id;
    ASSERT_TRUE(report->found) << id;
    // Gap-free tiling of [start, end] — the fleet extension inherits the
    // per-instance invariant.
    ASSERT_FALSE(report->segments.empty());
    EXPECT_EQ(report->segments.front().start.micros(),
              report->start.micros());
    EXPECT_EQ(report->segments.back().end.micros(), report->end.micros());
    for (size_t i = 1; i < report->segments.size(); ++i) {
      EXPECT_EQ(report->segments[i - 1].end.micros(),
                report->segments[i].start.micros())
          << id << " segment " << i;
    }
    EXPECT_EQ(report->attributed().micros(), report->makespan().micros());
    if (report->totals.count("barrier_wait") != 0 ||
        report->totals.count("backlog_wait") != 0) {
      saw_fleet_wait = true;
    }
  }
  // With a live cap of 2 and 8 submissions, most instances waited in the
  // backlog across barriers — the fleet path must say so.
  EXPECT_TRUE(saw_fleet_wait);
}

// ---------------------------------------------------------------------------
// SLO rules + health

TEST(Slo, EvaluateIsAPureThresholdFunction) {
  std::vector<SloRule> rules = {{"backlog", "backlog_depth", 10.0, 100.0},
                                {"skew", "shard_busy_skew", 2.0, 4.0}};
  auto report = service::EvaluateSlo(rules, {{"backlog_depth", 5.0}});
  EXPECT_EQ(report.overall, HealthState::kOk);
  EXPECT_TRUE(report.verdicts[1].missing);  // absent sensor -> ok + flagged
  report = service::EvaluateSlo(
      rules, {{"backlog_depth", 10.0}, {"shard_busy_skew", 1.0}});
  EXPECT_EQ(report.overall, HealthState::kWarn);  // inclusive threshold
  report = service::EvaluateSlo(
      rules, {{"backlog_depth", 500.0}, {"shard_busy_skew", 2.5}});
  EXPECT_EQ(report.overall, HealthState::kCrit);
  EXPECT_EQ(report.verdicts[0].state, HealthState::kCrit);
  EXPECT_EQ(report.verdicts[1].state, HealthState::kWarn);
  std::string text = report.ToText();
  EXPECT_NE(text.find("health: crit"), std::string::npos);
  EXPECT_NE(text.find("backlog"), std::string::npos);
}

TEST(Slo, ServiceEmitsSloStateChangedEventsOnTransitions) {
  testing::TempDir dir;
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ServiceOptions options = BaseOptions(2, 9);
  options.max_live_instances = 2;
  options.max_backlog = 100;
  // A rule the run is guaranteed to trip: warn at 1 queued submission,
  // crit at 4.
  options.slo_rules = {{"backlog", "backlog_depth", 1.0, 4.0}};
  ShardedService svc(dir.path(), &registry, options);
  ASSERT_OK(svc.Startup());
  ASSERT_OK(svc.RegisterTemplate(JobProcess()));
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(svc.Submit(MakeJob(i)).ok());
  }
  EXPECT_TRUE(svc.StepBarrier());
  auto health = svc.EvaluateHealth();
  EXPECT_EQ(health.overall, HealthState::kCrit);  // 6+ still queued
  svc.RunUntilQuiescent(100000);
  health = svc.EvaluateHealth();
  EXPECT_EQ(health.overall, HealthState::kOk);  // backlog fully drained
  // The rule transitioned into crit and back out: both edges are
  // instants on the fleet sink.
  std::vector<obs::Span> edges =
      svc.fleet_obs().spans.Tail(100, "", "slo_transition");
  ASSERT_GE(edges.size(), 2u);
  bool to_crit = false, to_ok = false;
  for (const obs::Span& edge : edges) {
    EXPECT_EQ(edge.name, "backlog");
    EXPECT_EQ(edge.duration(), Duration::Zero());
    to_crit |= edge.outcome == "crit";
    to_ok |= edge.outcome == "ok";
  }
  EXPECT_TRUE(to_crit);
  EXPECT_TRUE(to_ok);
  EXPECT_EQ(edges.back().outcome, "ok");
  EXPECT_NE(edges.front().ToJson().find("\"sensor\":\"backlog_depth\""),
            std::string::npos);
}

// ---------------------------------------------------------------------------
// Console: FLEETREPORT / HEALTH / shard-labeled METRICS

TEST(ServiceConsoleFleet, FleetCommandsAndShardLabeledMetrics) {
  testing::TempDir dir;
  core::ActivityRegistry registry;
  RegisterJobActivities(&registry);
  ServiceOptions options = BaseOptions(2, 11);
  // Adaptive monitoring registers per-node labeled metrics — the probe
  // for label-injection ordering below.
  options.shard.engine.adaptive_monitoring = true;
  ShardedService svc(dir.path(), &registry, options);
  ASSERT_OK(svc.Startup());
  ASSERT_OK(svc.RegisterTemplate(JobProcess()));
  for (int i = 0; i < 10; ++i) ASSERT_TRUE(svc.Submit(MakeJob(i)).ok());
  svc.RunUntilQuiescent(100000);
  ServiceConsole console(&svc);

  auto fleet = console.Execute("FLEETREPORT");
  ASSERT_OK(fleet.status());
  EXPECT_NE(fleet->find("fleet report"), std::string::npos);
  EXPECT_NE(fleet->find("step-busy"), std::string::npos);
  EXPECT_NE(fleet->find("job-cost"), std::string::npos);
  EXPECT_NE(fleet->find("--- SLO ---"), std::string::npos);

  auto health = console.Execute("HEALTH");
  ASSERT_OK(health.status());
  EXPECT_NE(health->find("health: ok"), std::string::npos);
  EXPECT_NE(health->find("straggler-skew"), std::string::npos);

  // Per-shard rows keep their shard identity instead of being summed.
  auto metrics = console.Execute("METRICS engine_tasks_dispatched_total");
  ASSERT_OK(metrics.status());
  EXPECT_NE(metrics->find("engine_tasks_dispatched_total{shard=0}"),
            std::string::npos);
  EXPECT_NE(metrics->find("engine_tasks_dispatched_total{shard=1}"),
            std::string::npos);
  // Fleet-registry rows (front door) appear alongside.
  auto service_rows = console.Execute("METRICS service_");
  ASSERT_OK(service_rows.status());
  EXPECT_NE(service_rows->find("service_submitted_total"),
            std::string::npos);
  EXPECT_NE(service_rows->find("service_admitted_total{tenant=t0}"),
            std::string::npos);
  EXPECT_NE(service_rows->find("service_barrier_stall_seconds"),
            std::string::npos);
  // The injected label lands in sorted position inside existing braces:
  // monitor rows are labeled {node=...}, and "node" < "shard", so the
  // shard label must append after it, before the closing brace.
  auto labeled = console.Execute("METRICS monitor_");
  ASSERT_OK(labeled.status());
  EXPECT_NE(labeled->find("{node=s0-n0,shard=0}"), std::string::npos);

  // Merged key order is deterministic: two snapshots of the same service
  // list identical keys in identical order.
  auto again = console.Execute("METRICS engine_tasks_dispatched_total");
  ASSERT_OK(again.status());
  EXPECT_EQ(*metrics, *again);
}

}  // namespace
}  // namespace biopera
