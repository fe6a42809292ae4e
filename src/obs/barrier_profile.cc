#include "obs/barrier_profile.h"

#include <algorithm>
#include <chrono>

#include "common/strings.h"

namespace biopera::obs {

namespace {

uint64_t (*g_fake_now_ns)() = nullptr;

const char* const kCauseNames[BarrierProfiler::kNumCauses] = {
    "pump", "kernel", "store", "idle", "wait"};

/// Nanoseconds formatted as fractional Chrome-trace microseconds: the
/// division is exact in text, so segment boundaries keep tiling exactly
/// in the exported document.
std::string TsMicros(uint64_t ns) {
  return StrFormat("%llu.%03llu",
                   static_cast<unsigned long long>(ns / 1000),
                   static_cast<unsigned long long>(ns % 1000));
}

}  // namespace

uint64_t WallProfile::NowNs() {
  if (g_fake_now_ns != nullptr) return g_fake_now_ns();
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void WallProfile::SetClockForTest(uint64_t (*now_ns)()) {
  g_fake_now_ns = now_ns;
}

WallProfile::Scope::Scope(WallProfile* profile, Bucket bucket)
    : profile_(profile), bucket_(bucket) {
  if (profile_ == nullptr) return;
  saved_child_ns_ = profile_->open_child_ns_;
  profile_->open_child_ns_ = 0;
  start_ns_ = NowNs();
}

WallProfile::Scope::~Scope() {
  if (profile_ == nullptr) return;
  const uint64_t elapsed = NowNs() - start_ns_;
  const uint64_t child = profile_->open_child_ns_;
  profile_->bucket_ns_[bucket_] += elapsed > child ? elapsed - child : 0;
  // The parent scope sees this whole scope (self + children) as one
  // closed child.
  profile_->open_child_ns_ = saved_child_ns_ + elapsed;
}

void WallProfile::Drain(uint64_t out[kNumBuckets]) {
  for (int b = 0; b < kNumBuckets; ++b) {
    out[b] = bucket_ns_[b];
    bucket_ns_[b] = 0;
  }
  open_child_ns_ = 0;
}

const char* BarrierProfiler::CauseName(int cause) {
  return cause >= 0 && cause < kNumCauses ? kCauseNames[cause] : "?";
}

BarrierProfiler::BarrierProfiler(int shards, Registry* registry,
                                 size_t max_records)
    : shards_(std::max(shards, 1)),
      max_records_(max_records),
      totals_(static_cast<size_t>(shards_)) {
  stall_hist_.resize(static_cast<size_t>(shards_));
  slowest_counter_.resize(static_cast<size_t>(shards_), nullptr);
  if (registry == nullptr) return;
  // Register every family member now: snapshot *keys* stay deterministic
  // across same-seed runs even though wall-clock values differ.
  HistogramOptions stall_buckets;
  stall_buckets.first_bound = 1e-6;  // 1us .. ~17min in 16 x4 buckets
  for (int s = 0; s < shards_; ++s) {
    const std::string shard_label = StrFormat("%d", s);
    stall_hist_[s].resize(kNumCauses, nullptr);
    for (int c = 0; c < kNumCauses; ++c) {
      stall_hist_[s][c] = registry->GetHistogram(
          "service_barrier_stall_seconds",
          {{"cause", kCauseNames[c]}, {"shard", shard_label}}, stall_buckets);
    }
    slowest_counter_[s] = registry->GetCounter(
        "service_barrier_slowest_total", {{"shard", shard_label}});
  }
}

void BarrierProfiler::Record(uint64_t wall_ns, TimePoint virtual_start,
                             TimePoint virtual_end,
                             const std::vector<RawSample>& raw) {
  BarrierRecord rec;
  rec.seq = ++barriers_;
  rec.virtual_start = virtual_start;
  rec.virtual_end = virtual_end;
  rec.wall_ns = wall_ns;
  rec.shards.resize(raw.size());
  for (size_t i = 0; i < raw.size(); ++i) {
    // Sequential clamping makes the five segments tile [0, wall_ns]
    // exactly no matter how noisy the raw measurements are: step is
    // capped by the barrier wall, then pump/kernel/store each take at
    // most what remains of the step, idle is the step remainder and wait
    // the barrier remainder. Work done *between* barriers (admission
    // store commits during Submit) accumulates in the profile and is
    // absorbed into the next barrier by the same clamps.
    BarrierShardSample& s = rec.shards[i];
    s.step_ns = std::min(raw[i].step_ns, wall_ns);
    s.pump_ns = std::min(raw[i].pump_ns, s.step_ns);
    s.kernel_ns = std::min(raw[i].kernel_ns, s.step_ns - s.pump_ns);
    s.store_ns =
        std::min(raw[i].store_ns, s.step_ns - s.pump_ns - s.kernel_ns);
    s.idle_ns = s.step_ns - s.pump_ns - s.kernel_ns - s.store_ns;
    s.wait_ns = wall_ns - s.step_ns;
    if (rec.slowest < 0 ||
        s.step_ns > rec.shards[rec.slowest].step_ns) {
      rec.slowest = static_cast<int>(i);
    }
  }

  for (size_t i = 0; i < rec.shards.size() && i < totals_.size(); ++i) {
    const BarrierShardSample& s = rec.shards[i];
    ShardTotals& t = totals_[i];
    t.pump_ns += s.pump_ns;
    t.kernel_ns += s.kernel_ns;
    t.store_ns += s.store_ns;
    t.idle_ns += s.idle_ns;
    t.wait_ns += s.wait_ns;
    t.step_ns += s.step_ns;
    if (!stall_hist_[i].empty()) {
      const uint64_t ns[kNumCauses] = {s.pump_ns, s.kernel_ns, s.store_ns,
                                       s.idle_ns, s.wait_ns};
      for (int c = 0; c < kNumCauses; ++c) {
        stall_hist_[i][c]->Observe(static_cast<double>(ns[c]) / 1e9);
      }
    }
  }
  if (rec.slowest >= 0 &&
      rec.slowest < static_cast<int>(totals_.size())) {
    ++totals_[rec.slowest].slowest;
    if (slowest_counter_[rec.slowest] != nullptr) {
      slowest_counter_[rec.slowest]->Increment();
    }
  }
  if (records_.size() < max_records_) records_.push_back(std::move(rec));
}

bool BarrierProfiler::CheckTiling(std::string* error) const {
  for (const BarrierRecord& rec : records_) {
    for (size_t i = 0; i < rec.shards.size(); ++i) {
      const BarrierShardSample& s = rec.shards[i];
      const uint64_t sum =
          s.pump_ns + s.kernel_ns + s.store_ns + s.idle_ns + s.wait_ns;
      if (sum != rec.wall_ns ||
          s.step_ns != s.pump_ns + s.kernel_ns + s.store_ns + s.idle_ns) {
        if (error != nullptr) {
          *error = StrFormat(
              "barrier %llu shard %zu: segments sum to %llu ns, wall %llu ns",
              static_cast<unsigned long long>(rec.seq), i,
              static_cast<unsigned long long>(sum),
              static_cast<unsigned long long>(rec.wall_ns));
        }
        return false;
      }
    }
  }
  for (size_t i = 0; i < totals_.size(); ++i) {
    const ShardTotals& t = totals_[i];
    if (t.step_ns != t.pump_ns + t.kernel_ns + t.store_ns + t.idle_ns) {
      if (error != nullptr) {
        *error = StrFormat("shard %zu totals do not tile", i);
      }
      return false;
    }
  }
  return true;
}

std::string BarrierProfiler::ToText() const {
  std::string out = StrFormat(
      "barrier stalls over %llu barrier(s), wall-clock ms per shard "
      "(pump+kernel+store+idle+wait == step+wait):\n",
      static_cast<unsigned long long>(barriers_));
  out +=
      "shard      pump    kernel     store      idle      wait   slowest\n";
  for (size_t i = 0; i < totals_.size(); ++i) {
    const ShardTotals& t = totals_[i];
    out += StrFormat("%5zu %9.2f %9.2f %9.2f %9.2f %9.2f %9llu\n", i,
                     static_cast<double>(t.pump_ns) / 1e6,
                     static_cast<double>(t.kernel_ns) / 1e6,
                     static_cast<double>(t.store_ns) / 1e6,
                     static_cast<double>(t.idle_ns) / 1e6,
                     static_cast<double>(t.wait_ns) / 1e6,
                     static_cast<unsigned long long>(t.slowest));
  }
  return out;
}

std::string BarrierProfiler::ExportChromeTrace() const {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event;
  };
  for (int s = 0; s < shards_; ++s) {
    append(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"shard %d\"}}",
        s + 1, s));
    append(StrFormat(
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"sort_index\":%d}}",
        s + 1, s + 1));
  }
  // Barriers laid end to end on a cumulative wall-clock axis: barrier k
  // occupies [offset, offset + wall_ns) on every shard's track, and the
  // five segments tile that window exactly.
  uint64_t offset_ns = 0;
  for (const BarrierRecord& rec : records_) {
    for (size_t i = 0; i < rec.shards.size(); ++i) {
      const BarrierShardSample& sh = rec.shards[i];
      const uint64_t segs[kNumCauses] = {sh.pump_ns, sh.kernel_ns,
                                         sh.store_ns, sh.idle_ns, sh.wait_ns};
      uint64_t at = offset_ns;
      for (int c = 0; c < kNumCauses; ++c) {
        if (segs[c] == 0) continue;
        append(StrFormat(
            "{\"name\":\"%s\",\"cat\":\"barrier\",\"ph\":\"X\",\"ts\":%s,"
            "\"dur\":%s,\"pid\":1,\"tid\":%d,\"args\":{\"barrier\":\"%llu\","
            "\"slowest\":\"%s\"}}",
            kCauseNames[c], TsMicros(at).c_str(), TsMicros(segs[c]).c_str(),
            static_cast<int>(i) + 1,
            static_cast<unsigned long long>(rec.seq),
            static_cast<int>(i) == rec.slowest ? "true" : "false"));
        at += segs[c];
      }
    }
    offset_ns += rec.wall_ns;
  }
  out += "\n]";
  if (records_truncated()) {
    out += StrFormat(
        ",\"otherData\":{\"truncated\":\"true\",\"barriers_dropped\":"
        "\"%llu\"}",
        static_cast<unsigned long long>(barriers_ - records_.size()));
  }
  out += "}\n";
  return out;
}

}  // namespace biopera::obs
