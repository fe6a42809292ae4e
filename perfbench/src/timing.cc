#include "src/timing.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <utility>

namespace perfbench {

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

double NowSeconds() { return static_cast<double>(NowNs()) / 1e9; }

int HighestSupportedPercentile(size_t n, int max_percentile,
                               size_t min_beyond) {
  for (int p = max_percentile; p >= 50; --p) {
    if (n * static_cast<size_t>(100 - p) >= min_beyond * 100) return p;
  }
  return 0;
}

double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  std::sort(samples.begin(), samples.end());
  const double n = static_cast<double>(samples.size());
  size_t rank = static_cast<size_t>(std::ceil(p / 100.0 * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, samples.size());
  return samples[rank - 1];
}

std::string TimingSummary::ToText(const std::string& unit) const {
  char buf[160];
  if (tail_percentile == 0) {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s (n=%zu, no tail)", median,
                  unit.c_str(), count);
  } else {
    std::snprintf(buf, sizeof(buf), "p50 %.4g %s, p%d %.4g %s (n=%zu)",
                  median, unit.c_str(), tail_percentile, tail, unit.c_str(),
                  count);
  }
  return buf;
}

TimingSummary Summarize(const std::vector<double>& samples,
                        int max_percentile) {
  TimingSummary out;
  out.count = samples.size();
  out.median = Percentile(samples, 50);
  out.tail_percentile =
      HighestSupportedPercentile(samples.size(), max_percentile);
  if (out.tail_percentile > 0) {
    out.tail = Percentile(samples, out.tail_percentile);
  }
  return out;
}

double TailAt(const std::vector<double>& samples, int wanted, int* used) {
  int p = std::min(wanted, HighestSupportedPercentile(samples.size(), wanted));
  p = std::max(p, 50);
  if (used != nullptr) *used = p;
  return Percentile(samples, p);
}

std::vector<uint64_t> SelfTimesNs(const std::vector<SpanRecord>& spans) {
  // Direct same-thread children of each span, as [start, end) intervals.
  std::vector<std::vector<std::pair<uint64_t, uint64_t>>> children(
      spans.size());
  for (const SpanRecord& s : spans) {
    if (s.parent < 0 || static_cast<size_t>(s.parent) >= spans.size()) {
      continue;
    }
    if (spans[s.parent].thread != s.thread) continue;
    children[s.parent].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<uint64_t> self(spans.size(), 0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    const uint64_t duration = s.end_ns > s.start_ns ? s.end_ns - s.start_ns : 0;
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    uint64_t covered = 0;
    uint64_t cursor = s.start_ns;  // end of the merged coverage so far
    for (auto [start, end] : kids) {
      start = std::max(start, cursor);
      end = std::min(end, s.end_ns);
      if (end <= start) continue;
      covered += end - start;
      cursor = end;
    }
    self[i] = duration - std::min(covered, duration);
  }
  return self;
}

}  // namespace perfbench
