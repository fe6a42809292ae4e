#include "obs/timeline.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/json.h"

namespace biopera::obs {

std::vector<TimelineInterval> BuildTimeline(const SpanSink& spans,
                                            const std::string& node) {
  // The horizon is the latest timestamp the sink has seen, as in the
  // critical-path analyzer.
  TimePoint horizon = TimePoint::Zero();
  spans.ForEach([&](const Span& span) {
    horizon = std::max(horizon, span.open ? span.start : span.end);
  });
  std::vector<TimelineInterval> intervals;
  spans.ForEach([&](const Span& span) {
    if (span.kind != SpanKind::kJob) return;
    if (!node.empty() && span.node != node) return;
    intervals.push_back({span.node, span.instance, span.task, span.start,
                         span.open ? horizon : span.end,
                         span.open ? "open" : span.outcome});
  });
  std::stable_sort(intervals.begin(), intervals.end(),
                   [](const TimelineInterval& a, const TimelineInterval& b) {
                     if (a.start != b.start) return a.start < b.start;
                     return a.node < b.node;
                   });
  return intervals;
}

std::string TimelineCsv(const std::vector<TimelineInterval>& intervals,
                        uint64_t dropped_spans) {
  std::string out = "node,instance,task,start_us,end_us,outcome\n";
  if (dropped_spans > 0) {
    out += StrFormat("# truncated: %llu spans dropped at capacity; later "
                     "intervals are missing\n",
                     static_cast<unsigned long long>(dropped_spans));
  }
  for (const TimelineInterval& iv : intervals) {
    // Names come from user-controlled templates; CsvField keeps a
    // hostile name from breaking the column structure.
    out += StrFormat("%s,%s,%s,%lld,%lld,%s\n", CsvField(iv.node).c_str(),
                     CsvField(iv.instance).c_str(), CsvField(iv.task).c_str(),
                     static_cast<long long>(iv.start.micros()),
                     static_cast<long long>(iv.end.micros()),
                     iv.outcome.c_str());
  }
  return out;
}

}  // namespace biopera::obs
