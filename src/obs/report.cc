#include "obs/report.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "obs/critical_path.h"
#include "obs/json.h"
#include "obs/timeline.h"

namespace biopera::obs {

namespace {

struct NodeUsage {
  Duration busy;
  uint64_t completed = 0;
  uint64_t lost = 0;  // failed / timed out / migrated / condemned / killed
  uint64_t open = 0;
};

/// Per-node utilization (Table 1 view) over the span timeline: busy time
/// on each node and how its executions ended.
std::map<std::string, NodeUsage> UsageByNode(const SpanSink& spans) {
  std::map<std::string, NodeUsage> nodes;
  for (const TimelineInterval& iv : BuildTimeline(spans)) {
    if (iv.node.empty()) continue;
    NodeUsage& usage = nodes[iv.node];
    usage.busy += iv.end - iv.start;
    if (iv.outcome == "completed") {
      ++usage.completed;
    } else if (iv.outcome == "open") {
      ++usage.open;
    } else {
      ++usage.lost;
    }
  }
  return nodes;
}

}  // namespace

std::string BuildRunReport(const ReportInput& input, const Observability& obs,
                           size_t top_k) {
  std::string out =
      StrFormat("== run report: %s ==\n", input.instance.c_str());
  out += StrFormat("state:      %s\n", input.state.c_str());
  if (input.activities_total > 0) {
    out += StrFormat(
        "progress:   %llu/%llu activities (%.1f%%)\n",
        static_cast<unsigned long long>(input.activities_done),
        static_cast<unsigned long long>(input.activities_total),
        100.0 * static_cast<double>(input.activities_done) /
            static_cast<double>(input.activities_total));
  }

  CriticalPathReport path = AnalyzeCriticalPath(obs.spans, input.instance);
  TimePoint run_start = path.found ? path.start : TimePoint::Zero();
  Duration elapsed = input.now - run_start;
  out += StrFormat("elapsed:    %s (virtual)\n", elapsed.ToString().c_str());

  // Historical effective compute rate: reference-CPU seconds delivered to
  // this instance per elapsed second (i.e. mean busy CPUs). The ETA is
  // the planner's remaining-work estimate divided by that rate.
  double compute_seconds = 0;
  obs.spans.ForEach([&](const Span& span) {
    if (span.kind == SpanKind::kJob && !span.open &&
        span.instance == input.instance) {
      compute_seconds += span.duration().ToSeconds();
    }
  });
  if (input.state == "Done" || input.state == "done") {
    out += "eta:        - (run complete)\n";
  } else {
    double rate = elapsed.ToSeconds() > 0
                      ? compute_seconds / elapsed.ToSeconds()
                      : 0;
    if (rate > 0 && input.remaining_work_seconds > 0) {
      Duration eta = Duration::Seconds(input.remaining_work_seconds / rate);
      out += StrFormat("eta:        ~%s (%.0fs work left / %.2f effective "
                       "CPUs)\n",
                       eta.ToString().c_str(), input.remaining_work_seconds,
                       rate);
    } else {
      out += "eta:        n/a (no compute history yet)\n";
    }
  }
  out += "\n";
  out += path.ToText(top_k);

  // Each node's share of elapsed time (nodes with several CPUs can
  // exceed 100%).
  std::map<std::string, NodeUsage> nodes = UsageByNode(obs.spans);
  if (!nodes.empty()) {
    out += "\nper-node utilization:\n";
    out += StrFormat("  %-12s %14s %7s %10s %6s %5s\n", "node", "busy",
                     "util%", "completed", "lost", "open");
    for (const auto& [node, usage] : nodes) {
      double pct = elapsed.ToSeconds() > 0
                       ? 100.0 * (usage.busy / elapsed)
                       : 0;
      out += StrFormat("  %-12s %14s %6.1f%% %10llu %6llu %5llu\n",
                       node.c_str(), usage.busy.ToString().c_str(), pct,
                       static_cast<unsigned long long>(usage.completed),
                       static_cast<unsigned long long>(usage.lost),
                       static_cast<unsigned long long>(usage.open));
    }
  }

  if (obs.spans.truncated()) {
    out += StrFormat(
        "\nwarning: span log truncated (%llu spans dropped at capacity); "
        "later intervals are missing\n",
        static_cast<unsigned long long>(obs.spans.dropped()));
  }
  return out;
}

std::string BuildRunReportJson(const ReportInput& input,
                               const Observability& obs, size_t top_k) {
  CriticalPathReport path = AnalyzeCriticalPath(obs.spans, input.instance);
  TimePoint run_start = path.found ? path.start : TimePoint::Zero();
  Duration elapsed = input.now - run_start;

  double compute_seconds = 0;
  obs.spans.ForEach([&](const Span& span) {
    if (span.kind == SpanKind::kJob && !span.open &&
        span.instance == input.instance) {
      compute_seconds += span.duration().ToSeconds();
    }
  });
  double rate =
      elapsed.ToSeconds() > 0 ? compute_seconds / elapsed.ToSeconds() : 0;
  const bool done = input.state == "Done" || input.state == "done";

  std::string out = "{\"report_version\":2";
  out += ",\"instance\":" + JsonQuote(input.instance);
  out += ",\"state\":" + JsonQuote(input.state);
  out += StrFormat(",\"activities_done\":%llu,\"activities_total\":%llu",
                   static_cast<unsigned long long>(input.activities_done),
                   static_cast<unsigned long long>(input.activities_total));
  if (input.activities_total > 0) {
    out += StrFormat(",\"progress_pct\":%.4f",
                     100.0 * static_cast<double>(input.activities_done) /
                         static_cast<double>(input.activities_total));
  }
  out += StrFormat(",\"elapsed_us\":%lld",
                   static_cast<long long>(elapsed.micros()));
  out += StrFormat(",\"compute_seconds\":%.3f,\"effective_cpus\":%.4f",
                   compute_seconds, rate);
  out += StrFormat(",\"remaining_work_seconds\":%.3f",
                   input.remaining_work_seconds);
  if (!done && rate > 0 && input.remaining_work_seconds > 0) {
    out += StrFormat(",\"eta_seconds\":%.3f",
                     input.remaining_work_seconds / rate);
  }

  out += ",\"critical_path\":{";
  out += StrFormat("\"found\":%s", path.found ? "true" : "false");
  if (path.found) {
    out += StrFormat(",\"makespan_us\":%lld",
                     static_cast<long long>(path.makespan().micros()));
    out += ",\"totals\":{";
    bool first = true;
    for (const auto& [category, total] : path.totals) {
      if (!first) out += ",";
      first = false;
      out += JsonQuote(category) +
             StrFormat(":%lld", static_cast<long long>(total.micros()));
    }
    out += "}";
    // The top_k longest segments, mirroring the text view's table.
    std::vector<const CriticalPathSegment*> longest;
    longest.reserve(path.segments.size());
    for (const auto& segment : path.segments) longest.push_back(&segment);
    std::stable_sort(longest.begin(), longest.end(),
                     [](const CriticalPathSegment* a,
                        const CriticalPathSegment* b) {
                       return a->duration() > b->duration();
                     });
    if (longest.size() > top_k) longest.resize(top_k);
    out += ",\"top_segments\":[";
    for (size_t i = 0; i < longest.size(); ++i) {
      const CriticalPathSegment& segment = *longest[i];
      if (i > 0) out += ",";
      out += "{\"category\":" + JsonQuote(segment.category) +
             StrFormat(",\"start_us\":%lld,\"dur_us\":%lld",
                       static_cast<long long>(segment.start.micros()),
                       static_cast<long long>(segment.duration().micros()));
      if (!segment.task.empty()) out += ",\"task\":" + JsonQuote(segment.task);
      if (!segment.node.empty()) out += ",\"node\":" + JsonQuote(segment.node);
      out += "}";
    }
    out += "]";
  }
  out += "}";

  out += ",\"nodes\":[";
  bool first_node = true;
  for (const auto& [node, usage] : UsageByNode(obs.spans)) {
    if (!first_node) out += ",";
    first_node = false;
    double pct =
        elapsed.ToSeconds() > 0 ? 100.0 * (usage.busy / elapsed) : 0;
    out += "{\"node\":" + JsonQuote(node) +
           StrFormat(",\"busy_us\":%lld,\"util_pct\":%.4f,"
                     "\"completed\":%llu,\"lost\":%llu,\"open\":%llu}",
                     static_cast<long long>(usage.busy.micros()), pct,
                     static_cast<unsigned long long>(usage.completed),
                     static_cast<unsigned long long>(usage.lost),
                     static_cast<unsigned long long>(usage.open));
  }
  out += "]";
  out += StrFormat(",\"spans_dropped\":%llu}",
                   static_cast<unsigned long long>(obs.spans.dropped()));
  return out;
}

}  // namespace biopera::obs
