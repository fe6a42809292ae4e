#include "obs/fleet.h"

#include <algorithm>

#include "common/strings.h"
#include "obs/json.h"

namespace biopera::obs {

uint64_t FleetSpanId(int shard, uint64_t local_id) {
  if (local_id == 0) return 0;  // "no span" stays "no span"
  return (static_cast<uint64_t>(shard + 1) << 40) | local_id;
}

std::string FederateSpansJsonl(const std::vector<FleetSource>& sources) {
  // One small key per span, sorted by (start, fleet id). A sort, not a
  // merge of the sinks: a sink's start times can go backwards in id
  // order once a successor engine stamps it with its own clock.
  struct Row {
    int64_t start_us;
    uint64_t fleet_id;
    const Span* span;
    size_t source;  // index into `sources`
  };
  std::vector<Row> rows;
  std::vector<std::string> labels;  // each source's `shard` attribute
  size_t total = 0;
  uint64_t dropped = 0;
  for (const FleetSource& source : sources) {
    labels.push_back(source.shard < 0 ? "front"
                                      : std::to_string(source.shard));
    if (source.spans == nullptr) continue;
    total += source.spans->size();
    dropped += source.spans->dropped();
  }
  rows.reserve(total);
  for (size_t i = 0; i < sources.size(); ++i) {
    if (sources[i].spans == nullptr) continue;
    const int shard = sources[i].shard;
    sources[i].spans->ForEach([&](const Span& span) {
      rows.push_back(
          {span.start.micros(), FleetSpanId(shard, span.id), &span, i});
    });
  }
  std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
    if (a.start_us != b.start_us) return a.start_us < b.start_us;
    return a.fleet_id < b.fleet_id;
  });

  std::string out;
  if (dropped > 0) {
    out += "{\"truncated\":true,\"spans_dropped\":";
    AppendInt(&out, dropped);
    out += "}\n";
  }
  for (const Row& row : rows) {
    const int shard = sources[row.source].shard;
    AppendSpanJson(&out, *row.span, row.fleet_id,
                   FleetSpanId(shard, row.span->parent),
                   FleetSpanId(shard, row.span->link), labels[row.source]);
    out += '\n';
  }
  return out;
}

std::string FederateChromeTrace(const std::vector<FleetSource>& sources) {
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto next_event = [&] {
    out += first ? "\n" : ",\n";
    first = false;
  };

  uint64_t dropped = 0;
  for (const FleetSource& source : sources) {
    if (source.spans == nullptr) continue;
    dropped += source.spans->dropped();
    const int pid = source.shard + 2;  // front door (-1) renders as pid 1
    next_event();
    out += "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":";
    AppendInt(&out, pid);
    out += ",\"args\":{\"name\":\"";
    if (source.shard < 0) {
      out += "front door";
    } else {
      out += "shard ";
      AppendInt(&out, source.shard);
    }
    out += "\"}}";
    next_event();
    out += "{\"name\":\"process_sort_index\",\"ph\":\"M\",\"pid\":";
    AppendInt(&out, pid);
    out += ",\"args\":{\"sort_index\":";
    AppendInt(&out, pid);
    out += "}}";

    // The source's own track layout, as in its single-sink export, so the
    // federated document is deterministic whenever the per-shard sinks are.
    const ChromeTracks tracks = LayoutChromeTracks(*source.spans);
    for (size_t i = 0; i < tracks.names.size(); ++i) {
      next_event();
      out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":";
      AppendInt(&out, pid);
      out += ",\"tid\":";
      AppendInt(&out, i + 1);
      out += ",\"args\":{\"name\":\"";
      AppendJsonEscaped(&out, tracks.names[i]);
      out += "\"}}";
    }
    source.spans->ForEach([&](const Span& span) {
      next_event();
      AppendChromeEventHead(&out, span, pid, tracks.tids[span.id - 1],
                            FleetSpanId(source.shard, span.id));
      if (span.parent != 0) {
        out += ",\"parent\":\"";
        AppendInt(&out, FleetSpanId(source.shard, span.parent));
        out += '"';
      }
      if (!span.instance.empty()) {
        AppendJsonMember(&out, "instance", span.instance);
      }
      if (!span.outcome.empty()) {
        AppendJsonMember(&out, "outcome", span.outcome);
      }
      if (span.open) out += ",\"open\":\"true\"";
      out += "}}";
    });
  }
  out += "\n]";
  if (dropped > 0) {
    out += ",\"otherData\":{\"truncated\":\"true\",\"spans_dropped\":\"";
    AppendInt(&out, dropped);
    out += "\"}";
  }
  out += "}\n";
  return out;
}

std::string MergeJsonlByShard(
    const std::vector<std::pair<int, std::string>>& sources) {
  std::string out;
  for (const auto& [shard, jsonl] : sources) {
    const std::string prefix =
        StrFormat("{\"shard\":%d,", shard);
    size_t at = 0;
    while (at < jsonl.size()) {
      size_t end = jsonl.find('\n', at);
      if (end == std::string::npos) end = jsonl.size();
      if (end > at) {
        std::string_view line(jsonl.data() + at, end - at);
        if (line.size() >= 2 && line.front() == '{') {
          out += prefix;
          out += line.substr(1);
        } else {
          out += line;  // tolerate non-object lines verbatim
        }
        out += "\n";
      }
      at = end + 1;
    }
  }
  return out;
}

CriticalPathReport AnalyzeFleetCriticalPath(const FleetPathInput& input) {
  CriticalPathReport report =
      input.shard_spans == nullptr
          ? CriticalPathReport{}
          : AnalyzeCriticalPath(*input.shard_spans, input.instance);
  if (!report.found) return report;
  const TimePoint admitted = report.start;  // instance span opens at admit
  if (input.submitted >= admitted) return report;

  // The first lockstep barrier boundary after submission is the earliest
  // instant the backlog could have been drained; everything before it is
  // structural barrier wait, everything after is quota-induced backlog
  // wait. A submission admitted with no boundary in between waited only
  // on the barrier.
  TimePoint boundary = admitted;
  for (const TimePoint& t : input.barriers) {
    if (t > input.submitted) {
      boundary = std::min(t, admitted);
      break;
    }
  }
  std::vector<CriticalPathSegment> prefix;
  if (boundary > input.submitted) {
    CriticalPathSegment seg;
    seg.start = input.submitted;
    seg.end = boundary;
    seg.category = "barrier_wait";
    prefix.push_back(std::move(seg));
  }
  if (admitted > boundary) {
    CriticalPathSegment seg;
    seg.start = boundary;
    seg.end = admitted;
    seg.category = "backlog_wait";
    prefix.push_back(std::move(seg));
  }
  for (const CriticalPathSegment& seg : prefix) {
    report.totals[seg.category] =
        report.totals[seg.category] + (seg.end - seg.start);
  }
  report.segments.insert(report.segments.begin(), prefix.begin(),
                         prefix.end());
  report.start = input.submitted;
  return report;
}

}  // namespace biopera::obs
