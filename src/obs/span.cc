#include "obs/span.h"

#include <algorithm>
#include <map>

#include "common/strings.h"
#include "obs/json.h"

namespace biopera::obs {

namespace {

constexpr struct {
  SpanKind kind;
  std::string_view name;
} kSpanKindNames[] = {
    {SpanKind::kInstance, "instance"},
    {SpanKind::kAttempt, "attempt"},
    {SpanKind::kJob, "job"},
    {SpanKind::kRecovery, "recovery"},
    {SpanKind::kCommitBatch, "commit_batch"},
    {SpanKind::kCheckpoint, "checkpoint"},
    {SpanKind::kServerDown, "server_down"},
    {SpanKind::kStoreDegraded, "store_degraded"},
    {SpanKind::kNodeOutage, "node_outage"},
    {SpanKind::kSuspicion, "suspicion"},
    {SpanKind::kAdmission, "admission"},
    {SpanKind::kBarrier, "barrier"},
    {SpanKind::kSloTransition, "slo_transition"},
};

}  // namespace

std::string ChromeTrackForSpan(const Span& span) {
  switch (span.kind) {
    case SpanKind::kJob:
    case SpanKind::kNodeOutage:
    case SpanKind::kSuspicion:
      return "node " + span.node;
    case SpanKind::kCommitBatch:
    case SpanKind::kCheckpoint:
    case SpanKind::kStoreDegraded:
      return "store";
    case SpanKind::kServerDown:
      return "server";
    case SpanKind::kAdmission:
      return "front door";
    case SpanKind::kBarrier:
      return "barriers";
    case SpanKind::kSloTransition:
      return "health";
    case SpanKind::kInstance:
    case SpanKind::kAttempt:
    case SpanKind::kRecovery:
      return "instance " + span.instance;
  }
  return "other";
}

std::string_view SpanKindName(SpanKind kind) {
  for (const auto& entry : kSpanKindNames) {
    if (entry.kind == kind) return entry.name;
  }
  return "unknown";
}

bool SpanKindFromName(std::string_view name, SpanKind* kind) {
  for (const auto& entry : kSpanKindNames) {
    if (entry.name == name) {
      *kind = entry.kind;
      return true;
    }
  }
  return false;
}

std::string Span::ToJson() const {
  std::string out = StrFormat(
      "{\"id\":%llu,\"kind\":\"%s\",\"start_us\":%lld",
      static_cast<unsigned long long>(id),
      std::string(SpanKindName(kind)).c_str(),
      static_cast<long long>(start.micros()));
  if (open) {
    out += ",\"open\":true";
  } else {
    out += StrFormat(",\"end_us\":%lld,\"dur_us\":%lld",
                     static_cast<long long>(end.micros()),
                     static_cast<long long>((end - start).micros()));
  }
  if (parent != 0) {
    out += StrFormat(",\"parent\":%llu",
                     static_cast<unsigned long long>(parent));
  }
  if (link != 0) {
    out += StrFormat(",\"link\":%llu", static_cast<unsigned long long>(link));
  }
  if (!name.empty()) out += ",\"name\":\"" + JsonEscape(name) + "\"";
  if (!instance.empty()) {
    out += ",\"instance\":\"" + JsonEscape(instance) + "\"";
  }
  if (!task.empty()) out += ",\"task\":\"" + JsonEscape(task) + "\"";
  if (!node.empty()) out += ",\"node\":\"" + JsonEscape(node) + "\"";
  if (!outcome.empty()) out += ",\"outcome\":\"" + JsonEscape(outcome) + "\"";
  for (const auto& [key, value] : attrs) {
    out += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
  }
  out += "}";
  return out;
}

SpanSink::SpanSink(size_t capacity) : capacity_(std::max<size_t>(1, capacity)) {}

TimePoint SpanSink::Now() const {
  return clock_ != nullptr ? clock_->Now() : TimePoint::Zero();
}

uint64_t SpanSink::Begin(
    SpanKind kind, std::string name, uint64_t parent, uint64_t link,
    std::string instance, std::string task, std::string node,
    std::vector<std::pair<std::string, std::string>> attrs) {
  if (spans_.size() >= capacity_) {
    ++dropped_;
    return 0;
  }
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.link = link;
  span.kind = kind;
  span.start = Now();
  span.end = span.start;
  span.name = std::move(name);
  span.instance = std::move(instance);
  span.task = std::move(task);
  span.node = std::move(node);
  span.attrs = std::move(attrs);
  spans_.push_back(std::move(span));
  return spans_.back().id;
}

void SpanSink::End(uint64_t id, std::string outcome,
                   std::vector<std::pair<std::string, std::string>> attrs) {
  if (id == 0 || id > spans_.size()) return;
  Span& span = spans_[id - 1];
  if (!span.open) return;
  span.open = false;
  span.end = Now();
  span.outcome = std::move(outcome);
  for (auto& attr : attrs) span.attrs.push_back(std::move(attr));
}

void SpanSink::Annotate(uint64_t id, std::string key, std::string value) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].attrs.emplace_back(std::move(key), std::move(value));
}

uint64_t SpanSink::EmitInstant(
    SpanKind kind, std::string name, uint64_t parent, std::string instance,
    std::string task, std::string node,
    std::vector<std::pair<std::string, std::string>> attrs,
    std::string outcome) {
  uint64_t id = Begin(kind, std::move(name), parent, 0, std::move(instance),
                      std::move(task), std::move(node), std::move(attrs));
  End(id, std::move(outcome));
  return id;
}

const Span* SpanSink::Find(uint64_t id) const {
  if (id == 0 || id > spans_.size()) return nullptr;
  return &spans_[id - 1];
}

uint64_t SpanSink::FindOpen(SpanKind kind, std::string_view instance,
                            std::string_view node) const {
  for (size_t i = spans_.size(); i > 0; --i) {
    const Span& span = spans_[i - 1];
    if (span.kind != kind || !span.open) continue;
    if (!instance.empty() && span.instance != instance) continue;
    if (!node.empty() && span.node != node) continue;
    return span.id;
  }
  return 0;
}

void SpanSink::ForEach(const std::function<void(const Span&)>& fn) const {
  for (const Span& span : spans_) fn(span);
}

std::vector<Span> SpanSink::Tail(size_t n, const std::string& instance,
                                 const std::string& kind) const {
  SpanKind want = SpanKind::kInstance;
  const bool filter_kind = !kind.empty() && SpanKindFromName(kind, &want);
  std::vector<Span> matched;
  for (const Span& span : spans_) {
    if (!instance.empty() && span.instance != instance) continue;
    if (filter_kind && span.kind != want) continue;
    matched.push_back(span);
  }
  if (matched.size() > n) {
    matched.erase(matched.begin(),
                  matched.begin() + static_cast<long>(matched.size() - n));
  }
  return matched;
}

std::string SpanSink::ExportJsonl() const {
  std::string out;
  if (truncated()) {
    out += StrFormat("{\"truncated\":true,\"spans_dropped\":%llu}\n",
                     static_cast<unsigned long long>(dropped_));
  }
  for (const Span& span : spans_) {
    out += span.ToJson();
    out += "\n";
  }
  return out;
}

std::string SpanSink::ExportChromeTrace() const {
  // Assign tids by first appearance in id order: deterministic across
  // same-seed runs.
  std::map<std::string, int> track_tids;
  std::vector<std::string> tracks;
  for (const Span& span : spans_) {
    std::string track = ChromeTrackForSpan(span);
    if (track_tids.emplace(track, static_cast<int>(tracks.size()) + 1).second) {
      tracks.push_back(std::move(track));
    }
  }

  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  auto append = [&](const std::string& event) {
    if (!first) out += ",";
    first = false;
    out += "\n";
    out += event;
  };
  for (size_t i = 0; i < tracks.size(); ++i) {
    append(StrFormat(
        "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"name\":\"%s\"}}",
        static_cast<int>(i) + 1, JsonEscape(tracks[i]).c_str()));
    append(StrFormat(
        "{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":%d,"
        "\"args\":{\"sort_index\":%d}}",
        static_cast<int>(i) + 1, static_cast<int>(i) + 1));
  }
  for (const Span& span : spans_) {
    int64_t dur = span.open ? 0 : (span.end - span.start).micros();
    std::string event = StrFormat(
        "{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%lld,"
        "\"dur\":%lld,\"pid\":1,\"tid\":%d,\"args\":{\"id\":\"%llu\"",
        JsonEscape(span.name).c_str(),
        std::string(SpanKindName(span.kind)).c_str(),
        static_cast<long long>(span.start.micros()),
        static_cast<long long>(std::max<int64_t>(0, dur)),
        track_tids[ChromeTrackForSpan(span)],
        static_cast<unsigned long long>(span.id));
    if (span.parent != 0) {
      event += StrFormat(",\"parent\":\"%llu\"",
                         static_cast<unsigned long long>(span.parent));
    }
    if (span.link != 0) {
      event += StrFormat(",\"link\":\"%llu\"",
                         static_cast<unsigned long long>(span.link));
    }
    if (!span.instance.empty()) {
      event += ",\"instance\":\"" + JsonEscape(span.instance) + "\"";
    }
    if (!span.task.empty()) {
      event += ",\"task\":\"" + JsonEscape(span.task) + "\"";
    }
    if (!span.outcome.empty()) {
      event += ",\"outcome\":\"" + JsonEscape(span.outcome) + "\"";
    }
    if (span.open) event += ",\"open\":\"true\"";
    for (const auto& [key, value] : span.attrs) {
      event += ",\"" + JsonEscape(key) + "\":\"" + JsonEscape(value) + "\"";
    }
    event += "}}";
    append(event);
  }
  out += "\n]";
  if (truncated()) {
    out += StrFormat(
        ",\"otherData\":{\"truncated\":\"true\",\"spans_dropped\":\"%llu\"}",
        static_cast<unsigned long long>(dropped_));
  }
  out += "}\n";
  return out;
}

void SpanSink::Clear() {
  spans_.clear();
  dropped_ = 0;
}

}  // namespace biopera::obs
