#include "obs/span.h"

#include <algorithm>
#include <iterator>
#include <unordered_map>

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

// The Chrome track a span renders on: its node's, its instance's, or
// one of the shared tracks, which come first and are named in
// kSharedTracks.
enum Track {
  kStoreTrack,
  kServerTrack,
  kFrontDoorTrack,
  kBarriersTrack,
  kHealthTrack,
  kOtherTrack,
  kNodeTrack,
  kInstanceTrack,
};
constexpr std::string_view kSharedTracks[] = {
    "store", "server", "front door", "barriers", "health", "other"};

Track TrackOf(SpanKind kind) {
  switch (kind) {
    case SpanKind::kJob:
    case SpanKind::kNodeOutage:
    case SpanKind::kSuspicion:
      return kNodeTrack;
    case SpanKind::kCommitBatch:
    case SpanKind::kCheckpoint:
    case SpanKind::kStoreDegraded:
      return kStoreTrack;
    case SpanKind::kServerDown:
      return kServerTrack;
    case SpanKind::kAdmission:
      return kFrontDoorTrack;
    case SpanKind::kBarrier:
      return kBarriersTrack;
    case SpanKind::kSloTransition:
      return kHealthTrack;
    case SpanKind::kInstance:
    case SpanKind::kAttempt:
    case SpanKind::kRecovery:
      return kInstanceTrack;
  }
  return kOtherTrack;
}

/// Appends `,"<key>":"<value>"` for a numeric id written as a string,
/// the Chrome exporters' args form.
void AppendQuotedId(std::string* out, std::string_view key, uint64_t id) {
  *out += ",\"";
  *out += key;
  *out += "\":\"";
  AppendInt(out, id);
  *out += '"';
}

}  // namespace

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
  std::string out;
  AppendSpanJson(&out, *this, id, parent, link);
  return out;
}

void AppendSpanJson(std::string* out, const Span& span, uint64_t id,
                    uint64_t parent, uint64_t link, std::string_view shard) {
  *out += "{\"id\":";
  AppendInt(out, id);
  *out += ",\"kind\":\"";
  *out += SpanKindName(span.kind);
  *out += "\",\"start_us\":";
  AppendInt(out, span.start.micros());
  if (span.open) {
    *out += ",\"open\":true";
  } else {
    *out += ",\"end_us\":";
    AppendInt(out, span.end.micros());
    *out += ",\"dur_us\":";
    AppendInt(out, (span.end - span.start).micros());
  }
  if (parent != 0) {
    *out += ",\"parent\":";
    AppendInt(out, parent);
  }
  if (link != 0) {
    *out += ",\"link\":";
    AppendInt(out, link);
  }
  if (!span.name.empty()) AppendJsonMember(out, "name", span.name);
  if (!span.instance.empty()) AppendJsonMember(out, "instance", span.instance);
  if (!span.task.empty()) AppendJsonMember(out, "task", span.task);
  if (!span.node.empty()) AppendJsonMember(out, "node", span.node);
  if (!span.outcome.empty()) AppendJsonMember(out, "outcome", span.outcome);
  if (!shard.empty()) AppendJsonMember(out, "shard", shard);
  for (const auto& [key, value] : span.attrs) {
    AppendJsonMember(out, key, value);
  }
  *out += '}';
}

ChromeTracks LayoutChromeTracks(const SpanSink& sink) {
  ChromeTracks layout;
  layout.tids.reserve(sink.size());
  // Keyed by views into the sink's spans; a track's name is built once,
  // when the track first appears.
  std::unordered_map<std::string_view, int> node_tids, instance_tids;
  int shared_tids[std::size(kSharedTracks)] = {};
  sink.ForEach([&](const Span& span) {
    const Track track = TrackOf(span.kind);
    int& tid = track == kNodeTrack       ? node_tids[span.node]
               : track == kInstanceTrack ? instance_tids[span.instance]
                                         : shared_tids[track];
    if (tid == 0) {
      if (track == kNodeTrack) {
        layout.names.push_back("node " + span.node);
      } else if (track == kInstanceTrack) {
        layout.names.push_back("instance " + span.instance);
      } else {
        layout.names.emplace_back(kSharedTracks[track]);
      }
      tid = static_cast<int>(layout.names.size());
    }
    layout.tids.push_back(tid);
  });
  return layout;
}

void AppendChromeEventHead(std::string* out, const Span& span, int pid,
                           int tid, uint64_t id) {
  const int64_t dur = span.open ? 0 : (span.end - span.start).micros();
  *out += "{\"name\":\"";
  AppendJsonEscaped(out, span.name);
  *out += "\",\"cat\":\"";
  *out += SpanKindName(span.kind);
  *out += "\",\"ph\":\"X\",\"ts\":";
  AppendInt(out, span.start.micros());
  *out += ",\"dur\":";
  AppendInt(out, std::max<int64_t>(0, dur));
  *out += ",\"pid\":";
  AppendInt(out, pid);
  *out += ",\"tid\":";
  AppendInt(out, tid);
  *out += ",\"args\":{\"id\":\"";
  AppendInt(out, id);
  *out += '"';
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
    out += "{\"truncated\":true,\"spans_dropped\":";
    AppendInt(&out, dropped_);
    out += "}\n";
  }
  for (const Span& span : spans_) {
    AppendSpanJson(&out, span, span.id, span.parent, span.link);
    out += '\n';
  }
  return out;
}

std::string SpanSink::ExportChromeTrace() const {
  const ChromeTracks tracks = LayoutChromeTracks(*this);
  std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < tracks.names.size(); ++i) {
    out += i == 0 ? "\n" : ",\n";
    out += "{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":";
    AppendInt(&out, i + 1);
    out += ",\"args\":{\"name\":\"";
    AppendJsonEscaped(&out, tracks.names[i]);
    out += "\"}},\n{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":";
    AppendInt(&out, i + 1);
    out += ",\"args\":{\"sort_index\":";
    AppendInt(&out, i + 1);
    out += "}}";
  }
  // Every span has a track, so its event always follows another.
  for (const Span& span : spans_) {
    out += ",\n";
    AppendChromeEventHead(&out, span, 1, tracks.tids[span.id - 1], span.id);
    if (span.parent != 0) AppendQuotedId(&out, "parent", span.parent);
    if (span.link != 0) AppendQuotedId(&out, "link", span.link);
    if (!span.instance.empty()) {
      AppendJsonMember(&out, "instance", span.instance);
    }
    if (!span.task.empty()) AppendJsonMember(&out, "task", span.task);
    if (!span.outcome.empty()) AppendJsonMember(&out, "outcome", span.outcome);
    if (span.open) out += ",\"open\":\"true\"";
    for (const auto& [key, value] : span.attrs) {
      AppendJsonMember(&out, key, value);
    }
    out += "}}";
  }
  out += "\n]";
  if (truncated()) {
    out += ",\"otherData\":{\"truncated\":\"true\",\"spans_dropped\":\"";
    AppendInt(&out, dropped_);
    out += "\"}";
  }
  out += "}\n";
  return out;
}

void SpanSink::Clear() {
  spans_.clear();
  dropped_ = 0;
}

}  // namespace biopera::obs
