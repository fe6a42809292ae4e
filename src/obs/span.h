#ifndef BIOPERA_OBS_SPAN_H_
#define BIOPERA_OBS_SPAN_H_

#include <cstdint>
#include <functional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/time.h"

namespace biopera::obs {

/// What a span measures. Instance / attempt / job spans form the causal
/// tree of one process run (attempt→instance, job→attempt, and a retry
/// links back to the attempt it replaces); the remaining kinds are
/// overlay windows, store activity and point events (zero-duration
/// instants) used to classify waiting time and explain the run.
enum class SpanKind {
  kInstance,       // whole process instance: start -> done
  kAttempt,        // one task attempt: ready-queue entry -> terminal outcome
  kJob,            // the execution slice of an attempt on a node
  kRecovery,       // one recovery replay of an instance
  kCommitBatch,    // one flushed store commit group
  kCheckpoint,     // one store checkpoint
  kServerDown,     // server crash -> next startup (instant when fenced)
  kStoreDegraded,  // store degraded window (failed flush -> healthy retry)
  kNodeOutage,     // one node's down -> up window
  kSuspicion,      // lease detector: node suspected -> reconciled/condemned
  kAdmission,      // service front door: submission -> admitted/rejected
  kBarrier,        // one lockstep barrier of the sharded service
  kSloTransition,  // instant: a fleet SLO rule changed health state
};

std::string_view SpanKindName(SpanKind kind);
/// Inverse of SpanKindName: true and sets `*kind` for a known name.
bool SpanKindFromName(std::string_view name, SpanKind* kind);

/// One interval on the causal timeline, stamped in virtual time. The id
/// fields are 0 when not applicable; `attrs` carries span-specific detail
/// in insertion order (kept as a vector so exports stay byte-stable).
struct Span {
  uint64_t id = 0;      // 1-based; 0 means "no span"
  uint64_t parent = 0;  // enclosing span (attempt->instance, job->attempt)
  uint64_t link = 0;    // causal predecessor (retry -> the attempt it replaces)
  SpanKind kind = SpanKind::kInstance;
  TimePoint start;
  TimePoint end;
  bool open = true;
  std::string name;  // task path / instance id / node name
  std::string instance;
  std::string task;
  std::string node;
  std::string outcome;  // terminal outcome ("completed", "failed", ...)
  std::vector<std::pair<std::string, std::string>> attrs;

  Duration duration() const { return end - start; }
  /// Single-line JSON object (one JSONL row).
  std::string ToJson() const;
};

/// Bounded append-only span store. Ids are sequential and dense (span k
/// lives at index k-1), so lookups are O(1); once `capacity` spans have
/// been started, further Begin() calls are counted in `dropped()` and
/// return id 0 — End()/Annotate() on id 0 are no-ops, so instrumentation
/// never has to branch on a full sink.
class SpanSink {
 public:
  explicit SpanSink(size_t capacity = 1 << 20);
  SpanSink(const SpanSink&) = delete;
  SpanSink& operator=(const SpanSink&) = delete;

  /// Spans are stamped with `clock->Now()` (virtual time when the clock
  /// is a Simulator); TimePoint::Zero() until a clock is registered.
  void SetClock(const Clock* clock) { clock_ = clock; }
  bool has_clock() const { return clock_ != nullptr; }
  TimePoint Now() const;

  /// Opens a span at the current time; returns its id (0 if dropped).
  uint64_t Begin(SpanKind kind, std::string name, uint64_t parent = 0,
                 uint64_t link = 0, std::string instance = "",
                 std::string task = "", std::string node = "",
                 std::vector<std::pair<std::string, std::string>> attrs = {});

  /// Closes an open span at the current time, recording its outcome and
  /// appending any extra attributes. No-op for id 0 or already-closed
  /// spans.
  void End(uint64_t id, std::string outcome = "",
           std::vector<std::pair<std::string, std::string>> attrs = {});

  /// Appends one attribute to a live span (no-op for id 0).
  void Annotate(uint64_t id, std::string key, std::string value);

  /// A zero-duration span opened and closed at the current time (store
  /// commit batches, checkpoints). Returns its id (0 if dropped).
  uint64_t EmitInstant(
      SpanKind kind, std::string name, uint64_t parent = 0,
      std::string instance = "", std::string task = "", std::string node = "",
      std::vector<std::pair<std::string, std::string>> attrs = {},
      std::string outcome = "done");

  /// nullptr for id 0 / unknown ids.
  const Span* Find(uint64_t id) const;

  /// Most recently started span of `kind` that is still open and matches
  /// the given instance and node ("" matches any value); 0 if none. Used
  /// to reattach long-lived spans (instance, server-down) after an engine
  /// crash discarded the in-memory handle.
  uint64_t FindOpen(SpanKind kind, std::string_view instance,
                    std::string_view node = "") const;

  size_t size() const { return spans_.size(); }
  size_t capacity() const { return capacity_; }
  /// Spans started since construction (including dropped ones).
  uint64_t total_started() const { return spans_.size() + dropped_; }
  /// Spans lost because the sink reached capacity.
  uint64_t dropped() const { return dropped_; }
  bool truncated() const { return dropped_ > 0; }

  /// Visits stored spans in id order.
  void ForEach(const std::function<void(const Span&)>& fn) const;
  /// The most recent `n` spans (oldest of those first), optionally
  /// filtered by instance id and/or span kind name ("" matches all) —
  /// the console's `SPANS <id|*> [n] [kind]` filters.
  std::vector<Span> Tail(size_t n, const std::string& instance = "",
                         const std::string& kind = "") const;

  /// One JSON object per line, id order. When spans were dropped, the
  /// first line is a truncation marker.
  std::string ExportJsonl() const;

  /// The whole span store as a `chrome://tracing` / Perfetto JSON
  /// document: one complete ("X") event per span on deterministic
  /// per-track tids, with thread-name metadata first. When spans were
  /// dropped, `otherData.truncated` records it.
  std::string ExportChromeTrace() const;

  void Clear();

 private:
  const Clock* clock_ = nullptr;
  size_t capacity_;
  std::vector<Span> spans_;
  uint64_t dropped_ = 0;
};

// --- Export building blocks, shared by the per-sink exporters above and
// the fleet federation (obs/fleet.h). Each appends to one output buffer.

/// Appends the JSONL row of `span` (no newline) under the given ids —
/// the span's own, or fleet-global ones. A non-empty `shard` is written
/// as a leading `"shard"` attribute, ahead of the span's own.
void AppendSpanJson(std::string* out, const Span& span, uint64_t id,
                    uint64_t parent, uint64_t link,
                    std::string_view shard = {});

/// The Chrome-trace track layout of one sink. Execution slices render on
/// their node's track, causal spans on their instance's, store and server
/// windows on shared tracks; tids are 1-based and assigned by first
/// appearance in id order, so the layout is deterministic.
struct ChromeTracks {
  std::vector<std::string> names;  // track name of tid k at names[k - 1]
  std::vector<int> tids;           // tid of span id k at tids[k - 1]
};
ChromeTracks LayoutChromeTracks(const SpanSink& sink);

/// Appends the head of the complete ("X") event of `span` on (`pid`,
/// `tid`), through `"args":{"id":"<id>"`; the caller adds the remaining
/// args and closes the event with `}}`.
void AppendChromeEventHead(std::string* out, const Span& span, int pid,
                           int tid, uint64_t id);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_SPAN_H_
