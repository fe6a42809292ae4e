#ifndef BIOPERA_OBS_FLEET_H_
#define BIOPERA_OBS_FLEET_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/time.h"
#include "obs/critical_path.h"
#include "obs/span.h"

namespace biopera::obs {

/// Cross-shard span federation (docs/OBSERVABILITY.md): the sharded
/// service keeps one span sink per engine shard plus a front-door sink of
/// its own; federation merges them into a single fleet timeline without
/// touching the per-shard sinks (whose exports stay the byte-identity
/// ground truth).

/// Stable fleet-global span id. Per-sink ids are dense and 1-based, so
/// packing (shard, local id) keeps ids stable across re-federation and
/// across runs: shard -1 (the service front door) gets prefix 0, shard k
/// prefix k+1. Local ids stay below 2^40 (sink capacity is ~2^20).
uint64_t FleetSpanId(int shard, uint64_t local_id);

/// One source sink of a federation.
struct FleetSource {
  int shard = -1;  // -1 = the service front door
  const SpanSink* spans = nullptr;
};

/// The sources merged into one fleet timeline, as JSONL: ids, parents and
/// links are rewritten to fleet-global ids (parents/links are intra-sink,
/// so they stay consistent), every row gains a leading `shard` attribute,
/// and rows are ordered by (start time, global id) — deterministic for
/// same-seed runs. When any source sink dropped spans, the first line is
/// a truncation marker with the fleet-wide total.
std::string FederateSpansJsonl(const std::vector<FleetSource>& sources);

/// The federated timeline as one Chrome/Perfetto document: one process
/// per source (pid 1 = front door, pid k+2 = shard k) with the source's
/// own deterministic track layout inside.
std::string FederateChromeTrace(const std::vector<FleetSource>& sources);

/// Generic JSONL fan-in for per-shard line exports (lineage, traces):
/// each non-empty line gains a leading `"shard":<k>` field; sources are
/// concatenated in the order given, preserving each source's internal
/// line order.
std::string MergeJsonlByShard(
    const std::vector<std::pair<int, std::string>>& sources);

/// Input to the fleet critical path of one instance: its shard-local
/// spans plus what only the front door knows — when the submission
/// arrived and the lockstep barrier boundaries that gate admission.
struct FleetPathInput {
  const SpanSink* shard_spans = nullptr;
  int shard = 0;
  std::string instance;  // engine-local instance id
  TimePoint submitted;   // front-door Submit() time
  /// Virtual end time of every lockstep barrier so far, ascending.
  std::vector<TimePoint> barriers;
};

/// Runs the per-shard critical-path analyzer, then extends the report
/// back to submission time with the waits only the fleet can attribute:
/// [submitted, first barrier boundary after it] is `barrier_wait` (a
/// backlogged submission cannot even be considered until the next
/// lockstep barrier drains the backlog) and [that boundary, admission]
/// is `backlog_wait` (admission quotas held it). The segments still tile
/// [submitted, end] exactly — the fleet path inherits the per-instance
/// invariant.
CriticalPathReport AnalyzeFleetCriticalPath(const FleetPathInput& input);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_FLEET_H_
