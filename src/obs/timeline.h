#ifndef BIOPERA_OBS_TIMELINE_H_
#define BIOPERA_OBS_TIMELINE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/span.h"

namespace biopera::obs {

/// One bar of a per-node Gantt chart: a task occupying a node from
/// dispatch until its terminal report (the paper's Figure 3 task view).
struct TimelineInterval {
  std::string node;
  std::string instance;
  std::string task;
  TimePoint start;
  TimePoint end;
  /// The job span's outcome: "completed", "failed", "timed_out",
  /// "migrated", "condemned", "killed" (server crash, RESTART, ABORT,
  /// INVALIDATE), or "open" (still running when the sink was read).
  std::string outcome;
};

/// Projects the sink's job spans into execution intervals, one per span.
/// Open jobs extend to the latest timestamp the sink has seen. `node`
/// filters to one node ("" keeps all). Intervals are ordered by start
/// time, then node (dispatch order within a tie).
std::vector<TimelineInterval> BuildTimeline(const SpanSink& spans,
                                            const std::string& node = "");

/// CSV rendering: header + one row per interval. A nonzero
/// `dropped_spans` (the source sink's `dropped()`) adds a truncation
/// comment after the header, marking that later intervals are missing.
std::string TimelineCsv(const std::vector<TimelineInterval>& intervals,
                        uint64_t dropped_spans = 0);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_TIMELINE_H_
