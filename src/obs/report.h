#ifndef BIOPERA_OBS_REPORT_H_
#define BIOPERA_OBS_REPORT_H_

#include <cstdint>
#include <string>

#include "common/time.h"
#include "obs/trace.h"

namespace biopera::obs {

/// Engine-side facts the report needs but the observability layer cannot
/// derive on its own: instance lifecycle state and the planner's
/// remaining-work estimate (the ETA numerator).
struct ReportInput {
  std::string instance;
  std::string state;             // "running", "done", "failed", ...
  uint64_t activities_done = 0;  // completed leaf activities
  uint64_t activities_total = 0;
  /// Remaining reference-CPU seconds of work, from the planner's
  /// per-activity cost model (0 when done or unknown).
  double remaining_work_seconds = 0;
  TimePoint now;
};

/// The console's `REPORT` view: progress %, an ETA from the planner's
/// remaining-work estimate divided by the run's historical effective
/// compute rate, the critical-path breakdown with its `top_k` longest
/// segments, and a per-node utilization table in the spirit of the
/// paper's Table 1, read from the span timeline (obs/timeline.h). Ends
/// with a truncation warning when the span sink dropped spans.
std::string BuildRunReport(const ReportInput& input, const Observability& obs,
                           size_t top_k = 5);

/// `REPORT <id> --json`: the same numbers as BuildRunReport as one JSON
/// object (single line), so CI can trend ETA / utilization /
/// critical-path figures across runs without scraping the text view.
std::string BuildRunReportJson(const ReportInput& input,
                               const Observability& obs, size_t top_k = 5);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_REPORT_H_
