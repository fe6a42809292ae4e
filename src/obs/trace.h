#ifndef BIOPERA_OBS_TRACE_H_
#define BIOPERA_OBS_TRACE_H_

#include "common/time.h"
#include "obs/metrics.h"
#include "obs/span.h"

namespace biopera::obs {

/// The observability context one experiment shares across its engine,
/// cluster model, store and monitors: a metric registry and a span sink,
/// stamped from the same (virtual) clock. The span log is the one event
/// record; timelines, utilization and reports are views over it.
///
/// An aggregate, so a sized sink is spelled out —
/// `Observability{.spans = SpanSink(capacity)}` — and a bare number can
/// never silently become a capacity.
struct Observability {
  Registry metrics;
  SpanSink spans;

  void SetClock(const Clock* clock) { spans.SetClock(clock); }
};

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_TRACE_H_
