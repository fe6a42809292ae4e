// Timing helpers shared by every workload of the benchmark driver: how a
// list of timings is reported (median plus the highest percentile that
// still has ten samples beyond it), and how span self times are computed
// from nested spans that may live on several threads.
#ifndef PERFBENCH_TIMING_H_
#define PERFBENCH_TIMING_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic wall clock (std::chrono::steady_clock).
uint64_t NowNs();
double NowSeconds();

/// Highest whole percentile p <= `max_percentile` that leaves at least
/// `min_beyond` of `n` samples strictly above its nearest-rank position:
/// n * (100 - p) / 100 >= min_beyond. 100 samples give 90, 50 give 80.
/// Returns 0 when not even the median qualifies (fewer than 20 samples).
int HighestSupportedPercentile(size_t n, int max_percentile = 99,
                               size_t min_beyond = 10);

/// Nearest-rank percentile (the value at rank ceil(p/100 * n), 1-based).
/// 0 for an empty list.
double Percentile(std::vector<double> samples, double p);

/// A timing as the benchmark reports it: the median, the highest
/// percentile with at least ten samples beyond it, and the sample count.
struct TimingSummary {
  size_t count = 0;
  double median = 0;
  int tail_percentile = 0;  // 0 when count < 20 (no supported tail)
  double tail = 0;

  /// "p50 1.234 ms, p90 2.345 ms (n=100)".
  std::string ToText(const std::string& unit) const;
};
TimingSummary Summarize(const std::vector<double>& samples,
                        int max_percentile = 99);

/// The value reported under a metric named for percentile `wanted`: the
/// wanted percentile when the samples support it, else the highest one
/// they do support (never below the median). `*used` receives the
/// percentile actually taken.
double TailAt(const std::vector<double>& samples, int wanted,
              int* used = nullptr);

/// One closed span as the self-time computation sees it.
struct SpanRecord {
  const char* layer = "";  // module the span is charged to ("sim", "store")
  const char* name = "";   // operation ("run_for", "append", a binding)
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int64_t parent = -1;  // index into the span list; -1 for a root
  uint32_t thread = 0;  // dense per-tracer thread number (0 = creator)
};

/// Self time of every span: its duration minus the part of it covered by
/// its direct children on the same thread (overlapping children are
/// merged, and clipped to the parent). Children on another thread ran
/// concurrently with their parent and do not reduce its self time.
std::vector<uint64_t> SelfTimesNs(const std::vector<SpanRecord>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_TIMING_H_
