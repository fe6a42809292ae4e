#ifndef BIOPERA_OBS_BARRIER_PROFILE_H_
#define BIOPERA_OBS_BARRIER_PROFILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/time.h"
#include "obs/metrics.h"

namespace biopera::obs {

/// Wall-clock self-time buckets for one engine shard: where real time
/// goes while the shard's simulator advances inside a lockstep barrier.
/// Scopes nest, and a scope accounts only its *self* time (elapsed minus
/// enclosed child scopes), so the buckets never double-count — a store
/// flush inside a dispatch pump lands in kStore, not kPump.
///
/// Wall time is inherently nondeterministic. WallProfile values feed only
/// the barrier-stall profiler (histograms, text breakdowns and the Chrome
/// export), never virtual time or any byte-identity-bearing export. Not
/// thread-safe by design: one profile belongs to one shard, and a shard
/// is pumped by exactly one thread per barrier.
class WallProfile {
 public:
  enum Bucket { kPump = 0, kKernel = 1, kStore = 2 };
  static constexpr int kNumBuckets = 3;

  /// RAII self-time scope. A null profile reduces both constructor and
  /// destructor to a single branch — the null-check-only detached path
  /// gated by bench/micro_obs.cc.
  class Scope {
   public:
    Scope(WallProfile* profile, Bucket bucket);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    WallProfile* profile_;
    Bucket bucket_;
    uint64_t start_ns_ = 0;
    uint64_t saved_child_ns_ = 0;
  };

  /// Copies the per-bucket totals into `out[kNumBuckets]` and resets
  /// them: the service drains one barrier's worth of attribution at each
  /// barrier boundary (after the pumping thread has joined).
  void Drain(uint64_t out[kNumBuckets]);

  uint64_t bucket_ns(int bucket) const { return bucket_ns_[bucket]; }

  /// Test hook: replaces the steady clock with a fake nanosecond source
  /// (nullptr restores the real clock). Affects every profile.
  static void SetClockForTest(uint64_t (*now_ns)());

 private:
  static uint64_t NowNs();

  uint64_t bucket_ns_[kNumBuckets] = {0, 0, 0};
  /// Elapsed wall time of already-closed children of the innermost open
  /// scope — what that scope subtracts to get its self time.
  uint64_t open_child_ns_ = 0;
};

/// Per-shard attribution of the lockstep barriers (ShardedService::
/// StepBarrier). For every barrier each shard's wall time is partitioned
/// into five segments that tile [0, wall_ns] *exactly*, the same
/// invariant the per-instance critical path keeps in virtual time:
///
///   pump    dispatcher scan / navigation self-time
///   kernel  activity kernel execution (inline or thread-pool batch)
///   store   WAL appends, group-commit flushes, checkpoints
///   idle    simulator bookkeeping and the idle tail of the quantum
///   wait    barrier wait on the slowest sibling shard
///
/// pump + kernel + store + idle + wait == wall_ns for every shard of
/// every barrier, by construction (raw profile buckets are clamped in
/// that priority order against the shard's measured step time). The
/// slowest shard of each barrier (idle included, wait zero) is the one
/// the whole fleet stalled on.
struct BarrierShardSample {
  uint64_t pump_ns = 0;
  uint64_t kernel_ns = 0;
  uint64_t store_ns = 0;
  uint64_t idle_ns = 0;
  uint64_t wait_ns = 0;
  uint64_t step_ns = 0;  // this shard's RunUntil wall time (sum of first 4)
};

struct BarrierRecord {
  uint64_t seq = 0;  // 1-based barrier number
  TimePoint virtual_start;
  TimePoint virtual_end;
  uint64_t wall_ns = 0;  // wall time of the whole barrier advance
  int slowest = -1;      // argmax step_ns (ties -> lowest shard)
  std::vector<BarrierShardSample> shards;
};

class BarrierProfiler {
 public:
  static const char* CauseName(int cause);  // 0..4: pump..wait
  static constexpr int kNumCauses = 5;

  /// Registers per-shard/per-cause stall histograms
  /// (`service_barrier_stall_seconds{cause=..,shard=..}`) and slowest-
  /// shard counters (`service_barrier_slowest_total{shard=..}`) up front,
  /// so the *keys* in a METRICS snapshot are deterministic even though
  /// the wall-clock values are not. `registry` may be null (recording
  /// still works; only the metric mirror is skipped). Per-barrier records
  /// are kept up to `max_records`; totals accumulate forever.
  BarrierProfiler(int shards, Registry* registry, size_t max_records = 4096);

  struct RawSample {
    uint64_t step_ns = 0;
    uint64_t pump_ns = 0;
    uint64_t kernel_ns = 0;
    uint64_t store_ns = 0;
  };

  /// Folds one barrier: clamps every shard's raw buckets into tiling
  /// segments, picks the slowest shard and feeds the histograms.
  void Record(uint64_t wall_ns, TimePoint virtual_start,
              TimePoint virtual_end, const std::vector<RawSample>& raw);

  uint64_t barriers() const { return barriers_; }
  const std::vector<BarrierRecord>& records() const { return records_; }
  bool records_truncated() const { return barriers_ > records_.size(); }

  struct ShardTotals {
    uint64_t pump_ns = 0;
    uint64_t kernel_ns = 0;
    uint64_t store_ns = 0;
    uint64_t idle_ns = 0;
    uint64_t wait_ns = 0;
    uint64_t step_ns = 0;
    uint64_t slowest = 0;  // barriers this shard was the straggler of
  };
  const std::vector<ShardTotals>& totals() const { return totals_; }

  /// Verifies the tiling invariant over every stored record and the
  /// accumulated totals; on failure describes the first violation.
  /// Asserted by tests/fleet_test.cc and the shard_saturation self-check.
  bool CheckTiling(std::string* error = nullptr) const;

  /// Aligned per-shard stall breakdown (FLEETREPORT's wall section).
  std::string ToText() const;

  /// Chrome/Perfetto document: one track per shard on the cumulative
  /// barrier wall-clock timeline; every recorded barrier contributes
  /// segments tiling its [t, t + wall_ns) window exactly on every track.
  std::string ExportChromeTrace() const;

 private:
  int shards_;
  size_t max_records_;
  uint64_t barriers_ = 0;
  std::vector<BarrierRecord> records_;
  std::vector<ShardTotals> totals_;
  // [shard][cause]; null when no registry was given.
  std::vector<std::vector<Histogram*>> stall_hist_;
  std::vector<Counter*> slowest_counter_;
};

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_BARRIER_PROFILE_H_
