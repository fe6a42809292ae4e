#ifndef BIOPERA_WORKLOADS_ALLVSALL_H_
#define BIOPERA_WORKLOADS_ALLVSALL_H_

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/activity.h"
#include "darwin/cost_model.h"
#include "darwin/generator.h"
#include "darwin/match.h"
#include "ocr/model.h"

namespace biopera::workloads {

/// The dataset indexes of a queue file, by queue position. A
/// {"count", "first"} queue is the range [first, first + count), read
/// without copying; an explicit list keeps its own entries.
class QueueEntries {
 public:
  /// The range of dataset indexes [first, first + count).
  static QueueEntries Range(uint32_t first, uint32_t count) {
    QueueEntries q;
    q.first_ = first;
    q.count_ = count;
    return q;
  }
  /// An explicit list (implicit: a list of dataset indexes is a queue).
  QueueEntries(std::vector<uint32_t> list)
      : list_(std::move(list)), is_range_(false) {}

  size_t size() const { return is_range_ ? count_ : list_.size(); }
  uint32_t operator[](size_t pos) const {
    return is_range_ ? first_ + static_cast<uint32_t>(pos) : list_[pos];
  }
  bool is_range() const { return is_range_; }
  /// First dataset index of a range.
  uint32_t first() const { return first_; }

 private:
  QueueEntries() = default;

  uint32_t first_ = 0;
  uint32_t count_ = 0;
  std::vector<uint32_t> list_;
  bool is_range_ = true;
};

/// Shared context for the all-vs-all activity implementations.
///
/// Two execution modes share one process definition:
///  - *real* mode (dataset != nullptr): activities actually run the
///    Smith-Waterman kernels and produce match lists — used by examples
///    and integration tests on small datasets;
///  - *synthetic* mode: activities produce match statistics derived from
///    the generator's ground-truth family structure, and costs from the
///    calibrated Darwin cost model — used to reproduce the paper's
///    cluster-scale experiments in simulated time.
struct AllVsAllContext {
  // Common: entry lengths of the dataset (drives cost estimation).
  std::vector<uint32_t> lengths;
  /// Prepared for `lengths` by the Make*Context factories and
  /// PrepareSynthetic; its residue tables serve OldPartnerResidues and
  /// PartnerResiduesAfter.
  darwin::CostModel cost_model;
  /// Fixed evolutionary distance of the first alignment pass.
  int fixed_pam = 250;
  /// User-defined similarity threshold for a pair to become a match.
  double match_threshold = 80;
  /// Partitioning strategy used by the preprocessing activity: balanced by
  /// estimated triangular cost (default) vs naive equal entry counts
  /// (ablation baseline exposing the straggler effect).
  bool partition_by_cost = true;

  /// Incremental-update mode (paper §2: "current updates typically involve
  /// at most 15,000 new sequences"): entries with dataset index >=
  /// `update_from` are NEW. The queue file then lists only the new
  /// entries, and each is compared against every OLD entry plus the new
  /// entries after it (i.e., all pairs that involve a new entry, each
  /// once). 0 = full all-vs-all (no old entries).
  uint32_t update_from = 0;

  // Real mode.
  const darwin::Dataset* dataset = nullptr;
  const darwin::PamFamily* pam = nullptr;

  // Synthetic mode: ground-truth family structure.
  std::vector<uint32_t> family_of;
  /// Background rate of spurious cross-family matches.
  double background_match_rate = 0.0005;

  /// Per-entry runtime variability. Real TEU durations differ even for
  /// cost-balanced partitions — "the CPU time for TEUs will always
  /// differ" (§5.3) — and that variance is exactly what pushes the
  /// optimal granularity well above the CPU count in Figure 4. Each
  /// entry's true cost carries an independent lognormal factor, so a
  /// TEU of k entries has cost noise ~ sigma/sqrt(k): large TEUs are
  /// relatively stable, small ones vary a lot. The factor has mean 1
  /// (total CPU is granularity-independent in expectation) and is
  /// deterministic per (TEU, pass) so re-executions after failures
  /// charge the same cost.
  double per_entry_noise_sigma = 1.2;
  uint64_t noise_seed = 0xb10f;

  /// Deterministic mean-one lognormal factor for one TEU's pass
  /// (tag 0 = fixed alignment, 1 = refinement).
  double NoiseFactor(uint64_t tag, uint32_t first, uint32_t last) const;

  /// Builds the members-per-family index used by synthetic counting and
  /// prepares `cost_model` for `lengths`.
  void PrepareSynthetic();
  /// Number of matches TEU [first, last) finds (pairs (i, j), i < j).
  /// Positions index the full dataset (full-run layout).
  uint64_t SyntheticMatchCount(uint32_t first, uint32_t last) const;
  /// Number of pairs TEU [first, last) aligns (full-run layout).
  uint64_t PairCount(uint32_t first, uint32_t last) const;

  /// Generalized forms over a queue: [first, last) are the TEU's queue
  /// positions. Honors `update_from` (old-entry partners).
  uint64_t SyntheticMatchCountFor(const QueueEntries& entries, uint32_t first,
                                  uint32_t last) const;
  uint64_t PairCountFor(const QueueEntries& entries, uint32_t first,
                        uint32_t last) const;
  /// Total residues of the old entries each new entry must scan, read
  /// from `cost_model`'s prefix table.
  double OldPartnerResidues() const;
  /// Residues of the queue entries at positions >= `last`, the partners
  /// a TEU ending at `last` has after it, summed from the queue's end
  /// back. A range that ends at the dataset's end reads the sum from
  /// `cost_model`'s suffix table, which is summed in the same order, so
  /// the result is bit-identical to the walk.
  double PartnerResiduesAfter(const QueueEntries& entries,
                              uint32_t last) const;

  std::map<uint32_t, std::vector<uint32_t>> family_members;
};

/// Creates a context for real-computation mode over `dataset`.
std::shared_ptr<AllVsAllContext> MakeRealContext(
    const darwin::Dataset* dataset, const darwin::PamFamily* pam,
    double match_threshold = 80);

/// Creates a context for synthetic mode from a generated dataset's
/// ground truth.
std::shared_ptr<AllVsAllContext> MakeSyntheticContext(
    const darwin::SyntheticDataset& data,
    const darwin::CostModelOptions& cost_options = {});

/// Creates a synthetic context directly from entry lengths and family ids
/// (for cluster-scale datasets where generating real sequences is
/// unnecessary).
std::shared_ptr<AllVsAllContext> MakeSyntheticContext(
    std::vector<uint32_t> lengths, std::vector<uint32_t> family_of,
    const darwin::CostModelOptions& cost_options = {});

/// The all-vs-all process of Figure 3:
///   user_input -> [queue_generation] -> preprocessing ->
///   Alignment (parallel block of align_partition subprocesses) ->
///   merge_by_entry + merge_by_pam
/// Whiteboard inputs: db_name (string), queue_file (optional list of entry
/// indexes), num_teus (int), output_files (string).
ocr::ProcessDef BuildAllVsAllProcess();

/// The Alignment-block body: fixed-PAM alignment followed by PAM-parameter
/// refinement, as its own process so the block can late-bind it.
ocr::ProcessDef BuildAlignPartitionProcess();

/// Registers all activity implementations against `registry`, bound to
/// `context`. Bindings: avsa.user_input, avsa.queue_gen, avsa.preprocess,
/// darwin.fixed_pam, darwin.refine, avsa.merge_entry, avsa.merge_pam.
Status RegisterAllVsAllActivities(core::ActivityRegistry* registry,
                                  std::shared_ptr<AllVsAllContext> context);

}  // namespace biopera::workloads

#endif  // BIOPERA_WORKLOADS_ALLVSALL_H_
