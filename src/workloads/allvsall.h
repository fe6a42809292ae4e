#ifndef BIOPERA_WORKLOADS_ALLVSALL_H_
#define BIOPERA_WORKLOADS_ALLVSALL_H_

#include <memory>
#include <vector>

#include "core/activity.h"
#include "darwin/cost_model.h"
#include "darwin/generator.h"
#include "darwin/match.h"
#include "ocr/model.h"

namespace biopera::workloads {

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

  /// Builds the members-per-family index used by synthetic counting.
  void PrepareSynthetic();
  /// Number of matches TEU [first, last) finds (pairs (i, j), i < j).
  /// Positions index the full dataset (full-run layout).
  uint64_t SyntheticMatchCount(uint32_t first, uint32_t last) const;
  /// Number of pairs TEU [first, last) aligns (full-run layout).
  uint64_t PairCount(uint32_t first, uint32_t last) const;

  /// Generalized forms over an explicit queue: `entries` are dataset
  /// indexes, [first, last) the TEU's queue positions. Honors
  /// `update_from` (old-entry partners).
  uint64_t SyntheticMatchCountFor(const std::vector<uint32_t>& entries,
                                  uint32_t first, uint32_t last) const;
  uint64_t PairCountFor(const std::vector<uint32_t>& entries, uint32_t first,
                        uint32_t last) const;
  /// Total residues of the old entries each new entry must scan.
  double OldPartnerResidues() const;

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
