#ifndef BIOPERA_DARWIN_COST_MODEL_H_
#define BIOPERA_DARWIN_COST_MODEL_H_

#include <cstdint>
#include <vector>

#include "common/time.h"
#include "darwin/sequence.h"

namespace biopera::darwin {

/// Cost model for Darwin invocations, used when experiments run in
/// simulated time (the full all-vs-all is ~3*10^9 pairwise alignments; the
/// paper needed 37-51 days of cluster time, so benches estimate per-TEU
/// costs instead of aligning for real).
///
/// The constants are expressed for a 1.0-speed reference CPU, calibrated to
/// the era of the paper's experiments (Fig. 4 measures ~2750 CPU-seconds
/// for a 532-entry all-vs-all on one 360 MHz CPU, i.e. ~19 ms per pairwise
/// alignment including the refinement share). Node speed factors scale
/// these costs in the cluster simulator.
struct CostModelOptions {
  /// Seconds per DP cell of a Smith-Waterman pass.
  double sw_cell_seconds = 1.1e-7;
  /// Fraction of pairs that reach the match threshold and get refined.
  double match_rate = 0.04;
  /// Full SW evaluations performed by one PAM refinement.
  double refine_evaluations = 9.0;
  /// Per-invocation Darwin startup/teardown (interpreter boot, dataset
  /// load, result merge handshake) in seconds. Calibrated so that the
  /// 532-TEU point of Fig. 4 roughly doubles the serial CPU time (each TEU
  /// is two Darwin invocations: fixed pass + refinement).
  double darwin_init_seconds = 2.6;
  /// Per-match result I/O in seconds.
  double match_io_seconds = 2e-4;
};

/// Re-bases a cost model on a *measured* alignment throughput (DP
/// cells/second of whichever kernel the host machine resolved — scalar,
/// SSE2 or AVX2; see ResolveSwKernel / BENCH_alignment.json). Only
/// `sw_cell_seconds` changes; the era-calibrated defaults above stay the
/// reference for reproducing the paper's figures, so callers opt into a
/// modern-hardware model explicitly and record the kernel provenance
/// alongside the derived number.
CostModelOptions CalibratedCostOptions(double cells_per_second,
                                       const CostModelOptions& base = {});

class CostModel {
 public:
  explicit CostModel(const CostModelOptions& options = {})
      : options_(options) {}

  const CostModelOptions& options() const { return options_; }

  /// CPU cost of one fixed-PAM pairwise alignment.
  Duration PairCost(size_t len_a, size_t len_b) const;

  /// CPU cost of a TEU that aligns each entry in [first, last) of a
  /// dataset with `lengths` against all entries with larger index
  /// (triangular all-vs-all with redundant comparisons ruled out),
  /// including the Darwin init overhead and expected refinement share.
  /// Uses a suffix-sum of lengths, O(1) per query after O(N) setup.
  Duration TeuCost(const std::vector<uint32_t>& lengths, size_t first,
                   size_t last) const;

  /// Precomputes prefix and suffix sums of `lengths` for repeated TeuCost
  /// and residue queries on one dataset.
  void Prepare(const std::vector<uint32_t>& lengths);

  /// Residues of entries [0, i) of the prepared dataset, summed front to
  /// back. Requires Prepare().
  double PrefixResidues(size_t i) const;
  /// Residues of entries [i, n) of the prepared dataset, summed back to
  /// front. Requires Prepare().
  double SuffixResidues(size_t i) const;

  /// Extracts the residue lengths of a dataset.
  static std::vector<uint32_t> Lengths(const Dataset& dataset);

 private:
  CostModelOptions options_;
  std::vector<double> prefix_len_;   // prefix_len_[i] = sum of lengths[..i)
  std::vector<double> suffix_len_;   // suffix_len_[i] = sum of lengths[i..)
};

}  // namespace biopera::darwin

#endif  // BIOPERA_DARWIN_COST_MODEL_H_
