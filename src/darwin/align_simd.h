#ifndef BIOPERA_DARWIN_ALIGN_SIMD_H_
#define BIOPERA_DARWIN_ALIGN_SIMD_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "darwin/align.h"
#include "darwin/pam.h"
#include "darwin/sequence.h"

/// Striped-SIMD Smith-Waterman (Farrar 2007) over saturating int16 scores
/// quantized from the double ScoringMatrix (scale kSwScoreScale). All
/// quantized kernels — the scalar reference, SSE2 and AVX2 — compute
/// bit-identical integer scores: below saturation no clamp ever fires, so
/// every variant evaluates the same exact integer recurrence; a computed
/// best of +32767 means the true quantized optimum is >= 32767, which
/// triggers promotion to the exact double-precision kernel in align.h.
/// See docs/KERNELS.md for the striping layout and the proofs.

namespace biopera::darwin {

/// Which Smith-Waterman kernel implementation scores a pair.
enum class SwKernel {
  kAuto = 0,  // best supported, honoring BIOPERA_SW_KERNEL
  kScalar,    // quantized int32 Gotoh with emulated saturation (reference)
  kSse2,      // Farrar striped, 8 x int16 lanes
  kAvx2,      // Farrar striped, 16 x int16 lanes
};

std::string_view SwKernelName(SwKernel kernel);

/// True if this build and this CPU can run `kernel`.
bool SwKernelSupported(SwKernel kernel);

/// Resolves kAuto to the fastest supported kernel. The environment
/// variable BIOPERA_SW_KERNEL=scalar|sse2|avx2 overrides the automatic
/// choice (read once per process; unsupported or unknown values are
/// ignored). A non-auto `requested` value is returned as-is when
/// supported, else downgraded to the best supported kernel.
SwKernel ResolveSwKernel(SwKernel requested = SwKernel::kAuto);

/// A quantized local-alignment score in int16 units.
struct SwScore {
  int32_t quantized = 0;   // kSwScoreScale units per log-odds unit
  bool saturated = false;  // hit +32767: re-score with the exact kernel

  /// De-quantized score in log-odds units (exact: scale is a power of 2).
  double Value() const {
    return static_cast<double>(quantized) / kSwScoreScale;
  }
};

/// Scores one query against many targets with a prebuilt striped query
/// profile — the cache-friendly shape for all-vs-all batches. Reuses
/// per-scorer scratch rows, so a PairScorer is NOT thread-safe; build one
/// per thread (the profile is O(20 * query length) to construct).
class PairScorer {
 public:
  PairScorer(const Sequence& query, const QuantizedMatrix& matrix,
             const GapPenalty& gaps = GapPenalty(),
             SwKernel kernel = SwKernel::kAuto);

  /// Quantized Smith-Waterman score of query vs `target`. A saturated
  /// result must be re-scored with the exact double kernel (the batch
  /// helpers below do this automatically).
  SwScore Score(const Sequence& target);

  SwKernel kernel() const { return kernel_; }
  size_t query_length() const { return length_; }
  uint64_t cells() const { return cells_; }  // DP cells scored so far

 private:
  SwScore ScoreScalar(const Sequence& target);

  const QuantizedMatrix* matrix_;
  SwKernel kernel_;
  size_t length_ = 0;
  size_t seg_len_ = 0;  // stripe segment length (vectors per residue row)
  size_t lanes_ = 1;    // int16 lanes per vector
  int16_t open_ = 0, extend_ = 0;  // quantized penalties (>= 0)
  uint64_t cells_ = 0;
  std::vector<uint8_t> query_;      // residue copy for the scalar path
  std::vector<int16_t> profile_;    // striped: [residue][segment][lane]
  std::vector<int16_t> h_, h2_, e_; // scratch rows, seg_len_ * lanes_ each
};

/// Counters from a batched scoring call, for bench output and the cost
/// model's measured-throughput calibration.
struct ScorePairsStats {
  uint64_t pairs = 0;
  uint64_t cells = 0;       // DP cells evaluated by the quantized kernel
  uint64_t promotions = 0;  // pairs re-scored by the exact double kernel
};

/// Scores `query` against every target, returning de-quantized scores in
/// log-odds units (saturated pairs are promoted to the exact double
/// kernel, so every returned value is finite and meaningful). Null target
/// pointers yield a 0 score.
std::vector<double> ScorePairs(const Sequence& query,
                               const std::vector<const Sequence*>& targets,
                               const ScoringMatrix& matrix,
                               const QuantizedMatrix& qmatrix,
                               const GapPenalty& gaps = GapPenalty(),
                               SwKernel kernel = SwKernel::kAuto,
                               ScorePairsStats* stats = nullptr);

/// Single-pair convenience over the same machinery: quantized kernel with
/// automatic promotion to the exact scalar path on saturation.
double SimdSmithWatermanScore(const Sequence& a, const Sequence& b,
                              const ScoringMatrix& matrix,
                              const QuantizedMatrix& qmatrix,
                              const GapPenalty& gaps = GapPenalty(),
                              SwKernel kernel = SwKernel::kAuto);

/// One (query, target) pair of a batched exact re-score.
struct SequencePair {
  const Sequence* query = nullptr;
  const Sequence* target = nullptr;
};

/// Exact double-precision Smith-Waterman scores of `pairs`, in order:
/// element i is bit-identical to SmithWatermanScore(*pairs[i].query,
/// *pairs[i].target, matrix, gaps). When `kernel` resolves to AVX2, four
/// pairs share one vector, one pair per lane, and each lane evaluates the
/// reference recurrence with the same operands in the same order (lanes
/// of shorter pairs are padded with a -inf substitution score, which
/// cannot raise a lane's best; see docs/KERNELS.md). Every other kernel,
/// and gap penalties below zero, run SmithWatermanScore pair by pair.
/// Both sides of every pair must be non-null. Scratch is per call, so
/// concurrent calls are safe.
std::vector<double> ExactScores(const std::vector<SequencePair>& pairs,
                                const ScoringMatrix& matrix,
                                const GapPenalty& gaps = GapPenalty(),
                                SwKernel kernel = SwKernel::kAuto);

/// Upper bound on |exact double score - de-quantized score| for a pair of
/// these lengths: each aligned column charges at most the matrix's worst
/// rounding error, and each gap op at most half a quantum when the
/// penalties do not quantize exactly (the defaults do). Callers that need
/// exact-threshold decisions re-score pairs within this band using the
/// double kernel (see src/workloads/allvsall.cc).
double QuantizationErrorBound(size_t len_a, size_t len_b,
                              const QuantizedMatrix& matrix,
                              const GapPenalty& gaps);

namespace internal {
/// AVX2 kernel entry point, compiled in align_simd_avx2.cc with -mavx2.
/// Buffers hold seg_len * 16 int16 each; profile is striped for 16 lanes.
SwScore Avx2ScoreStriped(const int16_t* profile, size_t seg_len,
                         const uint8_t* target, size_t target_len,
                         int16_t gap_open, int16_t gap_extend, int16_t* h,
                         int16_t* h2, int16_t* e);

/// Residue index of the exact kernel's padding: row and column
/// kExactPadResidue of its substitution table are -inf.
inline constexpr int kExactPadResidue = kAlphabetSize;
inline constexpr int kExactTableStride = kAlphabetSize + 1;

/// The four pairs of one AVX2 exact-kernel call, lane k holding pair k
/// (a lane with length 0 on either side scores 0).
struct ExactLanes {
  const uint8_t* query[4] = {};
  size_t query_len[4] = {};
  const uint8_t* target[4] = {};
  size_t target_len[4] = {};
};

/// AVX2 exact kernel entry point, compiled in align_simd_avx2.cc with
/// -mavx2. `table` is the ScoringMatrix widened to kExactTableStride
/// columns and rows with -inf in the padding row and column; `tidx`
/// holds 4 * (max target length) residues and `h`, `e` as many doubles.
void Avx2ExactScores4(const double* table, double gap_open,
                      double gap_extend, const ExactLanes& lanes,
                      uint8_t* tidx, double* h, double* e, double best[4]);
}  // namespace internal

}  // namespace biopera::darwin

#endif  // BIOPERA_DARWIN_ALIGN_SIMD_H_
