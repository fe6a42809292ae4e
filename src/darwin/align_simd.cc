#include "darwin/align_simd.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

namespace biopera::darwin {

namespace {

// Profile value for query positions past the end of the last stripe.
// int16 minimum: adds_epi16(h, kPadScore) is <= -1 for any h >= 0, so a
// padded slot's H is pinned at 0 and padded positions (which are the tail
// of the striped position order) never leak score into real positions.
constexpr int16_t kPadScore = INT16_MIN;

int16_t QuantizePenalty(double penalty) {
  long rounded = std::lround(penalty * kSwScoreScale);
  if (rounded < 0) rounded = 0;
  if (rounded > INT16_MAX) rounded = INT16_MAX;
  return static_cast<int16_t>(rounded);
}

SwKernel EnvKernelOverride() {
  static const SwKernel cached = [] {
    const char* env = std::getenv("BIOPERA_SW_KERNEL");
    if (env == nullptr) return SwKernel::kAuto;
    std::string_view v(env);
    if (v == "scalar") return SwKernel::kScalar;
    if (v == "sse2") return SwKernel::kSse2;
    if (v == "avx2") return SwKernel::kAvx2;
    return SwKernel::kAuto;
  }();
  return cached;
}

#if defined(__SSE2__)

// Farrar striped kernel, 8 x int16 lanes. `profile` is laid out
// [residue][segment][lane]; h/h2/e are seg_len * 8 scratch rows.
SwScore Sse2ScoreStriped(const int16_t* profile, size_t seg_len,
                         const uint8_t* target, size_t target_len,
                         int16_t gap_open, int16_t gap_extend, int16_t* h,
                         int16_t* h2, int16_t* e) {
  constexpr size_t kLanes = 8;
  const __m128i v_zero = _mm_setzero_si128();
  const __m128i v_open = _mm_set1_epi16(gap_open);
  const __m128i v_ext = _mm_set1_epi16(gap_extend);
  __m128i v_best = v_zero;
  std::memset(h, 0, seg_len * kLanes * sizeof(int16_t));
  std::memset(e, 0, seg_len * kLanes * sizeof(int16_t));
  int16_t* h_load = h;
  int16_t* h_store = h2;
  for (size_t i = 0; i < target_len; ++i) {
    const int16_t* prof =
        profile + static_cast<size_t>(target[i]) * seg_len * kLanes;
    __m128i v_f = v_zero;
    // Diagonal input for stripe slot 0: the previous row's last stripe
    // vector shifted up one lane (lane 0 becomes the H(i-1, -1) = 0
    // boundary; lane k+1 receives query position (k+1)*seg_len - 1).
    __m128i v_h = _mm_loadu_si128(reinterpret_cast<const __m128i*>(
        h_load + (seg_len - 1) * kLanes));
    v_h = _mm_slli_si128(v_h, 2);
    for (size_t j = 0; j < seg_len; ++j) {
      __m128i v_e = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(e + j * kLanes));
      v_h = _mm_adds_epi16(
          v_h, _mm_loadu_si128(
                   reinterpret_cast<const __m128i*>(prof + j * kLanes)));
      v_h = _mm_max_epi16(v_h, v_e);
      v_h = _mm_max_epi16(v_h, v_f);
      v_h = _mm_max_epi16(v_h, v_zero);
      v_best = _mm_max_epi16(v_best, v_h);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(h_store + j * kLanes),
                       v_h);
      __m128i v_h_gap = _mm_subs_epi16(v_h, v_open);
      v_e = _mm_subs_epi16(v_e, v_ext);
      v_e = _mm_max_epi16(v_e, v_h_gap);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(e + j * kLanes), v_e);
      v_f = _mm_subs_epi16(v_f, v_ext);
      v_f = _mm_max_epi16(v_f, v_h_gap);
      // Diagonal input for the next slot: previous row, same slot.
      v_h = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(h_load + j * kLanes));
    }
    // Lazy F: propagate query-gap runs across stripe boundaries until no
    // lane can improve on re-opening a gap from the stored H.
    for (size_t k = 0; k < kLanes; ++k) {
      v_f = _mm_slli_si128(v_f, 2);
      for (size_t j = 0; j < seg_len; ++j) {
        __m128i v_h2 = _mm_loadu_si128(
            reinterpret_cast<const __m128i*>(h_store + j * kLanes));
        v_h2 = _mm_max_epi16(v_h2, v_f);
        _mm_storeu_si128(
            reinterpret_cast<__m128i*>(h_store + j * kLanes), v_h2);
        __m128i v_h_gap = _mm_subs_epi16(v_h2, v_open);
        v_f = _mm_subs_epi16(v_f, v_ext);
        if (_mm_movemask_epi8(_mm_cmpgt_epi16(v_f, v_h_gap)) == 0) {
          goto row_done;
        }
      }
    }
  row_done:
    std::swap(h_load, h_store);
  }
  __m128i t = _mm_max_epi16(v_best, _mm_srli_si128(v_best, 8));
  t = _mm_max_epi16(t, _mm_srli_si128(t, 4));
  t = _mm_max_epi16(t, _mm_srli_si128(t, 2));
  int32_t best = static_cast<int16_t>(_mm_extract_epi16(t, 0));
  return {best, best == INT16_MAX};
}

#endif  // __SSE2__

}  // namespace

std::string_view SwKernelName(SwKernel kernel) {
  switch (kernel) {
    case SwKernel::kAuto:
      return "auto";
    case SwKernel::kScalar:
      return "scalar";
    case SwKernel::kSse2:
      return "sse2";
    case SwKernel::kAvx2:
      return "avx2";
  }
  return "unknown";
}

bool SwKernelSupported(SwKernel kernel) {
  switch (kernel) {
    case SwKernel::kAuto:
    case SwKernel::kScalar:
      return true;
    case SwKernel::kSse2:
#if defined(__SSE2__)
      return true;
#else
      return false;
#endif
    case SwKernel::kAvx2:
#if BIOPERA_HAVE_AVX2
      return __builtin_cpu_supports("avx2");
#else
      return false;
#endif
  }
  return false;
}

SwKernel ResolveSwKernel(SwKernel requested) {
  if (requested == SwKernel::kAuto) {
    SwKernel env = EnvKernelOverride();
    if (env != SwKernel::kAuto && SwKernelSupported(env)) return env;
    if (SwKernelSupported(SwKernel::kAvx2)) return SwKernel::kAvx2;
    if (SwKernelSupported(SwKernel::kSse2)) return SwKernel::kSse2;
    return SwKernel::kScalar;
  }
  if (SwKernelSupported(requested)) return requested;
  if (requested == SwKernel::kAvx2 && SwKernelSupported(SwKernel::kSse2)) {
    return SwKernel::kSse2;
  }
  return SwKernel::kScalar;
}

PairScorer::PairScorer(const Sequence& query, const QuantizedMatrix& matrix,
                       const GapPenalty& gaps, SwKernel kernel)
    : matrix_(&matrix),
      kernel_(ResolveSwKernel(kernel)),
      length_(query.length()),
      open_(QuantizePenalty(gaps.open)),
      extend_(QuantizePenalty(gaps.extend)) {
  query_ = query.residues();
  if (kernel_ == SwKernel::kScalar || length_ == 0) return;
  lanes_ = kernel_ == SwKernel::kAvx2 ? 16 : 8;
  seg_len_ = (length_ + lanes_ - 1) / lanes_;
  profile_.assign(kAlphabetSize * seg_len_ * lanes_, kPadScore);
  // Query position p = lane * seg_len_ + slot lives at
  // [residue][slot][lane]; walking (lane, slot) in order visits p in
  // order, so each position copies its matrix row without a division.
  const size_t residue_stride = seg_len_ * lanes_;
  size_t p = 0;
  for (size_t lane = 0; lane < lanes_ && p < length_; ++lane) {
    for (size_t slot = 0; slot < seg_len_ && p < length_; ++slot, ++p) {
      const auto& row = matrix.score[query_[p]];
      int16_t* out = profile_.data() + slot * lanes_ + lane;
      for (int r = 0; r < kAlphabetSize; ++r) {
        out[static_cast<size_t>(r) * residue_stride] = row[r];
      }
    }
  }
  h_.resize(seg_len_ * lanes_);
  h2_.resize(seg_len_ * lanes_);
  e_.resize(seg_len_ * lanes_);
}

SwScore PairScorer::Score(const Sequence& target) {
  if (length_ == 0 || target.length() == 0) return {};
  cells_ += static_cast<uint64_t>(length_) * target.length();
  switch (kernel_) {
#if BIOPERA_HAVE_AVX2
    case SwKernel::kAvx2:
      return internal::Avx2ScoreStriped(
          profile_.data(), seg_len_, target.residues().data(),
          target.length(), open_, extend_, h_.data(), h2_.data(),
          e_.data());
#endif
#if defined(__SSE2__)
    case SwKernel::kSse2:
      return Sse2ScoreStriped(profile_.data(), seg_len_,
                              target.residues().data(), target.length(),
                              open_, extend_, h_.data(), h2_.data(),
                              e_.data());
#endif
    default:
      return ScoreScalar(target);
  }
}

SwScore PairScorer::ScoreScalar(const Sequence& target) {
  const size_t n = length_;
  const size_t m = target.length();
  // Plain int32 Gotoh with every add/subtract clamped to the int16 range:
  // the semantics of the SIMD saturating ops, so saturation behaviour
  // (and therefore the promotion decision) is bit-identical.
  auto sat = [](int32_t v) -> int32_t {
    if (v > INT16_MAX) return INT16_MAX;
    if (v < INT16_MIN) return INT16_MIN;
    return v;
  };
  std::vector<int32_t> h(m + 1, 0), e(m + 1, 0);
  int32_t best = 0;
  for (size_t i = 1; i <= n; ++i) {
    const auto& row = matrix_->score[query_[i - 1]];
    int32_t diag = 0, f = 0, h_left = 0;
    for (size_t j = 1; j <= m; ++j) {
      e[j] = std::max(sat(h[j] - open_), sat(e[j] - extend_));
      f = std::max(sat(h_left - open_), sat(f - extend_));
      int32_t match = sat(diag + row[target[j - 1]]);
      int32_t cell = std::max({0, match, e[j], f});
      diag = h[j];
      h[j] = cell;
      h_left = cell;
      best = std::max(best, cell);
    }
  }
  return {best, best == INT16_MAX};
}

std::vector<double> ScorePairs(const Sequence& query,
                               const std::vector<const Sequence*>& targets,
                               const ScoringMatrix& matrix,
                               const QuantizedMatrix& qmatrix,
                               const GapPenalty& gaps, SwKernel kernel,
                               ScorePairsStats* stats) {
  std::vector<double> out(targets.size(), 0.0);
  PairScorer scorer(query, qmatrix, gaps, kernel);
  uint64_t promotions = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const Sequence* target = targets[i];
    if (target == nullptr) continue;
    SwScore s = scorer.Score(*target);
    if (s.saturated) {
      out[i] = SmithWatermanScore(query, *target, matrix, gaps);
      ++promotions;
    } else {
      out[i] = s.Value();
    }
  }
  if (stats != nullptr) {
    stats->pairs += targets.size();
    stats->cells += scorer.cells();
    stats->promotions += promotions;
  }
  return out;
}

double SimdSmithWatermanScore(const Sequence& a, const Sequence& b,
                              const ScoringMatrix& matrix,
                              const QuantizedMatrix& qmatrix,
                              const GapPenalty& gaps, SwKernel kernel) {
  PairScorer scorer(a, qmatrix, gaps, kernel);
  SwScore s = scorer.Score(b);
  if (s.saturated) return SmithWatermanScore(a, b, matrix, gaps);
  return s.Value();
}

std::vector<double> ExactScores(const std::vector<SequencePair>& pairs,
                                const ScoringMatrix& matrix,
                                const GapPenalty& gaps, SwKernel kernel) {
  std::vector<double> out(pairs.size(), 0.0);
#if BIOPERA_HAVE_AVX2
  // -inf padding keeps a lane's best only while gaps cost >= 0.
  if (ResolveSwKernel(kernel) == SwKernel::kAvx2 && gaps.open >= 0 &&
      gaps.extend >= 0) {
    constexpr int kStride = internal::kExactTableStride;
    constexpr double kNegInf = -std::numeric_limits<double>::infinity();
    std::array<double, kStride * kStride> table;
    table.fill(kNegInf);
    for (int r = 0; r < kAlphabetSize; ++r) {
      std::copy(matrix.score[r].begin(), matrix.score[r].end(),
                table.begin() + r * kStride);
    }
    // Lanes run to the longest pair of their group: group pairs of
    // similar shape by sorting on (query length, target length).
    std::vector<uint32_t> order(pairs.size());
    size_t max_target = 0;
    for (size_t i = 0; i < pairs.size(); ++i) {
      order[i] = static_cast<uint32_t>(i);
      max_target = std::max(max_target, pairs[i].target->length());
    }
    std::sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
      const size_t qa = pairs[a].query->length();
      const size_t qb = pairs[b].query->length();
      if (qa != qb) return qa < qb;
      return pairs[a].target->length() < pairs[b].target->length();
    });
    std::vector<uint8_t> tidx(4 * max_target);
    std::vector<double> h(4 * max_target), e(4 * max_target);
    for (size_t g = 0; g < order.size(); g += 4) {
      internal::ExactLanes lanes;
      const size_t width = std::min<size_t>(4, order.size() - g);
      for (size_t k = 0; k < width; ++k) {
        const SequencePair& pair = pairs[order[g + k]];
        lanes.query[k] = pair.query->residues().data();
        lanes.query_len[k] = pair.query->length();
        lanes.target[k] = pair.target->residues().data();
        lanes.target_len[k] = pair.target->length();
      }
      double best[4];
      internal::Avx2ExactScores4(table.data(), gaps.open, gaps.extend, lanes,
                                 tidx.data(), h.data(), e.data(), best);
      for (size_t k = 0; k < width; ++k) out[order[g + k]] = best[k];
    }
    return out;
  }
#endif
  (void)kernel;
  for (size_t i = 0; i < pairs.size(); ++i) {
    out[i] = SmithWatermanScore(*pairs[i].query, *pairs[i].target, matrix,
                                gaps);
  }
  return out;
}

double QuantizationErrorBound(size_t len_a, size_t len_b,
                              const QuantizedMatrix& matrix,
                              const GapPenalty& gaps) {
  // Any alignment path has at most min(len_a, len_b) substitution
  // columns, each charged the matrix's worst per-entry rounding error,
  // and at most len_a + len_b gap ops, each charged the penalty rounding
  // error (zero for penalties that are exact multiples of the quantum,
  // like the defaults).
  double sub_columns = static_cast<double>(std::min(len_a, len_b));
  double bound = sub_columns * matrix.max_entry_error;
  double open_err =
      std::abs(static_cast<double>(QuantizePenalty(gaps.open)) /
                   kSwScoreScale -
               gaps.open);
  double ext_err =
      std::abs(static_cast<double>(QuantizePenalty(gaps.extend)) /
                   kSwScoreScale -
               gaps.extend);
  double gap_err = std::max(open_err, ext_err);
  if (gap_err > 0) {
    bound += static_cast<double>(len_a + len_b) * gap_err;
  }
  return bound;
}

}  // namespace biopera::darwin
