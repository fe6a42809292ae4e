// AVX2 variants of the striped Smith-Waterman kernel and of the batched
// exact double kernel. This translation unit is the only one compiled
// with -mavx2 (see src/darwin/CMakeLists); callers reach it through
// runtime CPU dispatch in align_simd.cc, so a binary built with this file
// still runs on non-AVX2 machines.

#include "darwin/align_simd.h"

#if BIOPERA_HAVE_AVX2

#include <immintrin.h>

#include <algorithm>
#include <cstring>

namespace biopera::darwin::internal {

namespace {

// Shifts every 16-bit element one position up across the full 256-bit
// register (element 0 becomes 0, element 8 receives element 7). AVX2 has
// no whole-register byte shift, so stitch the lane crossing by aligning
// against [0 : low-lane].
inline __m256i ShiftLanesUp(__m256i v) {
  __m256i cross = _mm256_permute2x128_si256(v, v, _MM_SHUFFLE(0, 0, 2, 0));
  return _mm256_alignr_epi8(v, cross, 14);
}

}  // namespace

SwScore Avx2ScoreStriped(const int16_t* profile, size_t seg_len,
                         const uint8_t* target, size_t target_len,
                         int16_t gap_open, int16_t gap_extend, int16_t* h,
                         int16_t* h2, int16_t* e) {
  constexpr size_t kLanes = 16;
  const __m256i v_zero = _mm256_setzero_si256();
  const __m256i v_open = _mm256_set1_epi16(gap_open);
  const __m256i v_ext = _mm256_set1_epi16(gap_extend);
  __m256i v_best = v_zero;
  std::memset(h, 0, seg_len * kLanes * sizeof(int16_t));
  std::memset(e, 0, seg_len * kLanes * sizeof(int16_t));
  int16_t* h_load = h;
  int16_t* h_store = h2;
  for (size_t i = 0; i < target_len; ++i) {
    const int16_t* prof =
        profile + static_cast<size_t>(target[i]) * seg_len * kLanes;
    __m256i v_f = v_zero;
    __m256i v_h = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
        h_load + (seg_len - 1) * kLanes));
    v_h = ShiftLanesUp(v_h);
    for (size_t j = 0; j < seg_len; ++j) {
      __m256i v_e = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(e + j * kLanes));
      v_h = _mm256_adds_epi16(
          v_h, _mm256_loadu_si256(
                   reinterpret_cast<const __m256i*>(prof + j * kLanes)));
      v_h = _mm256_max_epi16(v_h, v_e);
      v_h = _mm256_max_epi16(v_h, v_f);
      v_h = _mm256_max_epi16(v_h, v_zero);
      v_best = _mm256_max_epi16(v_best, v_h);
      _mm256_storeu_si256(
          reinterpret_cast<__m256i*>(h_store + j * kLanes), v_h);
      __m256i v_h_gap = _mm256_subs_epi16(v_h, v_open);
      v_e = _mm256_subs_epi16(v_e, v_ext);
      v_e = _mm256_max_epi16(v_e, v_h_gap);
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(e + j * kLanes), v_e);
      v_f = _mm256_subs_epi16(v_f, v_ext);
      v_f = _mm256_max_epi16(v_f, v_h_gap);
      v_h = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(h_load + j * kLanes));
    }
    for (size_t k = 0; k < kLanes; ++k) {
      v_f = ShiftLanesUp(v_f);
      for (size_t j = 0; j < seg_len; ++j) {
        __m256i v_h2 = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(h_store + j * kLanes));
        v_h2 = _mm256_max_epi16(v_h2, v_f);
        _mm256_storeu_si256(
            reinterpret_cast<__m256i*>(h_store + j * kLanes), v_h2);
        __m256i v_h_gap = _mm256_subs_epi16(v_h2, v_open);
        v_f = _mm256_subs_epi16(v_f, v_ext);
        if (_mm256_movemask_epi8(_mm256_cmpgt_epi16(v_f, v_h_gap)) == 0) {
          goto row_done;
        }
      }
    }
  row_done:
    std::swap(h_load, h_store);
  }
  __m128i t = _mm_max_epi16(_mm256_castsi256_si128(v_best),
                            _mm256_extracti128_si256(v_best, 1));
  t = _mm_max_epi16(t, _mm_srli_si128(t, 8));
  t = _mm_max_epi16(t, _mm_srli_si128(t, 4));
  t = _mm_max_epi16(t, _mm_srli_si128(t, 2));
  int32_t best = static_cast<int16_t>(_mm_extract_epi16(t, 0));
  return {best, best == INT16_MAX};
}

void Avx2ExactScores4(const double* table, double gap_open,
                      double gap_extend, const ExactLanes& lanes,
                      uint8_t* tidx, double* h, double* e, double best[4]) {
  constexpr size_t kLanes = 4;
  size_t rows = 0, cols = 0;
  for (size_t k = 0; k < kLanes; ++k) {
    if (lanes.query_len[k] > rows) rows = lanes.query_len[k];
    if (lanes.target_len[k] > cols) cols = lanes.target_len[k];
  }
  // Interleaved target residues, [column][lane], padded past each lane's
  // target end.
  for (size_t j = 0; j < cols; ++j) {
    for (size_t k = 0; k < kLanes; ++k) {
      tidx[j * kLanes + k] = j < lanes.target_len[k]
                                 ? lanes.target[k][j]
                                 : kExactPadResidue;
    }
  }
  std::memset(h, 0, cols * kLanes * sizeof(double));
  std::memset(e, 0, cols * kLanes * sizeof(double));
  const __m256d v_zero = _mm256_setzero_pd();
  const __m256d v_open = _mm256_set1_pd(gap_open);
  const __m256d v_ext = _mm256_set1_pd(gap_extend);
  __m256d v_best = v_zero;
  // SmithWatermanScore per lane: std::max(a, b) is (a < b) ? b : a,
  // which is _mm256_max_pd(b, a); the initializer-list max folds left
  // from 0.0 the same way.
  for (size_t i = 0; i < rows; ++i) {
    // Lane k's substitution row for query position i (-inf past its end).
    const double* row[kLanes];
    for (size_t k = 0; k < kLanes; ++k) {
      const int residue =
          i < lanes.query_len[k] ? lanes.query[k][i] : kExactPadResidue;
      row[k] = table + residue * kExactTableStride;
    }
    __m256d v_diag = v_zero;
    __m256d v_f = v_zero;
    __m256d v_left = v_zero;
    for (size_t j = 0; j < cols; ++j) {
      const __m256d v_h = _mm256_loadu_pd(h + j * kLanes);
      __m256d v_e = _mm256_loadu_pd(e + j * kLanes);
      v_e = _mm256_max_pd(_mm256_sub_pd(v_e, v_ext),
                          _mm256_sub_pd(v_h, v_open));
      v_f = _mm256_max_pd(_mm256_sub_pd(v_f, v_ext),
                          _mm256_sub_pd(v_left, v_open));
      const uint8_t* t = tidx + j * kLanes;
      const __m256d v_match = _mm256_add_pd(
          v_diag, _mm256_set_pd(row[3][t[3]], row[2][t[2]], row[1][t[1]],
                                row[0][t[0]]));
      __m256d v_cell = _mm256_max_pd(v_match, v_zero);
      v_cell = _mm256_max_pd(v_e, v_cell);
      v_cell = _mm256_max_pd(v_f, v_cell);
      _mm256_storeu_pd(e + j * kLanes, v_e);
      v_diag = v_h;
      _mm256_storeu_pd(h + j * kLanes, v_cell);
      v_left = v_cell;
      v_best = _mm256_max_pd(v_cell, v_best);
    }
  }
  _mm256_storeu_pd(best, v_best);
}

}  // namespace biopera::darwin::internal

#endif  // BIOPERA_HAVE_AVX2
