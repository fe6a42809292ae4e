#include "darwin/align_simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdlib>
#include <cstring>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "darwin/align.h"
#include "darwin/generator.h"
#include "darwin/pam.h"
#include "darwin/sequence.h"

namespace biopera::darwin {
namespace {

Sequence RandomSeq(Rng* rng, size_t len, const char* name = "r") {
  std::vector<uint8_t> residues(len);
  for (auto& r : residues) {
    r = static_cast<uint8_t>(rng->NextUint64(kAlphabetSize));
  }
  return Sequence(name, std::move(residues));
}

std::vector<SwKernel> SupportedKernels() {
  std::vector<SwKernel> out = {SwKernel::kScalar};
  if (SwKernelSupported(SwKernel::kSse2)) out.push_back(SwKernel::kSse2);
  if (SwKernelSupported(SwKernel::kAvx2)) out.push_back(SwKernel::kAvx2);
  return out;
}

TEST(SwKernelTest, ResolveNeverReturnsAuto) {
  SwKernel k = ResolveSwKernel();
  EXPECT_NE(k, SwKernel::kAuto);
  EXPECT_TRUE(SwKernelSupported(k));
  EXPECT_EQ(ResolveSwKernel(SwKernel::kScalar), SwKernel::kScalar);
}

TEST(SwKernelTest, NamesAreStable) {
  EXPECT_EQ(SwKernelName(SwKernel::kScalar), "scalar");
  EXPECT_EQ(SwKernelName(SwKernel::kSse2), "sse2");
  EXPECT_EQ(SwKernelName(SwKernel::kAvx2), "avx2");
}

TEST(QuantizeScoringTest, ErrorBoundedByHalfQuantum) {
  const QuantizedMatrix& q = SharedPamFamily().QuantizedScoring(250);
  EXPECT_EQ(q.pam, 250);
  EXPECT_GT(q.max_score, 0);
  EXPECT_LE(q.max_entry_error, 0.5 / kSwScoreScale + 1e-12);
  const ScoringMatrix& m = SharedPamFamily().Scoring(250);
  for (int i = 0; i < kAlphabetSize; ++i) {
    for (int j = 0; j < kAlphabetSize; ++j) {
      EXPECT_NEAR(static_cast<double>(q.score[i][j]) / kSwScoreScale,
                  m.score[i][j], 0.5 / kSwScoreScale + 1e-12);
    }
  }
}

// The differential suite from the issue: random, mutated-homolog,
// all-identical, empty, length-1 and saturation-forcing sequences, across
// PAM distances and gap penalties. Every supported kernel must produce
// the scalar reference's integers exactly, and the promoted double score
// must stay within the quantization error bound of the exact kernel.
TEST(AlignSimdDifferentialTest, KernelsMatchScalarReferenceExactly) {
  Rng rng(20260808);
  const PamFamily& family = SharedPamFamily();
  std::vector<std::pair<Sequence, Sequence>> cases;
  for (size_t la : {size_t{0}, size_t{1}, size_t{7}, size_t{181},
                    size_t{360}}) {
    for (size_t lb : {size_t{0}, size_t{1}, size_t{360}}) {
      cases.emplace_back(RandomSeq(&rng, la), RandomSeq(&rng, lb));
    }
  }
  Sequence root = RandomSeq(&rng, 300, "root");
  for (int pam : {20, 80, 250}) {
    cases.emplace_back(root, MutateSequence(root, pam, family, &rng));
  }
  // All-identical residue runs; poly-W is rare in the background, so a
  // long W-run forces +32767 saturation at low PAM distances.
  cases.emplace_back(Sequence("pa", std::vector<uint8_t>(120, 0)),
                     Sequence("pa2", std::vector<uint8_t>(90, 0)));
  cases.emplace_back(Sequence("pw", std::vector<uint8_t>(500, 17)),
                     Sequence("pw2", std::vector<uint8_t>(500, 17)));
  Sequence big = RandomSeq(&rng, 800, "big");
  cases.emplace_back(big, big);

  const std::vector<GapPenalty> penalty_sets = {
      GapPenalty{},            // defaults quantize exactly
      GapPenalty{5.0, 0.5},    // cheap gaps
      GapPenalty{30.0, 3.0},   // expensive gaps
      GapPenalty{7.3, 0.9},    // penalties that do NOT quantize exactly
  };
  const std::vector<SwKernel> kernels = SupportedKernels();
  int saturated_cases = 0;
  for (int pam : {10, 42, 100, 250, 720}) {
    const ScoringMatrix& matrix = family.Scoring(pam);
    const QuantizedMatrix& qmatrix = family.QuantizedScoring(pam);
    for (const GapPenalty& gaps : penalty_sets) {
      for (const auto& [a, b] : cases) {
        PairScorer reference(a, qmatrix, gaps, SwKernel::kScalar);
        SwScore ref = reference.Score(b);
        for (SwKernel kernel : kernels) {
          PairScorer scorer(a, qmatrix, gaps, kernel);
          SwScore got = scorer.Score(b);
          ASSERT_EQ(got.quantized, ref.quantized)
              << SwKernelName(kernel) << " pam=" << pam
              << " open=" << gaps.open << " la=" << a.length()
              << " lb=" << b.length();
          ASSERT_EQ(got.saturated, ref.saturated)
              << SwKernelName(kernel) << " pam=" << pam;
        }
        double exact = SmithWatermanScore(a, b, matrix, gaps);
        double promoted =
            SimdSmithWatermanScore(a, b, matrix, qmatrix, gaps);
        if (ref.saturated) {
          ++saturated_cases;
          EXPECT_EQ(promoted, exact);  // promotion runs the exact kernel
        } else {
          double bound =
              QuantizationErrorBound(a.length(), b.length(), qmatrix, gaps);
          EXPECT_LE(std::abs(promoted - exact), bound + 1e-9)
              << "pam=" << pam << " open=" << gaps.open
              << " la=" << a.length() << " lb=" << b.length();
        }
      }
    }
  }
  // The suite must actually exercise the promotion path.
  EXPECT_GT(saturated_cases, 0);
}

TEST(AlignSimdTest, ScorePairsMatchesSinglePairCalls) {
  Rng rng(7);
  const PamFamily& family = SharedPamFamily();
  const ScoringMatrix& matrix = family.Scoring(100);
  const QuantizedMatrix& qmatrix = family.QuantizedScoring(100);
  Sequence query = RandomSeq(&rng, 250, "q");
  std::vector<Sequence> owned;
  for (int i = 0; i < 12; ++i) {
    owned.push_back(RandomSeq(&rng, 100 + 30 * i, "t"));
  }
  // A guaranteed-saturating target at this PAM: query vs query is high
  // scoring only at low PAM; use a poly-W pair appended to the batch.
  owned.push_back(Sequence("w", std::vector<uint8_t>(600, 17)));
  Sequence wquery("wq", std::vector<uint8_t>(600, 17));

  std::vector<const Sequence*> targets;
  for (const auto& t : owned) targets.push_back(&t);
  targets.push_back(nullptr);  // null targets score 0

  ScorePairsStats stats;
  std::vector<double> scores = ScorePairs(query, targets, matrix, qmatrix,
                                          GapPenalty{}, SwKernel::kAuto,
                                          &stats);
  ASSERT_EQ(scores.size(), targets.size());
  EXPECT_EQ(stats.pairs, targets.size());
  EXPECT_GT(stats.cells, 0u);
  for (size_t i = 0; i < owned.size(); ++i) {
    EXPECT_EQ(scores[i],
              SimdSmithWatermanScore(query, owned[i], matrix, qmatrix));
  }
  EXPECT_EQ(scores.back(), 0.0);

  // Saturating batch: promotions counted and exact.
  ScorePairsStats wstats;
  std::vector<const Sequence*> wtargets = {&owned.back()};
  std::vector<double> wscores = ScorePairs(
      wquery, wtargets, family.Scoring(10), family.QuantizedScoring(10),
      GapPenalty{}, SwKernel::kAuto, &wstats);
  EXPECT_EQ(wstats.promotions, 1u);
  EXPECT_EQ(wscores[0],
            SmithWatermanScore(wquery, owned.back(), family.Scoring(10)));
}

// The batched exact re-score against the scalar reference, compared in
// bits: random, homolog, poly-A, poly-W, length-0 and length-1
// sequences, batches whose lengths differ by 10x or more, batch sizes
// 1-9 (so groups of four meet every remainder and every lane position),
// three PAM distances, the differential suite's gap sets and every
// kernel the host supports.
TEST(AlignSimdExactTest, BatchedScoresAreBitIdenticalToTheReference) {
  Rng rng(20261020);
  const PamFamily& family = SharedPamFamily();
  Sequence root = RandomSeq(&rng, 300, "root");
  std::vector<std::pair<Sequence, Sequence>> owned = {
      {RandomSeq(&rng, 360), RandomSeq(&rng, 300)},
      {root, MutateSequence(root, 80, family, &rng)},
      {Sequence("pa", std::vector<uint8_t>(120, 0)),
       Sequence("pa2", std::vector<uint8_t>(90, 0))},
      {Sequence("pw", std::vector<uint8_t>(200, 17)),
       Sequence("pw2", std::vector<uint8_t>(200, 17))},
      {RandomSeq(&rng, 0), RandomSeq(&rng, 50)},
      {RandomSeq(&rng, 50), RandomSeq(&rng, 0)},
      {RandomSeq(&rng, 1), RandomSeq(&rng, 360)},
      {RandomSeq(&rng, 360), RandomSeq(&rng, 1)},
      {RandomSeq(&rng, 36), RandomSeq(&rng, 400)},
      {RandomSeq(&rng, 500), RandomSeq(&rng, 30)},
      {root, MutateSequence(root, 250, family, &rng)},
      {RandomSeq(&rng, 7), RandomSeq(&rng, 7)},
  };
  std::vector<SequencePair> all;
  for (const auto& [a, b] : owned) all.push_back({&a, &b});

  const std::vector<GapPenalty> penalty_sets = {
      GapPenalty{}, GapPenalty{5.0, 0.5}, GapPenalty{30.0, 3.0},
      GapPenalty{7.3, 0.9}};
  int compared = 0;
  for (int pam : {10, 250, 720}) {
    const ScoringMatrix& matrix = family.Scoring(pam);
    for (const GapPenalty& gaps : penalty_sets) {
      std::vector<double> reference;
      for (const SequencePair& pair : all) {
        reference.push_back(
            SmithWatermanScore(*pair.query, *pair.target, matrix, gaps));
      }
      for (SwKernel kernel : SupportedKernels()) {
        size_t next = 0;  // batches walk the pair list cyclically
        for (size_t size = 1; size <= 9; ++size) {
          std::vector<SequencePair> batch;
          std::vector<size_t> source;
          for (size_t k = 0; k < size; ++k, next = (next + 1) % all.size()) {
            batch.push_back(all[next]);
            source.push_back(next);
          }
          std::vector<double> got = ExactScores(batch, matrix, gaps, kernel);
          ASSERT_EQ(got.size(), batch.size());
          for (size_t k = 0; k < batch.size(); ++k, ++compared) {
            ASSERT_EQ(std::memcmp(&got[k], &reference[source[k]],
                                  sizeof(double)),
                      0)
                << SwKernelName(kernel) << " pam=" << pam
                << " open=" << gaps.open << " size=" << size << " lane=" << k
                << " la=" << batch[k].query->length()
                << " lb=" << batch[k].target->length() << " got=" << got[k]
                << " want=" << reference[source[k]];
          }
        }
      }
    }
  }
  EXPECT_EQ(compared, 3 * 4 * static_cast<int>(SupportedKernels().size()) *
                          45);

  // Negative gap costs (which -inf padding cannot bound) still match
  // the reference.
  const ScoringMatrix& matrix = family.Scoring(250);
  const GapPenalty negative{-1.0, -0.5};
  std::vector<double> got = ExactScores(all, matrix, negative);
  for (size_t k = 0; k < all.size(); ++k) {
    double want =
        SmithWatermanScore(*all[k].query, *all[k].target, matrix, negative);
    EXPECT_EQ(std::memcmp(&got[k], &want, sizeof(double)), 0) << k;
  }
}

TEST(AlignSimdTest, RefinementMemoizationSkipsRepeatedDistances) {
  Rng rng(99);
  const PamFamily& family = SharedPamFamily();
  Sequence root = RandomSeq(&rng, 220, "root");
  Sequence member = MutateSequence(root, 80, family, &rng);
  RefinementOptions options;
  options.min_pam = 10;
  options.max_pam = 160;  // grid 10,20,40,80,160: narrowing revisits 80
  RefinementResult r = RefinePamDistance(root, member, family,
                                         GapPenalty{}, options);
  EXPECT_GT(r.evaluations, 4);
  EXPECT_GE(r.cache_hits, 1);
  EXPECT_GE(r.best_pam, options.min_pam);
  EXPECT_LE(r.best_pam, options.max_pam);
  // Deterministic: a second refinement reproduces the result exactly.
  RefinementResult r2 = RefinePamDistance(root, member, family,
                                          GapPenalty{}, options);
  EXPECT_EQ(r.best_pam, r2.best_pam);
  EXPECT_EQ(r.best_score, r2.best_score);
  EXPECT_EQ(r.evaluations, r2.evaluations);
}

}  // namespace
}  // namespace biopera::darwin
