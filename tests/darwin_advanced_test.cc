// Tests for the Karlin-Altschul style score significance model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "darwin/align.h"
#include "darwin/generator.h"
#include "darwin/significance.h"
#include "tests/test_util.h"

namespace biopera::darwin {
namespace {

Sequence Random(size_t len, uint64_t seed) {
  Rng rng(seed);
  const auto& f = BackgroundFrequencies();
  std::vector<double> weights(f.begin(), f.end());
  std::vector<uint8_t> r(len);
  for (auto& c : r) c = static_cast<uint8_t>(rng.Discrete(weights));
  return Sequence("r", std::move(r));
}

TEST(SignificanceTest, CalibrationProducesPositiveParams) {
  Rng rng(11);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  GumbelParams params = CalibrateGumbel(matrix, 150, 60, &rng);
  EXPECT_GT(params.lambda, 0);
  EXPECT_GT(params.k, 0);
}

TEST(SignificanceTest, ExpectDecreasesWithScore) {
  Rng rng(12);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  GumbelParams params = CalibrateGumbel(matrix, 120, 60, &rng);
  double e50 = PairExpect(params, 50, 120, 120);
  double e80 = PairExpect(params, 80, 120, 120);
  double e120 = PairExpect(params, 120, 120, 120);
  EXPECT_GT(e50, e80);
  EXPECT_GT(e80, e120);
}

TEST(SignificanceTest, ThresholdInvertsExpect) {
  Rng rng(13);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  GumbelParams params = CalibrateGumbel(matrix, 120, 60, &rng);
  double threshold =
      ThresholdForExpectedHits(params, 120, 120, 1e6, 10.0);
  // Plugging the threshold back yields the requested total expectation.
  double total = PairExpect(params, threshold, 120, 120) * 1e6;
  EXPECT_NEAR(total, 10.0, 1e-6);
  // More pairs require a higher threshold for the same false-hit budget.
  EXPECT_GT(ThresholdForExpectedHits(params, 120, 120, 1e9, 10.0),
            threshold);
}

TEST(SignificanceTest, ThresholdSeparatesRandomFromHomologs) {
  Rng rng(14);
  const PamFamily& family = SharedPamFamily();
  const ScoringMatrix& matrix = family.Scoring(250);
  GumbelParams params = CalibrateGumbel(matrix, 150, 80, &rng);
  // Threshold tuned for ~1 random hit across 10^5 comparisons.
  double threshold = ThresholdForExpectedHits(params, 150, 150, 1e5, 1.0);
  // Random pairs rarely reach it...
  int random_hits = 0;
  for (uint64_t s = 0; s < 30; ++s) {
    if (SmithWatermanScore(Random(150, 900 + s), Random(150, 950 + s),
                           matrix) >= threshold) {
      ++random_hits;
    }
  }
  EXPECT_LE(random_hits, 1);
  // ...while close homologs exceed it consistently.
  int homolog_hits = 0;
  for (uint64_t s = 0; s < 10; ++s) {
    Sequence root = Random(150, 700 + s);
    Sequence rel = MutateSequence(root, 60, family, &rng);
    if (SmithWatermanScore(root, rel, matrix) >= threshold) ++homolog_hits;
  }
  EXPECT_GE(homolog_hits, 9);
}

}  // namespace
}  // namespace biopera::darwin
