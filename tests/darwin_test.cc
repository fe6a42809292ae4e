// Unit and property tests for the Darwin substitute: PAM matrices,
// Smith-Waterman alignment, PAM-distance refinement, the synthetic dataset
// generator, match records, and the cost model.
#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "darwin/align.h"
#include "darwin/cost_model.h"
#include "darwin/generator.h"
#include "darwin/match.h"
#include "darwin/pam.h"
#include "darwin/sequence.h"
#include "tests/test_util.h"

namespace biopera::darwin {
namespace {

// --- Sequences --------------------------------------------------------------

TEST(SequenceTest, ResidueIndexBijective) {
  for (int i = 0; i < kAlphabetSize; ++i) {
    EXPECT_EQ(ResidueIndex(kAminoAcids[i]), i);
  }
  EXPECT_EQ(ResidueIndex('Z'), -1);
  EXPECT_EQ(ResidueIndex('a'), -1);
}

TEST(SequenceTest, FromStringRoundTrip) {
  ASSERT_OK_AND_ASSIGN(Sequence s, Sequence::FromString("x", "ACDEFGHIK"));
  EXPECT_EQ(s.length(), 9u);
  EXPECT_EQ(s.ToString(), "ACDEFGHIK");
  EXPECT_EQ(s.name(), "x");
}

TEST(SequenceTest, FromStringRejectsInvalid) {
  EXPECT_FALSE(Sequence::FromString("x", "ABC").ok());  // B is not an AA
}

TEST(SequenceTest, BackgroundFrequenciesSumToOne) {
  double sum = 0;
  for (double f : BackgroundFrequencies()) {
    EXPECT_GT(f, 0);
    sum += f;
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

// --- PAM family ----------------------------------------------------------------

TEST(PamTest, MutationRowsAreStochastic) {
  const PamFamily& family = SharedPamFamily();
  for (int pam : {1, 50, 250, 700}) {
    const MutationMatrix& m = family.Mutation(pam);
    for (int i = 0; i < kAlphabetSize; ++i) {
      double row = 0;
      for (int j = 0; j < kAlphabetSize; ++j) {
        EXPECT_GE(m.p[i][j], 0) << "pam " << pam;
        row += m.p[i][j];
      }
      EXPECT_NEAR(row, 1.0, 1e-9) << "pam " << pam << " row " << i;
    }
  }
}

TEST(PamTest, OnePamMutatesOnePercent) {
  EXPECT_NEAR(SharedPamFamily().ExpectedDifference(1), 0.01, 1e-9);
}

TEST(PamTest, ExpectedDifferenceIncreasesWithDistance) {
  const PamFamily& family = SharedPamFamily();
  double prev = 0;
  for (int pam : {1, 10, 50, 100, 250, 500}) {
    double diff = family.ExpectedDifference(pam);
    EXPECT_GT(diff, prev);
    prev = diff;
  }
  // PAM 250 corresponds to roughly 80% observed difference for real
  // matrices; ours should be in the same regime (well above 50%).
  EXPECT_GT(family.ExpectedDifference(250), 0.5);
  EXPECT_LT(family.ExpectedDifference(250), 0.95);
}

TEST(PamTest, ConvergesToBackground) {
  const PamFamily& family = SharedPamFamily();
  const MutationMatrix& far = family.Mutation(1000);
  const MutationMatrix& near = family.Mutation(100);
  const auto& f = BackgroundFrequencies();
  double err_far = 0, err_near = 0;
  for (int i = 0; i < kAlphabetSize; ++i) {
    for (int j = 0; j < kAlphabetSize; ++j) {
      // Loose pointwise bound (some residue pairs mix slowly)...
      EXPECT_NEAR(far.p[i][j], f[j], 0.08);
      err_far += std::abs(far.p[i][j] - f[j]);
      err_near += std::abs(near.p[i][j] - f[j]);
    }
  }
  // ...but convergence is clear in aggregate.
  EXPECT_LT(err_far, err_near / 3);
}

TEST(PamTest, DetailedBalanceHolds) {
  // The mutation process is reversible: f_i p_ij == f_j p_ji.
  const MutationMatrix& m = SharedPamFamily().Mutation(100);
  const auto& f = BackgroundFrequencies();
  for (int i = 0; i < kAlphabetSize; ++i) {
    for (int j = 0; j < kAlphabetSize; ++j) {
      EXPECT_NEAR(f[i] * m.p[i][j], f[j] * m.p[j][i], 1e-9);
    }
  }
}

TEST(PamTest, ScoringDiagonalPositiveAtLowPam) {
  const ScoringMatrix& s = SharedPamFamily().Scoring(30);
  for (int i = 0; i < kAlphabetSize; ++i) {
    EXPECT_GT(s(i, i), 0) << kAminoAcids[i];
  }
}

TEST(PamTest, ScoresShrinkTowardZeroAtHighPam) {
  const PamFamily& family = SharedPamFamily();
  const ScoringMatrix& low = family.Scoring(30);
  const ScoringMatrix& high = family.Scoring(900);
  double low_mag = 0, high_mag = 0;
  for (int i = 0; i < kAlphabetSize; ++i) {
    for (int j = 0; j < kAlphabetSize; ++j) {
      low_mag += std::abs(low(i, j));
      high_mag += std::abs(high(i, j));
    }
  }
  EXPECT_LT(high_mag, low_mag / 3);
}

// --- Smith-Waterman --------------------------------------------------------------

Sequence Random(size_t len, uint64_t seed) {
  Rng rng(seed);
  const auto& f = BackgroundFrequencies();
  std::vector<double> weights(f.begin(), f.end());
  std::vector<uint8_t> r(len);
  for (auto& c : r) c = static_cast<uint8_t>(rng.Discrete(weights));
  return Sequence("r", std::move(r));
}

TEST(AlignTest, ScoreIsSymmetric) {
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  for (uint64_t seed = 0; seed < 5; ++seed) {
    Sequence a = Random(80, seed * 2 + 1);
    Sequence b = Random(60, seed * 2 + 2);
    double ab = SmithWatermanScore(a, b, matrix);
    double ba = SmithWatermanScore(b, a, matrix);
    EXPECT_NEAR(ab, ba, 1e-9 * (1 + std::abs(ab)));
  }
}

TEST(AlignTest, ScoreNonNegative) {
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  Sequence a = Random(50, 1);
  Sequence b = Random(50, 2);
  EXPECT_GE(SmithWatermanScore(a, b, matrix), 0);
}

TEST(AlignTest, EmptySequencesScoreZero) {
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  Sequence empty("e", {});
  Sequence a = Random(10, 3);
  EXPECT_EQ(SmithWatermanScore(empty, a, matrix), 0);
  EXPECT_EQ(SmithWatermanScore(a, empty, matrix), 0);
}

TEST(AlignTest, SelfAlignmentBeatsUnrelated) {
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(100);
  Sequence a = Random(120, 4);
  Sequence b = Random(120, 5);
  EXPECT_GT(SmithWatermanScore(a, a, matrix),
            2 * SmithWatermanScore(a, b, matrix));
}

TEST(AlignTest, HomologsScoreHigherThanRandom) {
  Rng rng(6);
  const PamFamily& family = SharedPamFamily();
  const ScoringMatrix& matrix = family.Scoring(250);
  Sequence root = Random(200, 6);
  Sequence relative = MutateSequence(root, 80, family, &rng);
  Sequence unrelated = Random(200, 7);
  EXPECT_GT(SmithWatermanScore(root, relative, matrix),
            2 * SmithWatermanScore(root, unrelated, matrix));
}

TEST(AlignTest, LocalAlignmentFindsEmbeddedDomain) {
  // A 60-residue domain embedded in two unrelated contexts must be found.
  Rng rng(8);
  Sequence domain = Random(60, 8);
  Sequence left = Random(70, 9);
  Sequence right = Random(50, 10);
  auto concat = [](const Sequence& x, const Sequence& y, const Sequence& z) {
    std::vector<uint8_t> r(x.residues());
    r.insert(r.end(), y.residues().begin(), y.residues().end());
    r.insert(r.end(), z.residues().begin(), z.residues().end());
    return Sequence("cat", std::move(r));
  };
  Sequence s1 = concat(left, domain, right);
  Sequence s2 = concat(Random(30, 11), domain, Random(90, 12));
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(60);
  double domain_self = SmithWatermanScore(domain, domain, matrix);
  double found = SmithWatermanScore(s1, s2, matrix);
  EXPECT_GE(found, domain_self * 0.95);
}

TEST(AlignTest, TracebackMatchesScoreAndCoordinates) {
  Rng rng(13);
  const PamFamily& family = SharedPamFamily();
  Sequence a = Random(90, 13);
  Sequence b = MutateSequence(a, 60, family, &rng);
  const ScoringMatrix& matrix = family.Scoring(60);
  ASSERT_OK_AND_ASSIGN(AlignmentResult result,
                       SmithWatermanAlign(a, b, matrix));
  EXPECT_DOUBLE_EQ(result.score, SmithWatermanScore(a, b, matrix));
  // The aligned strings have equal length and no double gaps.
  ASSERT_EQ(result.a_aligned.size(), result.b_aligned.size());
  for (size_t i = 0; i < result.a_aligned.size(); ++i) {
    EXPECT_FALSE(result.a_aligned[i] == '-' && result.b_aligned[i] == '-');
  }
  // Stripping gaps reproduces the claimed subsequences.
  std::string a_sub, b_sub;
  for (char c : result.a_aligned) {
    if (c != '-') a_sub.push_back(c);
  }
  for (char c : result.b_aligned) {
    if (c != '-') b_sub.push_back(c);
  }
  EXPECT_EQ(a_sub, a.ToString().substr(result.a_begin,
                                       result.a_end - result.a_begin));
  EXPECT_EQ(b_sub, b.ToString().substr(result.b_begin,
                                       result.b_end - result.b_begin));
}

TEST(AlignTest, TracebackRejectsHugeInputs) {
  Sequence a = Random(10000, 14);
  Sequence b = Random(10000, 15);
  EXPECT_TRUE(SmithWatermanAlign(a, b, SharedPamFamily().Scoring(250))
                  .status()
                  .IsInvalidArgument());
}

// --- Refinement -------------------------------------------------------------------

class RefinementRecovers : public ::testing::TestWithParam<int> {};

TEST_P(RefinementRecovers, EstimatesTrueDistance) {
  const int true_pam = GetParam();
  Rng rng(100 + static_cast<uint64_t>(true_pam));
  const PamFamily& family = SharedPamFamily();
  Sequence a = Random(300, 200 + static_cast<uint64_t>(true_pam));
  Sequence b = MutateSequence(a, true_pam, family, &rng);
  RefinementResult r = RefinePamDistance(a, b, family);
  EXPECT_GT(r.best_score, 0);
  EXPECT_GT(r.evaluations, 4);
  // The estimate should be within a factor ~2 of the true distance (the
  // likelihood surface is flat at this sequence length).
  EXPECT_GE(r.best_pam, true_pam / 2) << "true " << true_pam;
  EXPECT_LE(r.best_pam, true_pam * 2 + 20) << "true " << true_pam;
}

INSTANTIATE_TEST_SUITE_P(Distances, RefinementRecovers,
                         ::testing::Values(30, 60, 120, 240));

TEST(RefinementTest, RespectsBounds) {
  Rng rng(300);
  const PamFamily& family = SharedPamFamily();
  Sequence a = Random(100, 300);
  Sequence b = MutateSequence(a, 100, family, &rng);
  RefinementOptions options;
  options.min_pam = 50;
  options.max_pam = 200;
  RefinementResult r = RefinePamDistance(a, b, family, GapPenalty(), options);
  EXPECT_GE(r.best_pam, options.min_pam);
  EXPECT_LE(r.best_pam, options.max_pam);
}

// --- Generator --------------------------------------------------------------------

TEST(GeneratorTest, ProducesRequestedCount) {
  Rng rng(42);
  GeneratorOptions options;
  options.num_sequences = 100;
  SyntheticDataset data = GenerateDataset(options, &rng);
  EXPECT_EQ(data.dataset.size(), 100u);
  EXPECT_EQ(data.family_of.size(), 100u);
  EXPECT_GT(data.num_families, 10u);
}

TEST(GeneratorTest, DeterministicGivenSeed) {
  GeneratorOptions options;
  options.num_sequences = 40;
  Rng rng1(7), rng2(7);
  SyntheticDataset d1 = GenerateDataset(options, &rng1);
  SyntheticDataset d2 = GenerateDataset(options, &rng2);
  ASSERT_EQ(d1.dataset.size(), d2.dataset.size());
  for (size_t i = 0; i < d1.dataset.size(); ++i) {
    EXPECT_EQ(d1.dataset[i].ToString(), d2.dataset[i].ToString());
  }
}

TEST(GeneratorTest, LengthsRespectMinimumAndMean) {
  Rng rng(43);
  GeneratorOptions options;
  options.num_sequences = 400;
  SyntheticDataset data = GenerateDataset(options, &rng);
  double total = 0;
  for (const auto& s : data.dataset.sequences()) {
    EXPECT_GE(s.length(), options.min_length);
    total += static_cast<double>(s.length());
  }
  double mean = total / 400;
  EXPECT_GT(mean, options.mean_length * 0.7);
  EXPECT_LT(mean, options.mean_length * 1.3);
}

TEST(GeneratorTest, FamiliesShareSimilarity) {
  Rng rng(44);
  GeneratorOptions options;
  options.num_sequences = 30;
  options.max_member_pam = 120;
  options.fragment_probability = 0;
  SyntheticDataset data = GenerateDataset(options, &rng);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  // Compare one family pair against one cross-family pair.
  int fam_a = -1, fam_b = -1;
  for (size_t i = 0; i < data.family_of.size() && fam_a < 0; ++i) {
    for (size_t j = i + 1; j < data.family_of.size(); ++j) {
      if (data.SameFamily(i, j)) {
        fam_a = static_cast<int>(i);
        fam_b = static_cast<int>(j);
        break;
      }
    }
  }
  ASSERT_GE(fam_a, 0);
  int other = -1;
  for (size_t j = 0; j < data.family_of.size(); ++j) {
    if (!data.SameFamily(fam_a, j) && static_cast<int>(j) != fam_a) {
      other = static_cast<int>(j);
      break;
    }
  }
  ASSERT_GE(other, 0);
  double family_score = SmithWatermanScore(
      data.dataset[fam_a], data.dataset[fam_b], matrix);
  double cross_score = SmithWatermanScore(
      data.dataset[fam_a], data.dataset[other], matrix);
  EXPECT_GT(family_score, cross_score);
}

TEST(GeneratorTest, MutateSequencePreservesLength) {
  Rng rng(45);
  Sequence root = Random(150, 45);
  Sequence mutated = MutateSequence(root, 100, SharedPamFamily(), &rng);
  EXPECT_EQ(mutated.length(), root.length());
}

TEST(GeneratorTest, MutationRateMatchesPamDistance) {
  // Note: the mutation rng must not share the root's seed, or the
  // correlated uniform streams hide the mutations entirely.
  Rng rng(47);
  const PamFamily& family = SharedPamFamily();
  Sequence root = Random(5000, 46);
  for (int pam : {10, 50, 200}) {
    Sequence mutated = MutateSequence(root, pam, family, &rng);
    size_t diffs = 0;
    for (size_t i = 0; i < root.length(); ++i) {
      if (root[i] != mutated[i]) ++diffs;
    }
    double observed = static_cast<double>(diffs) / root.length();
    double expected = family.ExpectedDifference(pam);
    EXPECT_NEAR(observed, expected, 0.03) << "pam " << pam;
  }
}

TEST(GeneratorTest, MetaMatchesFullGeneratorStatistics) {
  GeneratorOptions options;
  options.num_sequences = 2000;
  Rng rng1(9), rng2(10);
  SyntheticDataset full = GenerateDataset(options, &rng1);
  DatasetMeta meta = GenerateDatasetMeta(options, &rng2);
  ASSERT_EQ(meta.lengths.size(), 2000u);
  ASSERT_EQ(meta.family_of.size(), 2000u);
  // Mean lengths agree within 10%.
  double mean_full = static_cast<double>(full.dataset.TotalResidues()) / 2000;
  double mean_meta = 0;
  for (uint32_t l : meta.lengths) mean_meta += l;
  mean_meta /= 2000;
  EXPECT_NEAR(mean_meta / mean_full, 1.0, 0.1);
}

// --- Matches -----------------------------------------------------------------------

TEST(MatchTest, LineRoundTrip) {
  Match m{12, 99, 145.25, 87.5};
  ASSERT_OK_AND_ASSIGN(Match parsed, Match::FromLine(m.ToLine()));
  EXPECT_EQ(parsed.entry_a, 12u);
  EXPECT_EQ(parsed.entry_b, 99u);
  EXPECT_NEAR(parsed.score, 145.25, 1e-3);
  EXPECT_NEAR(parsed.pam_distance, 87.5, 1e-2);
}

TEST(MatchTest, TextRoundTripAndSorts) {
  std::vector<Match> matches = {
      {5, 6, 10, 200}, {1, 9, 30, 50}, {1, 2, 20, 120}};
  ASSERT_OK_AND_ASSIGN(std::vector<Match> parsed,
                       MatchesFromText(MatchesToText(matches)));
  ASSERT_EQ(parsed.size(), 3u);
  SortByEntry(&parsed);
  EXPECT_EQ(parsed[0].entry_a, 1u);
  EXPECT_EQ(parsed[0].entry_b, 2u);
  EXPECT_EQ(parsed[2].entry_a, 5u);
  SortByPamDistance(&parsed);
  EXPECT_EQ(parsed[0].pam_distance, 50);
  EXPECT_EQ(parsed[2].pam_distance, 200);
}

TEST(MatchTest, RejectsMalformedLines) {
  EXPECT_FALSE(Match::FromLine("1 2 3").ok());
  EXPECT_FALSE(Match::FromLine("a b c d").ok());
  EXPECT_FALSE(MatchesFromText("1 2 3 4\nbroken\n").ok());
}

// --- Cost model -------------------------------------------------------------------

TEST(CostModelTest, PairCostScalesWithCells) {
  CostModel model;
  Duration small = model.PairCost(100, 100);
  Duration big = model.PairCost(200, 200);
  EXPECT_NEAR(big / small, 4.0, 0.01);
}

TEST(CostModelTest, TeuCostMatchesBruteForce) {
  CostModelOptions options;
  CostModel model(options);
  std::vector<uint32_t> lengths = {100, 250, 30, 400, 120, 90};
  // Brute force: each entry i against all later entries.
  double cells = 0;
  for (size_t i = 1; i < 4; ++i) {
    for (size_t j = i + 1; j < lengths.size(); ++j) {
      cells += static_cast<double>(lengths[i]) * lengths[j];
    }
  }
  double expected =
      cells * options.sw_cell_seconds *
          (1.0 + options.match_rate * options.refine_evaluations) +
      options.darwin_init_seconds;
  Duration cost = model.TeuCost(lengths, 1, 4);
  EXPECT_NEAR(cost.ToSeconds(), expected, expected * 0.1 + 1);
}

TEST(CostModelTest, PreparedAndUnpreparedAgree) {
  std::vector<uint32_t> lengths;
  Rng rng(50);
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<uint32_t>(rng.UniformInt(50, 800)));
  }
  CostModel unprepared;
  CostModel prepared;
  prepared.Prepare(lengths);
  Duration a = unprepared.TeuCost(lengths, 20, 60);
  Duration b = prepared.TeuCost(lengths, 20, 60);
  EXPECT_NEAR(a.ToSeconds(), b.ToSeconds(), 1e-6);
}

TEST(CostModelTest, ResidueTablesMatchWalks) {
  std::vector<uint32_t> lengths;
  Rng rng(51);
  for (int i = 0; i < 200; ++i) {
    lengths.push_back(static_cast<uint32_t>(rng.UniformInt(50, 800)));
  }
  CostModel model;
  model.Prepare(lengths);
  for (size_t i = 0; i <= lengths.size(); ++i) {
    double prefix = 0;
    for (size_t j = 0; j < i; ++j) prefix += lengths[j];
    double suffix = 0;
    for (size_t j = lengths.size(); j > i; --j) suffix += lengths[j - 1];
    ASSERT_EQ(model.PrefixResidues(i), prefix) << i;
    ASSERT_EQ(model.SuffixResidues(i), suffix) << i;
  }
}

TEST(CostModelTest, FullDatasetCpuMatchesFig4Calibration) {
  // 532 entries at mean length ~360 must land near the paper's ~2750 s
  // serial CPU time (single TEU, both passes, one Darwin init each).
  Rng rng(532);
  GeneratorOptions gen;
  gen.num_sequences = 532;
  DatasetMeta meta = GenerateDatasetMeta(gen, &rng);
  CostModel model;
  model.Prepare(meta.lengths);
  Duration cpu = model.TeuCost(meta.lengths, 0, meta.lengths.size());
  EXPECT_GT(cpu.ToSeconds(), 1300);
  EXPECT_LT(cpu.ToSeconds(), 5500);
}

}  // namespace
}  // namespace biopera::darwin
