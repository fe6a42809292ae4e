// Microbenchmarks of the Darwin-substitute alignment kernels: they anchor
// the cost model (sw_cell_seconds on modern hardware vs the 1999 reference)
// and document the fixed-pass / refinement cost ratio the simulated
// experiments assume.
#include <benchmark/benchmark.h>

#include "bench/bench_main.h"
#include "common/rng.h"
#include "darwin/align.h"
#include "darwin/align_simd.h"
#include "darwin/generator.h"
#include "darwin/pam.h"

namespace biopera::darwin {
namespace {

Sequence MakeRandom(size_t length, uint64_t seed) {
  Rng rng(seed);
  const auto& f = BackgroundFrequencies();
  std::vector<double> weights(f.begin(), f.end());
  std::vector<uint8_t> residues(length);
  for (auto& r : residues) r = static_cast<uint8_t>(rng.Discrete(weights));
  return Sequence("bench", std::move(residues));
}

void BM_SmithWatermanScore(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Sequence a = MakeRandom(len, 1);
  Sequence b = MakeRandom(len, 2);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(SmithWatermanScore(a, b, matrix));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(len) * len * state.iterations(),
      benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SmithWatermanScore)->Arg(100)->Arg(360)->Arg(1000);

// The batched exact kernel on four pairs of the same length (one vector
// of four lanes on AVX2 hosts); its scores equal SmithWatermanScore's.
void BM_ExactScores(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  std::vector<Sequence> storage;
  for (uint64_t s = 0; s < 8; ++s) storage.push_back(MakeRandom(len, 40 + s));
  std::vector<SequencePair> pairs;
  for (size_t k = 0; k < 4; ++k) {
    pairs.push_back({&storage[2 * k], &storage[2 * k + 1]});
  }
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(ExactScores(pairs, matrix));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(len) * len * pairs.size() * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(SwKernelName(ResolveSwKernel())));
}
BENCHMARK(BM_ExactScores)->Arg(100)->Arg(360)->Arg(1000);

// Striped-SIMD kernels (one query profile, a batch of targets) next to
// the scalar baseline above; arg is the kernel enum value. Unsupported
// kernels skip so the suite runs unchanged on non-AVX2 machines.
void BM_SimdScorePairs(benchmark::State& state) {
  const auto kernel = static_cast<SwKernel>(state.range(0));
  if (!SwKernelSupported(kernel)) {
    state.SkipWithError("kernel unsupported on this host");
    return;
  }
  const size_t len = 360;
  const size_t num_targets = 16;
  Sequence query = MakeRandom(len, 31);
  std::vector<Sequence> storage;
  std::vector<const Sequence*> targets;
  for (size_t t = 0; t < num_targets; ++t) {
    storage.push_back(MakeRandom(len, 32 + t));
  }
  for (const auto& s : storage) targets.push_back(&s);
  const PamFamily& family = SharedPamFamily();
  const ScoringMatrix& matrix = family.Scoring(250);
  const QuantizedMatrix& qmatrix = family.QuantizedScoring(250);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        ScorePairs(query, targets, matrix, qmatrix, {}, kernel));
  }
  state.counters["cells/s"] = benchmark::Counter(
      static_cast<double>(len) * len * num_targets * state.iterations(),
      benchmark::Counter::kIsRate);
  state.SetLabel(std::string(SwKernelName(kernel)));
}
BENCHMARK(BM_SimdScorePairs)
    ->Arg(static_cast<int>(SwKernel::kScalar))
    ->Arg(static_cast<int>(SwKernel::kSse2))
    ->Arg(static_cast<int>(SwKernel::kAvx2));

void BM_SmithWatermanTraceback(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(3);
  Sequence a = MakeRandom(len, 3);
  Sequence b = MutateSequence(a, 120, SharedPamFamily(), &rng);
  const ScoringMatrix& matrix = SharedPamFamily().Scoring(120);
  for (auto _ : state) {
    auto result = SmithWatermanAlign(a, b, matrix);
    benchmark::DoNotOptimize(result);
  }
}
BENCHMARK(BM_SmithWatermanTraceback)->Arg(100)->Arg(360);

void BM_PamRefinement(benchmark::State& state) {
  const size_t len = static_cast<size_t>(state.range(0));
  Rng rng(4);
  Sequence a = MakeRandom(len, 4);
  Sequence b = MutateSequence(a, 180, SharedPamFamily(), &rng);
  int evaluations = 0;
  for (auto _ : state) {
    RefinementResult r = RefinePamDistance(a, b, SharedPamFamily());
    evaluations = r.evaluations;
    benchmark::DoNotOptimize(r);
  }
  state.counters["sw_evals"] = evaluations;
}
BENCHMARK(BM_PamRefinement)->Arg(100)->Arg(360);

void BM_PamMatrixPower(benchmark::State& state) {
  for (auto _ : state) {
    // A fresh family each iteration: measures the matrix-power pipeline.
    PamFamily family;
    benchmark::DoNotOptimize(family.Scoring(static_cast<int>(state.range(0))));
  }
}
BENCHMARK(BM_PamMatrixPower)->Arg(250)->Arg(719);

void BM_DatasetGeneration(benchmark::State& state) {
  GeneratorOptions options;
  options.num_sequences = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    Rng rng(7);
    benchmark::DoNotOptimize(GenerateDataset(options, &rng));
  }
}
BENCHMARK(BM_DatasetGeneration)->Arg(100)->Arg(532);

}  // namespace
}  // namespace biopera::darwin

int main(int argc, char** argv) {
  return biopera::bench::RunBenchmarkMain(argc, argv,
                                          "BENCH_micro_alignment.json");
}
