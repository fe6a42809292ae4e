// Alignment-kernel throughput and cost-model calibration.
//
// Measures DP cells/second of every Smith-Waterman kernel the host
// supports (double-precision scalar baseline, SSE2, AVX2) on length-360
// random pairs — the dataset's mean length; each row is the median of
// kWindows timing windows, printed with their min–max — then derives a
// modern-hardware `sw_cell_seconds` from the fastest kernel
// (CalibratedCostOptions) with the kernel variant recorded as
// provenance. The `exact-batch` row times the batched exact double
// kernel (ExactScores) on the same pairs, and the bench fails if any of
// its scores differs in bits from SmithWatermanScore. Finally it runs
// the small real-dataset all-vs-all once inline and once on a
// real-thread pool, checking the span/lineage exports stay
// byte-identical while recording both wall-clock times.
//
// `--json[=path]` writes BENCH_alignment.json for the CI artifact.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "bench/bench_common.h"
#include "common/rng.h"
#include "common/strings.h"
#include "common/table.h"
#include "darwin/align.h"
#include "darwin/align_simd.h"
#include "darwin/cost_model.h"
#include "darwin/generator.h"
#include "darwin/pam.h"
#include "exec/thread_pool.h"
#include "workloads/allvsall.h"

namespace biopera::bench {
namespace {

using darwin::Sequence;
using darwin::SwKernel;

constexpr size_t kLength = 360;
constexpr size_t kTargets = 32;
constexpr double kWindowSeconds = 0.2;
constexpr int kWindows = 5;

Sequence MakeRandom(size_t length, uint64_t seed) {
  Rng rng(seed);
  const auto& f = darwin::BackgroundFrequencies();
  std::vector<double> weights(f.begin(), f.end());
  std::vector<uint8_t> residues(length);
  for (auto& r : residues) r = static_cast<uint8_t>(rng.Discrete(weights));
  return Sequence("bench", std::move(residues));
}

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Cells per second over kWindows windows: the median and the spread.
struct Throughput {
  double cells_per_second = 0;
  double min = 0;
  double max = 0;
};

/// After one warm-up call, times kWindows windows, each repeating `body`
/// (which processes `cells_per_round` DP cells) until at least
/// kWindowSeconds elapsed. A single window swings by up to a third from
/// run to run on a shared host; the median of several does not.
template <typename Body>
Throughput Measure(double cells_per_round, Body body) {
  body();  // warm-up: profile construction, cache effects
  std::vector<double> rates;
  for (int window = 0; window < kWindows; ++window) {
    double start = NowSeconds();
    double rounds = 0;
    do {
      body();
      ++rounds;
    } while (NowSeconds() - start < kWindowSeconds);
    rates.push_back(cells_per_round * rounds / (NowSeconds() - start));
  }
  std::sort(rates.begin(), rates.end());
  return Throughput{rates[rates.size() / 2], rates.front(), rates.back()};
}

std::string Spread(const Throughput& t) {
  return StrFormat("%.3g-%.3g", t.min, t.max);
}

struct PoolRun {
  double wall_seconds = 0;
  std::string spans;
  std::string lineage;
};

/// The 24-entry real-mode all-vs-all (actual kernels, not the cost
/// model), optionally pre-executing activities on `pool`.
PoolRun RunRealAllVsAll(exec::ThreadPool* pool) {
  Rng rng(7);
  darwin::GeneratorOptions gen;
  gen.num_sequences = 24;
  gen.mean_length = 120;
  gen.min_length = 60;
  gen.max_member_pam = 100;
  gen.fragment_probability = 0;
  auto data = darwin::GenerateDataset(gen, &rng);
  auto ctx = workloads::MakeRealContext(&data.dataset,
                                        &darwin::SharedPamFamily(), 60);
  core::EngineOptions options;
  options.executor = pool;
  BenchWorld world(options);
  AddIkSunCluster(world.cluster.get());
  if (!workloads::RegisterAllVsAllActivities(&world.registry, ctx).ok()) {
    std::abort();
  }
  if (!world.engine->Startup().ok()) std::abort();
  world.engine->RegisterTemplate(workloads::BuildAllVsAllProcess());
  world.engine->RegisterTemplate(workloads::BuildAlignPartitionProcess());
  ocr::Value::Map args;
  args["db_name"] = ocr::Value("calib-real24");
  args["num_teus"] = ocr::Value(6);
  double start = NowSeconds();
  auto id = world.engine->StartProcess("all_vs_all", args);
  if (!id.ok()) std::abort();
  world.sim.Run();
  PoolRun out;
  out.wall_seconds = NowSeconds() - start;
  auto summary = world.engine->Summary(*id);
  if (!summary.ok() || summary->state != core::InstanceState::kDone) {
    std::fprintf(stderr, "alignment_calibration: real run did not finish\n");
    std::abort();
  }
  out.spans = world.obs.spans.ExportJsonl();
  out.lineage = world.engine->ExportLineageJsonl(*id).value_or("");
  return out;
}

int Main(int argc, char** argv) {
  std::string json_path =
      JsonPathFromArgs(argc, argv, "BENCH_alignment.json");
  std::printf("== Alignment kernels: throughput and calibration ==\n\n");

  Sequence query = MakeRandom(kLength, 1);
  std::vector<Sequence> target_storage;
  std::vector<const Sequence*> targets;
  for (size_t t = 0; t < kTargets; ++t) {
    target_storage.push_back(MakeRandom(kLength, 100 + t));
  }
  for (const auto& s : target_storage) targets.push_back(&s);
  const darwin::ScoringMatrix& matrix = darwin::SharedPamFamily().Scoring(250);
  const darwin::QuantizedMatrix& qmatrix =
      darwin::SharedPamFamily().QuantizedScoring(250);
  const double batch_cells =
      static_cast<double>(kLength) * kLength * kTargets;

  BenchJson json("alignment");
  TextTable table({"kernel", "cells/s", "min-max", "vs scalar"});

  // Double-precision scalar: the pre-SIMD production baseline.
  Throughput scalar = Measure(batch_cells, [&] {
    for (const Sequence* t : targets) {
      darwin::SmithWatermanScore(query, *t, matrix);
    }
  });
  table.AddRow({"scalar", StrFormat("%.3g", scalar.cells_per_second),
                Spread(scalar), "1.0"});
  json.Add("kernel_scalar",
           {{"cells_per_s", scalar.cells_per_second},
            {"cells_per_s_min", scalar.min},
            {"cells_per_s_max", scalar.max},
            {"length", static_cast<double>(kLength)},
            {"speedup_vs_scalar", 1.0}});

  double best_cells_per_second = scalar.cells_per_second;
  std::string best_kernel = "scalar";
  for (SwKernel kernel : {SwKernel::kSse2, SwKernel::kAvx2}) {
    std::string name(darwin::SwKernelName(kernel));
    if (!darwin::SwKernelSupported(kernel)) {
      table.AddRow({name, "unsupported", "-", "-"});
      continue;
    }
    Throughput simd = Measure(batch_cells, [&] {
      darwin::ScorePairs(query, targets, matrix, qmatrix, {}, kernel);
    });
    double speedup = simd.cells_per_second / scalar.cells_per_second;
    table.AddRow({name, StrFormat("%.3g", simd.cells_per_second),
                  Spread(simd), StrFormat("%.1fx", speedup)});
    json.Add(StrFormat("kernel_%s", name.c_str()),
             {{"cells_per_s", simd.cells_per_second},
              {"cells_per_s_min", simd.min},
              {"cells_per_s_max", simd.max},
              {"length", static_cast<double>(kLength)},
              {"speedup_vs_scalar", speedup}});
    if (simd.cells_per_second > best_cells_per_second) {
      best_cells_per_second = simd.cells_per_second;
      best_kernel = name;
    }
  }

  // The batched exact double kernel over the same pairs: four pairs per
  // vector on AVX2 hosts, the scalar reference pair by pair elsewhere.
  // Its scores must equal SmithWatermanScore's in every bit.
  std::vector<darwin::SequencePair> pairs;
  for (const Sequence* t : targets) pairs.push_back({&query, t});
  const std::vector<double> batched = darwin::ExactScores(pairs, matrix);
  size_t bit_differences = 0;
  for (size_t i = 0; i < pairs.size(); ++i) {
    const double want = darwin::SmithWatermanScore(query, *targets[i], matrix);
    if (std::memcmp(&batched[i], &want, sizeof(double)) != 0) {
      ++bit_differences;
    }
  }
  Throughput exact = Measure(batch_cells, [&] {
    darwin::ExactScores(pairs, matrix);
  });
  const double exact_speedup =
      exact.cells_per_second / scalar.cells_per_second;
  table.AddRow({"exact-batch", StrFormat("%.3g", exact.cells_per_second),
                Spread(exact), StrFormat("%.1fx", exact_speedup)});
  json.Add("kernel_exact_batch",
           {{"cells_per_s", exact.cells_per_second},
            {"cells_per_s_min", exact.min},
            {"cells_per_s_max", exact.max},
            {"length", static_cast<double>(kLength)},
            {"speedup_vs_scalar", exact_speedup},
            {"bit_differences", static_cast<double>(bit_differences)}},
           {{"kernel", std::string(darwin::SwKernelName(
                           darwin::ResolveSwKernel()))}});

  std::printf("%s\n", table.ToString().c_str());
  std::printf("exact-batch scores bit-identical to SmithWatermanScore: %s\n\n",
              bit_differences == 0 ? "yes" : "NO");

  // Cost-model calibration from the fastest kernel, with provenance.
  darwin::CostModelOptions calibrated =
      darwin::CalibratedCostOptions(best_cells_per_second);
  darwin::CostModelOptions reference;
  std::printf("calibration: %s kernel => sw_cell_seconds = %.3g "
              "(reference 1999 model: %.3g, %.0fx)\n\n",
              best_kernel.c_str(), calibrated.sw_cell_seconds,
              reference.sw_cell_seconds,
              reference.sw_cell_seconds / calibrated.sw_cell_seconds);
  json.Add("calibration",
           {{"sw_cell_seconds", calibrated.sw_cell_seconds},
            {"cells_per_s", best_cells_per_second},
            {"reference_sw_cell_seconds", reference.sw_cell_seconds}},
           {{"kernel", best_kernel}});

  // Real-thread execution beneath virtual time: byte-identical exports,
  // wall-clock recorded for both configurations.
  PoolRun inline_run = RunRealAllVsAll(nullptr);
  exec::ThreadPool pool(exec::ThreadPool::HardwareThreads());
  PoolRun pooled_run = RunRealAllVsAll(&pool);
  bool identical = inline_run.spans == pooled_run.spans &&
                   inline_run.lineage == pooled_run.lineage;
  std::printf("real all-vs-all (24 entries): inline %.3fs, pool(%zu) %.3fs, "
              "exports byte-identical: %s\n",
              inline_run.wall_seconds, pool.size() + 1,
              pooled_run.wall_seconds, identical ? "yes" : "NO");
  json.Add("thread_pool_real_run",
           {{"inline_wall_s", inline_run.wall_seconds},
            {"pool_wall_s", pooled_run.wall_seconds},
            {"pool_threads", static_cast<double>(pool.size() + 1)},
            {"exports_byte_identical", identical ? 1.0 : 0.0}});
  if (!identical) {
    std::fprintf(stderr,
                 "alignment_calibration: pool run diverged from inline!\n");
    return 1;
  }

  if (!json_path.empty() && !json.Write(json_path)) return 1;
  if (bit_differences != 0) {
    std::fprintf(stderr,
                 "alignment_calibration: %zu exact-batch scores differ from "
                 "SmithWatermanScore\n",
                 bit_differences);
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace biopera::bench

int main(int argc, char** argv) { return biopera::bench::Main(argc, argv); }
