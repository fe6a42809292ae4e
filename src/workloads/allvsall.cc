#include "workloads/allvsall.h"

#include <algorithm>
#include <cmath>
#include <cassert>
#include <utility>

#include "common/strings.h"
#include "darwin/align.h"
#include "darwin/align_simd.h"
#include "darwin/pam.h"
#include "ocr/builder.h"
#include "workloads/partition.h"

namespace biopera::workloads {

using core::ActivityFn;
using core::ActivityInput;
using core::ActivityOutput;
using core::ActivityRegistry;
using darwin::Match;
using ocr::ProcessDef;
using ocr::TaskBuilder;
using ocr::Value;

// ---------------------------------------------------------------------------
// Context
// ---------------------------------------------------------------------------

double AllVsAllContext::NoiseFactor(uint64_t tag, uint32_t first,
                                    uint32_t last) const {
  if (per_entry_noise_sigma <= 0 || last <= first) return 1.0;
  double sigma = std::min(
      0.6, per_entry_noise_sigma /
               std::sqrt(static_cast<double>(last - first)));
  Rng rng(noise_seed ^ (tag * 0x9e3779b97f4a7c15ULL) ^
          (static_cast<uint64_t>(first) << 32) ^ last);
  // Mean-one lognormal: exp(sigma Z - sigma^2/2).
  return std::exp(rng.Normal(0.0, sigma) - sigma * sigma / 2);
}

void AllVsAllContext::PrepareSynthetic() {
  family_members.clear();
  for (uint32_t i = 0; i < family_of.size(); ++i) {
    family_members[family_of[i]].push_back(i);
  }
  // Drop singleton families: they produce no matches.
  for (auto it = family_members.begin(); it != family_members.end();) {
    if (it->second.size() < 2) {
      it = family_members.erase(it);
    } else {
      ++it;
    }
  }
  cost_model.Prepare(lengths);
}

uint64_t AllVsAllContext::PairCount(uint32_t first, uint32_t last) const {
  const uint64_t n = lengths.size();
  // Sum over i in [first, last) of (n - 1 - i).
  uint64_t count = 0;
  for (uint64_t i = first; i < last && i < n; ++i) count += n - 1 - i;
  return count;
}

uint64_t AllVsAllContext::SyntheticMatchCount(uint32_t first,
                                              uint32_t last) const {
  uint64_t matches = 0;
  for (uint32_t i = first; i < last && i < family_of.size(); ++i) {
    auto fam = family_members.find(family_of[i]);
    if (fam == family_members.end()) continue;
    // Relatives with a larger index (the triangular structure).
    const auto& members = fam->second;
    auto it = std::upper_bound(members.begin(), members.end(), i);
    matches += static_cast<uint64_t>(members.end() - it);
  }
  // Deterministic expected count of spurious background matches.
  matches += static_cast<uint64_t>(
      static_cast<double>(PairCount(first, last)) * background_match_rate);
  return matches;
}

double AllVsAllContext::OldPartnerResidues() const {
  return cost_model.PrefixResidues(
      std::min<size_t>(update_from, lengths.size()));
}

double AllVsAllContext::PartnerResiduesAfter(const QueueEntries& entries,
                                             uint32_t last) const {
  const size_t n = entries.size();
  if (entries.is_range() && entries.first() + n == lengths.size()) {
    return cost_model.SuffixResidues(entries.first() +
                                     std::min<size_t>(last, n));
  }
  double suffix = 0;
  for (size_t j = n; j > last; --j) suffix += lengths[entries[j - 1]];
  return suffix;
}

uint64_t AllVsAllContext::PairCountFor(const QueueEntries& entries,
                                       uint32_t first, uint32_t last) const {
  uint64_t count = 0;
  for (uint32_t p = first; p < last && p < entries.size(); ++p) {
    // Later queue entries...
    count += entries.size() - 1 - p;
    // ...plus every old entry (update mode).
    count += update_from;
  }
  return count;
}

uint64_t AllVsAllContext::SyntheticMatchCountFor(const QueueEntries& entries,
                                                  uint32_t first,
                                                  uint32_t last) const {
  uint64_t matches = 0;
  for (uint32_t p = first; p < last && p < entries.size(); ++p) {
    uint32_t i = entries[p];
    auto fam = family_members.find(family_of[i]);
    if (fam != family_members.end()) {
      const auto& members = fam->second;
      // Relatives among later entries (the triangular structure)...
      auto later = std::upper_bound(members.begin(), members.end(), i);
      matches += static_cast<uint64_t>(members.end() - later);
      // ...plus relatives among the old entries (update mode).
      if (update_from > 0) {
        auto old_end = std::lower_bound(members.begin(), members.end(),
                                        update_from);
        matches += static_cast<uint64_t>(old_end - members.begin());
        // Avoid double counting relatives that are both old and > i
        // (impossible: old indexes < update_from <= i for new entries).
      }
    }
  }
  matches += static_cast<uint64_t>(
      static_cast<double>(PairCountFor(entries, first, last)) *
      background_match_rate);
  return matches;
}

std::shared_ptr<AllVsAllContext> MakeRealContext(
    const darwin::Dataset* dataset, const darwin::PamFamily* pam,
    double match_threshold) {
  auto ctx = std::make_shared<AllVsAllContext>();
  ctx->dataset = dataset;
  ctx->pam = pam;
  ctx->match_threshold = match_threshold;
  ctx->lengths = darwin::CostModel::Lengths(*dataset);
  ctx->cost_model.Prepare(ctx->lengths);
  return ctx;
}

std::shared_ptr<AllVsAllContext> MakeSyntheticContext(
    const darwin::SyntheticDataset& data,
    const darwin::CostModelOptions& cost_options) {
  return MakeSyntheticContext(darwin::CostModel::Lengths(data.dataset),
                              data.family_of, cost_options);
}

std::shared_ptr<AllVsAllContext> MakeSyntheticContext(
    std::vector<uint32_t> lengths, std::vector<uint32_t> family_of,
    const darwin::CostModelOptions& cost_options) {
  auto ctx = std::make_shared<AllVsAllContext>();
  ctx->lengths = std::move(lengths);
  ctx->family_of = std::move(family_of);
  ctx->cost_model = darwin::CostModel(cost_options);
  ctx->PrepareSynthetic();
  return ctx;
}

// ---------------------------------------------------------------------------
// Process definitions (Figure 3)
// ---------------------------------------------------------------------------

ProcessDef BuildAllVsAllProcess() {
  auto body = TaskBuilder::Subprocess("align", "align_partition")
                  .Input("item", "in.partition")
                  .Input("wb.db_name", "in.db_name")
                  .Input("wb.queue_file", "in.queue_file");
  Result<ProcessDef> def =
      ocr::ProcessBuilder("all_vs_all")
          .Data("db_name", Value(""))
          .Data("queue_file")
          .Data("num_teus", Value(50))
          .Data("output_files", Value("results"))
          .Data("partition")
          .Data("results")
          .Data("master_file")
          .Data("pam_sorted_file")
          .Data("total_matches")
          .Task(TaskBuilder::Activity("user_input", "avsa.user_input")
                    .Input("wb.db_name", "in.db_name")
                    .Input("wb.queue_file", "in.queue_file")
                    .Input("wb.output_files", "in.output_files")
                    .Retry(2, Duration::Seconds(10)))
          .Task(TaskBuilder::Activity("queue_generation", "avsa.queue_gen")
                    .Input("wb.db_name", "in.db_name")
                    .Output("out.queue_file", "wb.queue_file")
                    .Retry(3, Duration::Seconds(30)))
          .Task(TaskBuilder::Activity("preprocessing", "avsa.preprocess")
                    .Input("wb.queue_file", "in.queue_file")
                    .Input("wb.num_teus", "in.num_teus")
                    .Output("out.partition", "wb.partition")
                    .Retry(3, Duration::Seconds(30)))
          .Task(TaskBuilder::Parallel("alignment", "wb.partition",
                                      std::move(body))
                    .Collect("wb.results"))
          .Task(TaskBuilder::Activity("merge_by_entry", "avsa.merge_entry")
                    .Input("wb.results", "in.results")
                    .Input("wb.output_files", "in.output_files")
                    .Output("out.master_file", "wb.master_file")
                    .Output("out.match_count", "wb.total_matches")
                    .Retry(3, Duration::Minutes(2)))
          .Task(TaskBuilder::Activity("merge_by_pam", "avsa.merge_pam")
                    .Input("wb.results", "in.results")
                    .Output("out.pam_sorted_file", "wb.pam_sorted_file")
                    .Retry(3, Duration::Minutes(2)))
          .Connect("user_input", "queue_generation",
                   "!defined(wb.queue_file)")
          .Connect("user_input", "preprocessing", "defined(wb.queue_file)")
          .Connect("queue_generation", "preprocessing")
          .Connect("preprocessing", "alignment")
          .Connect("alignment", "merge_by_entry")
          .Connect("alignment", "merge_by_pam")
          .Build();
  assert(def.ok());
  return std::move(*def);
}

ProcessDef BuildAlignPartitionProcess() {
  Result<ProcessDef> def =
      ocr::ProcessBuilder("align_partition")
          .Data("partition")
          .Data("db_name", Value(""))
          .Data("queue_file")
          .Data("raw_matches")
          .Data("raw_count")
          .Data("matches")
          .Data("match_count")
          .Task(TaskBuilder::Activity("fixed_pam_alignment",
                                      "darwin.fixed_pam")
                    .ResourceClass("align")
                    .Input("wb.partition", "in.partition")
                    .Input("wb.queue_file", "in.queue_file")
                    .Output("out.matches", "wb.raw_matches")
                    .Output("out.count", "wb.raw_count")
                    .Retry(5, Duration::Minutes(2)))
          .Task(TaskBuilder::Activity("pam_refinement", "darwin.refine")
                    .ResourceClass("refine")
                    .Input("wb.partition", "in.partition")
                    .Input("wb.queue_file", "in.queue_file")
                    .Input("wb.raw_matches", "in.matches")
                    .Input("wb.raw_count", "in.count")
                    .Output("out.matches", "wb.matches")
                    .Output("out.count", "wb.match_count")
                    .Retry(5, Duration::Minutes(2)))
          .Connect("fixed_pam_alignment", "pam_refinement")
          .Build();
  assert(def.ok());
  return std::move(*def);
}

// ---------------------------------------------------------------------------
// Activity implementations
// ---------------------------------------------------------------------------

namespace {

/// Decodes a queue-file value: a map {"count": N, "first": F} standing
/// for the range [F, F + N) (F defaults to 0), an explicit list of entry
/// indexes, or null for the whole dataset.
Result<QueueEntries> DecodeQueue(const Value& queue, size_t dataset_size) {
  if (queue.is_null()) {
    return QueueEntries::Range(0, static_cast<uint32_t>(dataset_size));
  }
  if (queue.is_map()) {
    auto it = queue.AsMap().find("count");
    if (it == queue.AsMap().end() || !it->second.is_int()) {
      return Status::InvalidArgument("queue map needs int count");
    }
    int64_t n = it->second.AsInt();
    int64_t start = 0;
    auto first_it = queue.AsMap().find("first");
    if (first_it != queue.AsMap().end() && first_it->second.is_int()) {
      start = first_it->second.AsInt();
    }
    if (n < 0 || start < 0 || static_cast<uint64_t>(start) > dataset_size ||
        static_cast<uint64_t>(n) > dataset_size - start) {
      return Status::InvalidArgument("queue range out of bounds");
    }
    return QueueEntries::Range(static_cast<uint32_t>(start),
                               static_cast<uint32_t>(n));
  }
  if (queue.is_list()) {
    std::vector<uint32_t> entries;
    for (const Value& v : queue.AsList()) {
      if (!v.is_int() || v.AsInt() < 0 ||
          static_cast<size_t>(v.AsInt()) >= dataset_size) {
        return Status::InvalidArgument("bad queue entry");
      }
      entries.push_back(static_cast<uint32_t>(v.AsInt()));
    }
    return QueueEntries(std::move(entries));
  }
  return Status::InvalidArgument("queue file must be a map or a list");
}

/// Queue-position lengths for partitioning.
std::vector<uint32_t> QueueLengths(const AllVsAllContext& ctx,
                                   const QueueEntries& entries) {
  std::vector<uint32_t> out;
  out.reserve(entries.size());
  for (size_t p = 0; p < entries.size(); ++p) {
    out.push_back(ctx.lengths[entries[p]]);
  }
  return out;
}

/// DP cells of one pass over TEU [first, last): each TEU entry against
/// every later queue entry and every old entry. O(TEU) for a range that
/// ends at the dataset's end (full runs and update mode).
double TeuCells(const AllVsAllContext& ctx, const QueueEntries& entries,
                uint32_t first, uint32_t last) {
  // Walk backwards keeping the running suffix sum of partner lengths.
  double suffix = ctx.PartnerResiduesAfter(entries, last);
  const double old_partners = ctx.OldPartnerResidues();
  double cells = 0;
  for (size_t i = std::min<size_t>(last, entries.size()); i > first; --i) {
    const uint32_t length = ctx.lengths[entries[i - 1]];
    cells += static_cast<double>(length) * (suffix + old_partners);
    suffix += length;
  }
  return cells;
}

Duration FixedPassCost(const AllVsAllContext& ctx,
                       const QueueEntries& entries, uint32_t first,
                       uint32_t last) {
  const auto& opt = ctx.cost_model.options();
  return Duration::Seconds(TeuCells(ctx, entries, first, last) *
                               opt.sw_cell_seconds *
                               ctx.NoiseFactor(0, first, last) +
                           opt.darwin_init_seconds);
}

Duration RefinePassCost(const AllVsAllContext& ctx,
                        const QueueEntries& entries, uint32_t first,
                        uint32_t last) {
  const auto& opt = ctx.cost_model.options();
  double seconds = TeuCells(ctx, entries, first, last) * opt.sw_cell_seconds *
                       opt.match_rate * opt.refine_evaluations *
                       ctx.NoiseFactor(1, first, last) +
                   opt.darwin_init_seconds;
  return Duration::Seconds(seconds);
}

}  // namespace

Status RegisterAllVsAllActivities(ActivityRegistry* registry,
                                  std::shared_ptr<AllVsAllContext> context) {
  // --- user_input ----------------------------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "avsa.user_input", [](const ActivityInput& input) -> Result<ActivityOutput> {
        ActivityOutput out;
        if (!input.Get("db_name").is_string() ||
            input.Get("db_name").AsString().empty()) {
          return Status::InvalidArgument("user_input: db_name is required");
        }
        out.fields["db_name"] = input.Get("db_name");
        out.cost = Duration::Seconds(1);
        return out;
      }));

  // --- queue_generation ----------------------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "avsa.queue_gen",
      [ctx = context](const ActivityInput&) -> Result<ActivityOutput> {
        ActivityOutput out;
        Value::Map queue;
        queue["count"] = Value(static_cast<int64_t>(ctx->lengths.size()));
        out.fields["queue_file"] = Value(std::move(queue));
        out.cost = Duration::Seconds(
            2.0 + 1e-5 * static_cast<double>(ctx->lengths.size()));
        return out;
      }));

  // --- preprocessing -------------------------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "avsa.preprocess",
      [ctx = context](const ActivityInput& input) -> Result<ActivityOutput> {
        BIOPERA_ASSIGN_OR_RETURN(
            QueueEntries entries,
            DecodeQueue(input.Get("queue_file"), ctx->lengths.size()));
        const Value& num_teus = input.Get("num_teus");
        if (!num_teus.is_int() || num_teus.AsInt() <= 0) {
          return Status::InvalidArgument("preprocess: num_teus must be > 0");
        }
        std::vector<Teu> teus =
            ctx->partition_by_cost
                ? PartitionByCost(QueueLengths(*ctx, entries),
                                  static_cast<size_t>(num_teus.AsInt()))
                : PartitionByCount(entries.size(),
                                   static_cast<size_t>(num_teus.AsInt()));
        ActivityOutput out;
        out.fields["partition"] = TeusToValue(teus);
        out.provenance.emplace_back(
            "partition_strategy",
            ctx->partition_by_cost ? "by_cost" : "by_count");
        out.provenance.emplace_back(
            "queue_entries", StrFormat("%zu", entries.size()));
        out.cost = Duration::Seconds(
            2.0 + 2e-5 * static_cast<double>(entries.size()));
        return out;
      }));

  // --- fixed-PAM alignment pass (one TEU) ------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "darwin.fixed_pam",
      [ctx = context](const ActivityInput& input) -> Result<ActivityOutput> {
        BIOPERA_ASSIGN_OR_RETURN(Teu teu, TeuFromValue(input.Get("partition")));
        BIOPERA_ASSIGN_OR_RETURN(
            QueueEntries entries,
            DecodeQueue(input.Get("queue_file"), ctx->lengths.size()));
        if (teu.last > entries.size()) {
          return Status::InvalidArgument("fixed_pam: TEU beyond queue");
        }
        ActivityOutput out;
        out.cost = FixedPassCost(*ctx, entries, teu.first, teu.last);
        out.provenance.emplace_back(
            "pam_matrix",
            StrFormat("%s/pam%d",
                      std::string(darwin::PamFamilyVersion()).c_str(),
                      ctx->fixed_pam));
        out.provenance.emplace_back(
            "match_threshold", StrFormat("%g", ctx->match_threshold));
        out.provenance.emplace_back(
            "mode", ctx->dataset != nullptr ? "real" : "synthetic");
        if (ctx->dataset == nullptr) {
          out.provenance.emplace_back(
              "noise_seed",
              StrFormat("0x%llx",
                        static_cast<unsigned long long>(ctx->noise_seed)));
        }
        if (ctx->dataset != nullptr) {
          // Real computation: align each TEU entry against all later ones.
          const darwin::ScoringMatrix& matrix =
              ctx->pam->Scoring(ctx->fixed_pam);
          std::vector<Match> matches;
          // Fixed-PAM screen: one striped-SIMD batch per query entry, with
          // every pair inside the quantization band of the threshold
          // re-scored by the exact double kernel — the accept set and
          // the recorded scores are bit-identical to scoring every
          // pair with SmithWatermanScore. The band pairs of the whole
          // TEU are re-scored in one batch, and the matches are built in
          // the order the screen found them.
          const darwin::QuantizedMatrix& qmatrix =
              ctx->pam->QuantizedScoring(ctx->fixed_pam);
          const darwin::SwKernel kernel = darwin::ResolveSwKernel();
          darwin::ScorePairsStats sw_stats;
          std::vector<const darwin::Sequence*> targets;
          std::vector<uint32_t> partners;
          std::vector<darwin::SequencePair> band;
          std::vector<std::pair<uint32_t, uint32_t>> band_entries;
          for (uint32_t qi = teu.first; qi < teu.last; ++qi) {
            const uint32_t ei = entries[qi];
            const darwin::Sequence& sa = (*ctx->dataset)[ei];
            targets.clear();
            partners.clear();
            for (uint32_t old = 0; old < ctx->update_from; ++old) {
              targets.push_back(&(*ctx->dataset)[old]);
              partners.push_back(old);
            }
            for (size_t qj = qi + 1; qj < entries.size(); ++qj) {
              targets.push_back(&(*ctx->dataset)[entries[qj]]);
              partners.push_back(entries[qj]);
            }
            std::vector<double> scores =
                darwin::ScorePairs(sa, targets, matrix, qmatrix,
                                   darwin::GapPenalty{}, kernel, &sw_stats);
            for (size_t t = 0; t < targets.size(); ++t) {
              double bound = darwin::QuantizationErrorBound(
                  sa.length(), targets[t]->length(), qmatrix,
                  darwin::GapPenalty{});
              if (scores[t] < ctx->match_threshold - bound) continue;
              band.push_back({&sa, targets[t]});
              band_entries.emplace_back(std::min(ei, partners[t]),
                                        std::max(ei, partners[t]));
            }
          }
          const std::vector<double> exact = darwin::ExactScores(
              band, matrix, darwin::GapPenalty{}, kernel);
          for (size_t k = 0; k < band.size(); ++k) {
            if (exact[k] < ctx->match_threshold) continue;
            Match m;
            m.entry_a = band_entries[k].first;
            m.entry_b = band_entries[k].second;
            m.score = exact[k];
            m.pam_distance = ctx->fixed_pam;
            matches.push_back(m);
          }
          const uint64_t rescored = band.size();
          out.provenance.emplace_back(
              "sw_kernel", std::string(darwin::SwKernelName(kernel)));
          out.provenance.emplace_back(
              "sw_cells",
              StrFormat("%llu",
                        static_cast<unsigned long long>(sw_stats.cells)));
          out.provenance.emplace_back(
              "sw_rescored",
              StrFormat("%llu",
                        static_cast<unsigned long long>(rescored)));
          out.fields["matches"] = Value(darwin::MatchesToText(matches));
          out.fields["count"] = Value(static_cast<int64_t>(matches.size()));
        } else {
          uint64_t count =
              ctx->SyntheticMatchCountFor(entries, teu.first, teu.last);
          out.fields["count"] = Value(static_cast<int64_t>(count));
          out.fields["pairs"] = Value(static_cast<int64_t>(
              ctx->PairCountFor(entries, teu.first, teu.last)));
        }
        return out;
      }));

  // --- PAM-parameter refinement (one TEU's matches) ---------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "darwin.refine",
      [ctx = context](const ActivityInput& input) -> Result<ActivityOutput> {
        BIOPERA_ASSIGN_OR_RETURN(Teu teu, TeuFromValue(input.Get("partition")));
        BIOPERA_ASSIGN_OR_RETURN(
            QueueEntries entries,
            DecodeQueue(input.Get("queue_file"), ctx->lengths.size()));
        ActivityOutput out;
        out.cost = RefinePassCost(*ctx, entries, teu.first, teu.last);
        out.provenance.emplace_back(
            "pam_matrix", std::string(darwin::PamFamilyVersion()));
        out.provenance.emplace_back(
            "mode", ctx->dataset != nullptr ? "real" : "synthetic");
        if (ctx->dataset != nullptr) {
          const Value& raw = input.Get("matches");
          if (!raw.is_string()) {
            return Status::InvalidArgument("refine: matches text missing");
          }
          BIOPERA_ASSIGN_OR_RETURN(std::vector<Match> matches,
                                   darwin::MatchesFromText(raw.AsString()));
          for (Match& m : matches) {
            darwin::RefinementResult r = darwin::RefinePamDistance(
                (*ctx->dataset)[m.entry_a], (*ctx->dataset)[m.entry_b],
                *ctx->pam);
            m.pam_distance = r.best_pam;
            m.score = r.best_score;
          }
          out.fields["matches"] = Value(darwin::MatchesToText(matches));
          out.fields["count"] = Value(static_cast<int64_t>(matches.size()));
        } else {
          out.fields["count"] = input.Get("count");
        }
        return out;
      }));

  // --- merge by entry number --------------------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "avsa.merge_entry",
      [ctx = context](const ActivityInput& input) -> Result<ActivityOutput> {
        const Value& results = input.Get("results");
        if (!results.is_list()) {
          return Status::InvalidArgument("merge_entry: results list missing");
        }
        ActivityOutput out;
        std::vector<Match> all;
        int64_t total = 0;
        for (const Value& r : results.AsList()) {
          if (!r.is_map()) continue;  // skipped body
          auto count = r.AsMap().find("match_count");
          if (count != r.AsMap().end() && count->second.is_int()) {
            total += count->second.AsInt();
          }
          auto matches = r.AsMap().find("matches");
          if (ctx->dataset != nullptr && matches != r.AsMap().end() &&
              matches->second.is_string()) {
            BIOPERA_ASSIGN_OR_RETURN(
                std::vector<Match> part,
                darwin::MatchesFromText(matches->second.AsString()));
            all.insert(all.end(), part.begin(), part.end());
          }
        }
        if (ctx->dataset != nullptr) {
          darwin::SortByEntry(&all);
          out.fields["master_file"] = Value(darwin::MatchesToText(all));
          total = static_cast<int64_t>(all.size());
        } else {
          const Value& name = input.Get("output_files");
          out.fields["master_file"] =
              Value((name.is_string() ? name.AsString() : "results") +
                    ".by_entry");
        }
        out.fields["match_count"] = Value(total);
        out.cost = Duration::Seconds(5.0 + 1e-5 * static_cast<double>(total));
        return out;
      }));

  // --- merge by PAM distance ---------------------------------------------------
  BIOPERA_RETURN_IF_ERROR(registry->Register(
      "avsa.merge_pam",
      [ctx = context](const ActivityInput& input) -> Result<ActivityOutput> {
        const Value& results = input.Get("results");
        if (!results.is_list()) {
          return Status::InvalidArgument("merge_pam: results list missing");
        }
        ActivityOutput out;
        std::vector<Match> all;
        int64_t total = 0;
        for (const Value& r : results.AsList()) {
          if (!r.is_map()) continue;
          auto count = r.AsMap().find("match_count");
          if (count != r.AsMap().end() && count->second.is_int()) {
            total += count->second.AsInt();
          }
          auto matches = r.AsMap().find("matches");
          if (ctx->dataset != nullptr && matches != r.AsMap().end() &&
              matches->second.is_string()) {
            BIOPERA_ASSIGN_OR_RETURN(
                std::vector<Match> part,
                darwin::MatchesFromText(matches->second.AsString()));
            all.insert(all.end(), part.begin(), part.end());
          }
        }
        if (ctx->dataset != nullptr) {
          darwin::SortByPamDistance(&all);
          out.fields["pam_sorted_file"] = Value(darwin::MatchesToText(all));
          total = static_cast<int64_t>(all.size());
        } else {
          out.fields["pam_sorted_file"] = Value(std::string("results.by_pam"));
        }
        out.fields["match_count"] = Value(total);
        out.cost = Duration::Seconds(5.0 + 1e-5 * static_cast<double>(total));
        return out;
      }));

  return Status::OK();
}

}  // namespace biopera::workloads
