#include "darwin/cost_model.h"

#include <cassert>

namespace biopera::darwin {

CostModelOptions CalibratedCostOptions(double cells_per_second,
                                       const CostModelOptions& base) {
  CostModelOptions out = base;
  if (cells_per_second > 0) out.sw_cell_seconds = 1.0 / cells_per_second;
  return out;
}

Duration CostModel::PairCost(size_t len_a, size_t len_b) const {
  double cells = static_cast<double>(len_a) * static_cast<double>(len_b);
  return Duration::Seconds(cells * options_.sw_cell_seconds);
}

void CostModel::Prepare(const std::vector<uint32_t>& lengths) {
  prefix_len_.assign(lengths.size() + 1, 0.0);
  for (size_t i = 0; i < lengths.size(); ++i) {
    prefix_len_[i + 1] = prefix_len_[i] + static_cast<double>(lengths[i]);
  }
  suffix_len_.assign(lengths.size() + 1, 0.0);
  for (size_t i = lengths.size(); i > 0; --i) {
    suffix_len_[i - 1] =
        suffix_len_[i] + static_cast<double>(lengths[i - 1]);
  }
}

double CostModel::PrefixResidues(size_t i) const {
  assert(i < prefix_len_.size());
  return prefix_len_[i];
}

double CostModel::SuffixResidues(size_t i) const {
  assert(i < suffix_len_.size());
  return suffix_len_[i];
}

Duration CostModel::TeuCost(const std::vector<uint32_t>& lengths,
                            size_t first, size_t last) const {
  assert(first <= last && last <= lengths.size());
  // If Prepare() was called with this dataset, reuse the suffix sums.
  const bool prepared = suffix_len_.size() == lengths.size() + 1;
  double cell_total = 0;
  for (size_t i = first; i < last; ++i) {
    double partners;
    if (prepared) {
      partners = suffix_len_[i + 1];
    } else {
      partners = 0;
      for (size_t j = i + 1; j < lengths.size(); ++j) {
        partners += static_cast<double>(lengths[j]);
      }
    }
    cell_total += static_cast<double>(lengths[i]) * partners;
  }
  // Fixed-PAM pass over all pairs + refinement on the matching share.
  double seconds =
      cell_total * options_.sw_cell_seconds *
          (1.0 + options_.match_rate * options_.refine_evaluations) +
      options_.darwin_init_seconds;
  // Match I/O: proportional to expected number of pairs * match rate.
  // Approximate the pair count as cells / (mean_len^2).
  if (last > first && !lengths.empty()) {
    double mean_len =
        (prepared ? suffix_len_[0] : cell_total) /* fallback below */;
    if (prepared) {
      mean_len = suffix_len_[0] / static_cast<double>(lengths.size());
    } else {
      double total = 0;
      for (uint32_t l : lengths) total += l;
      mean_len = total / static_cast<double>(lengths.size());
    }
    double pairs = cell_total / (mean_len * mean_len);
    seconds += pairs * options_.match_rate * options_.match_io_seconds;
  }
  return Duration::Seconds(seconds);
}

std::vector<uint32_t> CostModel::Lengths(const Dataset& dataset) {
  std::vector<uint32_t> out;
  out.reserve(dataset.size());
  for (const auto& s : dataset.sequences()) {
    out.push_back(static_cast<uint32_t>(s.length()));
  }
  return out;
}

}  // namespace biopera::darwin
