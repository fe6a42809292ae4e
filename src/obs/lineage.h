#ifndef BIOPERA_OBS_LINEAGE_H_
#define BIOPERA_OBS_LINEAGE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace biopera::obs {

/// One attempt's provenance: which inputs a task execution consumed,
/// where it ran, and what it produced. The engine writes these in the
/// dispatch and outcome commits, with or without spans, to the store's
/// provenance space, so a record survives crashes along with the
/// instance it describes.
///
/// Descriptors are flat (key, value) string pairs:
///  - `inputs`  — the activity's bound input parameters, summarized
///    (sequence ranges as "[first,last)", large values by digest);
///  - `params`  — execution parameters the activity itself declares
///    (PAM matrix id/version, noise seed, thresholds);
///  - `outputs` — result summaries (match counts, content digests).
/// Pairs are kept in insertion order so exports are byte-deterministic.
struct LineageRecord {
  std::string instance;
  std::string task;  // stable tree path, e.g. "alignment[3]/fixed_pam"
  int attempt = 0;   // 1-based, matches the attempt span's attr
  std::string binding;
  std::string node;
  /// "completed", "failed", "timed_out", "migrated"; empty while the
  /// attempt is still in flight (dispatch recorded, no outcome yet).
  std::string outcome;
  int64_t dispatch_us = 0;
  int64_t finish_us = -1;  // -1 = still in flight
  int64_t cost_us = -1;    // CPU cost charged by the activity
  std::vector<std::pair<std::string, std::string>> inputs;
  std::vector<std::pair<std::string, std::string>> params;
  std::vector<std::pair<std::string, std::string>> outputs;

  /// Single-line JSON object (one JSONL row). Descriptor keys are
  /// prefixed "in.", "param.", "out." so the flat line remains
  /// loss-free.
  std::string ToJson() const;
};

/// Run-level facts heading a lineage export: one line identifying the
/// instance and the inputs every task shares — the RNG seed and the
/// configuration-space version. These are what run differencing checks
/// first.
struct LineageHeader {
  std::string instance;
  std::string template_name;
  std::string state;
  uint64_t seed = 0;
  std::string config_version;

  std::string ToJson() const;
};

/// Full lineage export: the header line followed by one line per
/// record, in the caller's (store key) order.
std::string LineageExportJsonl(const LineageHeader& header,
                               const std::vector<LineageRecord>& records);

}  // namespace biopera::obs

#endif  // BIOPERA_OBS_LINEAGE_H_
