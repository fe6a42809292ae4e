#ifndef BIOPERA_CORE_PROVENANCE_H_
#define BIOPERA_CORE_PROVENANCE_H_

#include <span>
#include <string>
#include <utility>
#include <vector>

#include "common/result.h"
#include "obs/lineage.h"
#include "ocr/value.h"
#include "store/spaces.h"

namespace biopera::core {

/// (name, descriptor) pairs: a lineage record's inputs, params or outputs.
using Descriptors = std::vector<std::pair<std::string, std::string>>;

// The provenance space's row format. Each attempt of a task has an in-row,
// written with its dispatch, and an out-row, written with its outcome,
// keyed "<path>/aNNNN/in" and "<path>/aNNNN/out": attempts are
// zero-padded, so the store's key order is (path, attempt) order with the
// in-row first. LineageFromRows reads both back into one record.

/// Renders one activity parameter/output value as a short, stable
/// descriptor: scalars verbatim, {first, last} maps as half-open ranges
/// (sequence-queue partitions), anything bulky as size + content digest —
/// lineage rows stay small no matter how large a match set grows, while
/// different contents still yield different descriptors.
std::string DescribeValue(const ocr::Value& v);
/// DescribeValue of every entry of `m`, in key order.
Descriptors DescribeValueMap(const ocr::Value::Map& m);

/// Writes the dispatch half of `record` (binding, node, dispatch time,
/// inputs, params) as its attempt's in-row. A timeout or migration
/// re-dispatch of the same attempt number overwrites it: the row describes
/// the dispatch that finally reported.
void PutLineageIn(Spaces* spaces, WriteBatch* batch,
                  const obs::LineageRecord& record);
/// Writes the outcome half of `record` (outcome, finish time, cost,
/// outputs) as its attempt's out-row.
void PutLineageOut(Spaces* spaces, WriteBatch* batch,
                   const obs::LineageRecord& record);

/// Decodes an instance's provenance rows (key order, "<id>/" stripped),
/// one record per attempt; rows of an unknown shape are skipped.
Result<std::vector<obs::LineageRecord>> LineageFromRows(
    const std::string& instance_id,
    std::span<const RecordStore::RowView> rows);

}  // namespace biopera::core

#endif  // BIOPERA_CORE_PROVENANCE_H_
