#include "store/spaces.h"

#include <algorithm>

#include "common/strings.h"

namespace biopera {

namespace {
constexpr char kTemplateTable[] = "template";
constexpr char kInstanceTable[] = "instance";
constexpr char kConfigTable[] = "config";
constexpr char kHistoryTable[] = "history";
constexpr char kProvenanceTable[] = "provenance";

std::string InstanceKey(std::string_view instance_id, std::string_view key) {
  std::string out(instance_id);
  out.push_back('/');
  out.append(key);
  return out;
}

/// Splits one ordered scan of an instance-keyed table into per-id groups.
/// Keys are "<id>/<record>", so an id's rows are contiguous in key order.
std::vector<Spaces::InstanceRecords> GroupByInstance(
    std::vector<std::pair<std::string, std::string>> rows) {
  auto id_of = [](std::string_view key) {
    return key.substr(0, key.find('/'));
  };
  std::vector<Spaces::InstanceRecords> out;
  for (auto begin = rows.begin(); begin != rows.end();) {
    // Each group is allocated once, at its exact size: growing it row by
    // row left enough heap slack to raise peak RSS.
    Spaces::InstanceRecords& group = out.emplace_back();
    group.id = id_of(begin->first);
    auto end = std::find_if(begin, rows.end(), [&](const auto& row) {
      return id_of(row.first) != group.id;
    });
    group.rows.reserve(end - begin);
    for (; begin != end; ++begin) {
      begin->first.erase(0, group.id.size() + 1);  // strip "<id>/"
      group.rows.emplace_back(std::move(begin->first),
                              std::move(begin->second));
    }
  }
  return out;
}

}  // namespace

Status Spaces::PutTemplate(std::string_view name, std::string_view ocr_text) {
  return store_->Put(kTemplateTable, name, ocr_text, epoch_);
}

Result<std::string> Spaces::GetTemplate(std::string_view name) const {
  return store_->Get(kTemplateTable, name);
}

std::vector<std::string> Spaces::ListTemplates() const {
  std::vector<std::string> out;
  for (auto& [k, v] : store_->Scan(kTemplateTable)) out.push_back(k);
  return out;
}

Status Spaces::PutInstanceRecord(std::string_view instance_id,
                                 std::string_view key,
                                 std::string_view value) {
  return store_->Put(kInstanceTable, InstanceKey(instance_id, key), value,
                     epoch_);
}

void Spaces::BatchPutInstanceRecord(WriteBatch* batch,
                                    std::string_view instance_id,
                                    std::string_view key,
                                    std::string_view value) {
  batch->Put(kInstanceTable, InstanceKey(instance_id, key), value);
}

void Spaces::BatchDeleteInstanceRecord(WriteBatch* batch,
                                       std::string_view instance_id,
                                       std::string_view key) {
  batch->Delete(kInstanceTable, InstanceKey(instance_id, key));
}

Result<std::string> Spaces::GetInstanceRecord(std::string_view instance_id,
                                              std::string_view key) const {
  return store_->Get(kInstanceTable, InstanceKey(instance_id, key));
}

std::vector<Spaces::InstanceRecords> Spaces::ScanInstances() const {
  return GroupByInstance(store_->Scan(kInstanceTable));
}

Status Spaces::DeleteInstance(std::string_view instance_id) {
  std::string prefix(instance_id);
  prefix.push_back('/');
  WriteBatch batch;
  for (auto& [k, v] : store_->Scan(kInstanceTable, prefix)) {
    batch.Delete(kInstanceTable, k);
  }
  // Lineage is instance-scoped: archiving the instance retires its
  // provenance rows too (history stays, as before).
  for (auto& [k, v] : store_->Scan(kProvenanceTable, prefix)) {
    batch.Delete(kProvenanceTable, k);
  }
  return store_->Apply(batch, epoch_);
}

void Spaces::BatchPutProvenance(WriteBatch* batch,
                                std::string_view instance_id,
                                std::string_view key, std::string_view value) {
  batch->Put(kProvenanceTable, InstanceKey(instance_id, key), value);
}

std::vector<std::pair<std::string, std::string>> Spaces::ScanProvenance(
    std::string_view instance_id) const {
  std::string prefix(instance_id);
  prefix.push_back('/');
  auto rows = store_->Scan(kProvenanceTable, prefix);
  for (auto& [k, v] : rows) k = k.substr(prefix.size());
  return rows;
}

std::vector<Spaces::InstanceRecords> Spaces::ScanProvenanceByInstance()
    const {
  return GroupByInstance(store_->Scan(kProvenanceTable));
}

Status Spaces::PutConfig(std::string_view key, std::string_view value) {
  return store_->Put(kConfigTable, key, value, epoch_);
}

Result<std::string> Spaces::GetConfig(std::string_view key) const {
  return store_->Get(kConfigTable, key);
}

std::vector<std::pair<std::string, std::string>> Spaces::ScanConfig() const {
  return store_->Scan(kConfigTable);
}

Status Spaces::AppendHistory(std::string_view instance_id,
                             std::string_view event) {
  if (!history_seq_loaded_) {
    // Resume the sequence after the existing records (recovery path).
    // History rows are never deleted, so their count is the next key.
    next_history_seq_ = store_->TableSize(kHistoryTable);
    history_seq_loaded_ = true;
  }
  std::string key =
      StrFormat("%016llu", static_cast<unsigned long long>(next_history_seq_));
  ++next_history_seq_;
  std::string value(instance_id);
  value.push_back('\t');
  value.append(event);
  return store_->Put(kHistoryTable, key, value, epoch_);
}

std::vector<std::string> Spaces::History(std::string_view instance_id) const {
  std::vector<std::string> out;
  for (auto& [k, v] : store_->Scan(kHistoryTable)) {
    size_t tab = v.find('\t');
    if (tab == std::string::npos) continue;
    if (std::string_view(v).substr(0, tab) == instance_id) {
      out.push_back(v.substr(tab + 1));
    }
  }
  return out;
}

}  // namespace biopera
