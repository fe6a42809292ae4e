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

/// Splits one ordered view of an instance-keyed table into per-id groups.
/// Keys are "<id>/<record>", so an id's rows are contiguous in key order;
/// each key is stripped in place (the view moves, the image does not).
Spaces::InstanceScan GroupByInstance(std::vector<RecordStore::RowView> rows) {
  auto id_of = [](std::string_view key) {
    return key.substr(0, key.find('/'));
  };
  Spaces::InstanceScan out;
  out.rows = std::move(rows);
  const std::span<RecordStore::RowView> all(out.rows);
  for (size_t begin = 0; begin < all.size();) {
    const std::string_view id = id_of(all[begin].key);
    size_t end = begin;
    for (; end < all.size() && id_of(all[end].key) == id; ++end) {
      std::string_view& key = all[end].key;
      key.remove_prefix(std::min(key.size(), id.size() + 1));  // "<id>/"
    }
    out.instances.push_back({id, all.subspan(begin, end - begin)});
    begin = end;
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
  for (const RecordStore::RowView& row : store_->View(kTemplateTable)) {
    out.emplace_back(row.key);
  }
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

Spaces::InstanceScan Spaces::ScanInstances() const {
  return GroupByInstance(store_->View(kInstanceTable));
}

Status Spaces::DeleteInstance(std::string_view instance_id) {
  std::string prefix(instance_id);
  prefix.push_back('/');
  WriteBatch batch;
  for (const RecordStore::RowView& row : store_->View(kInstanceTable, prefix)) {
    batch.Delete(kInstanceTable, row.key);
  }
  // Lineage is instance-scoped: archiving the instance retires its
  // provenance rows too (history stays, as before).
  for (const RecordStore::RowView& row :
       store_->View(kProvenanceTable, prefix)) {
    batch.Delete(kProvenanceTable, row.key);
  }
  return store_->Apply(batch, epoch_);
}

void Spaces::BatchPutProvenance(WriteBatch* batch,
                                std::string_view instance_id,
                                std::string_view key, std::string_view value) {
  batch->Put(kProvenanceTable, InstanceKey(instance_id, key), value);
}

std::vector<RecordStore::RowView> Spaces::ScanProvenance(
    std::string_view instance_id) const {
  std::string prefix(instance_id);
  prefix.push_back('/');
  std::vector<RecordStore::RowView> rows =
      store_->View(kProvenanceTable, prefix);
  for (RecordStore::RowView& row : rows) row.key.remove_prefix(prefix.size());
  return rows;
}

Spaces::InstanceScan Spaces::ScanProvenanceByInstance() const {
  return GroupByInstance(store_->View(kProvenanceTable));
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
  for (const RecordStore::RowView& row : store_->View(kHistoryTable)) {
    size_t tab = row.value.find('\t');
    if (tab == std::string_view::npos) continue;
    if (row.value.substr(0, tab) == instance_id) {
      out.emplace_back(row.value.substr(tab + 1));
    }
  }
  return out;
}

}  // namespace biopera
