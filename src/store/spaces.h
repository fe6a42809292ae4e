#ifndef BIOPERA_STORE_SPACES_H_
#define BIOPERA_STORE_SPACES_H_

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "store/record_store.h"

namespace biopera {

/// BioOpera organizes its persistent data into four *spaces* (paper §3.2):
///  - the template space holds process definitions (OCR text),
///  - the instance space holds the state of executing processes,
///  - the configuration space holds the cluster/hardware description,
///  - the history (data) space holds the record of everything that already
///    executed, for monitoring, lineage and accounting queries.
///
/// Spaces are thin typed views over one RecordStore so that a single WAL
/// covers all engine state transitions atomically.
class Spaces {
 public:
  explicit Spaces(RecordStore* store) : store_(store) {}

  // --- Template space -----------------------------------------------------
  Status PutTemplate(std::string_view name, std::string_view ocr_text);
  Result<std::string> GetTemplate(std::string_view name) const;
  std::vector<std::string> ListTemplates() const;

  // --- Instance space -----------------------------------------------------
  /// Instance records are keyed "<instance_id>/<record>"; the engine stores
  /// one record per task plus a header. Batched writes keep a navigator
  /// transition atomic.
  Status PutInstanceRecord(std::string_view instance_id, std::string_view key,
                           std::string_view value);
  void BatchPutInstanceRecord(WriteBatch* batch, std::string_view instance_id,
                              std::string_view key, std::string_view value);
  void BatchDeleteInstanceRecord(WriteBatch* batch,
                                 std::string_view instance_id,
                                 std::string_view key);
  Result<std::string> GetInstanceRecord(std::string_view instance_id,
                                        std::string_view key) const;
  /// One instance's records in key order, "<id>/" stripped from each key:
  /// views into the store image, valid until the next write to their row
  /// (RecordStore::RowView).
  struct InstanceRows {
    std::string_view id;
    std::span<const RecordStore::RowView> rows;
  };
  /// An ordered view of an instance-keyed table, split by instance: `rows`
  /// holds the views and each group is a slice of it, so the scan copies
  /// no key or value. Move-only, since the groups point into `rows`.
  struct InstanceScan {
    InstanceScan() = default;
    InstanceScan(InstanceScan&&) = default;
    InstanceScan& operator=(InstanceScan&&) = default;
    InstanceScan(const InstanceScan&) = delete;
    InstanceScan& operator=(const InstanceScan&) = delete;

    std::vector<RecordStore::RowView> rows;
    std::vector<InstanceRows> instances;
  };
  /// Every instance's records from one ordered view of the instance space,
  /// grouped by id in key order. An id's keys share the prefix "<id>/", so
  /// its rows are contiguous in that order. This is what restart reads; it
  /// costs one View of the whole table, not one per instance.
  InstanceScan ScanInstances() const;
  Status DeleteInstance(std::string_view instance_id);

  // --- Provenance space ---------------------------------------------------
  /// Lineage records, keyed "<instance_id>/<record>" like the instance
  /// space. The engine writes them in the same commit batches as the
  /// task records they describe, so lineage is crash-atomic with the
  /// state transition it explains and is recovered with the instance.
  void BatchPutProvenance(WriteBatch* batch, std::string_view instance_id,
                          std::string_view key, std::string_view value);
  /// All of an instance's lineage records in key order, "<id>/" prefix
  /// stripped: views into the store image.
  std::vector<RecordStore::RowView> ScanProvenance(
      std::string_view instance_id) const;
  /// Every instance's lineage records from one ordered view, grouped as
  /// ScanInstances groups the instance space (key order, which is not id
  /// order: "a-b/" sorts before "a/").
  InstanceScan ScanProvenanceByInstance() const;

  // --- Configuration space ------------------------------------------------
  Status PutConfig(std::string_view key, std::string_view value);
  Result<std::string> GetConfig(std::string_view key) const;
  std::vector<std::pair<std::string, std::string>> ScanConfig() const;

  // --- History space ------------------------------------------------------
  /// Appends an event record; events get a monotonically increasing
  /// sequence number and are scanned back in order.
  Status AppendHistory(std::string_view instance_id, std::string_view event);
  std::vector<std::string> History(std::string_view instance_id) const;

  Status Apply(const WriteBatch& batch) {
    return store_->Apply(batch, epoch_);
  }
  RecordStore* store() { return store_; }

  /// Writer epoch stamped onto every commit issued through this view.
  /// 0 (the default) means unfenced; the engine sets the epoch it acquired
  /// at startup so a stale engine's commits are rejected after takeover.
  void set_epoch(uint64_t epoch) { epoch_ = epoch; }
  uint64_t epoch() const { return epoch_; }

 private:
  RecordStore* store_;
  uint64_t epoch_ = 0;
  uint64_t next_history_seq_ = 0;
  bool history_seq_loaded_ = false;
};

}  // namespace biopera

#endif  // BIOPERA_STORE_SPACES_H_
