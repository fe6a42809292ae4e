#ifndef BIOPERA_STORE_SPACES_H_
#define BIOPERA_STORE_SPACES_H_

#include <string>
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
  /// One instance's records in key order, "<id>/" prefix stripped.
  struct InstanceRecords {
    std::string id;
    std::vector<std::pair<std::string, std::string>> rows;
  };
  /// Every instance's records from one ordered pass over the instance
  /// space, grouped by id in key order. An id's keys share the prefix
  /// "<id>/", so its rows are contiguous in that order. This is what
  /// restart reads; it costs one Scan of the whole table, not one per
  /// instance.
  std::vector<InstanceRecords> ScanInstances() const;
  Status DeleteInstance(std::string_view instance_id);

  // --- Provenance space ---------------------------------------------------
  /// Lineage records, keyed "<instance_id>/<record>" like the instance
  /// space. The engine writes them in the same commit batches as the
  /// task records they describe, so lineage is crash-atomic with the
  /// state transition it explains and is recovered with the instance.
  void BatchPutProvenance(WriteBatch* batch, std::string_view instance_id,
                          std::string_view key, std::string_view value);
  /// All of an instance's lineage records in key order, "<id>/" prefix
  /// stripped.
  std::vector<std::pair<std::string, std::string>> ScanProvenance(
      std::string_view instance_id) const;
  /// Every instance's lineage records from one ordered pass, grouped as
  /// ScanInstances groups the instance space (key order, which is not id
  /// order: "a-b/" sorts before "a/").
  std::vector<InstanceRecords> ScanProvenanceByInstance() const;

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
