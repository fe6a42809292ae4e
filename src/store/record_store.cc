#include "store/record_store.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "common/logging.h"
#include "common/strings.h"
#include "obs/barrier_profile.h"
#include "store/codec.h"
#include "store/snapshot.h"

namespace biopera {

namespace {
constexpr char kOpPut = 1;
constexpr char kOpDelete = 2;
// First payload byte of a segment. A delta's rows carry the op tags
// above: a put with its value, a delete (tombstone) without.
constexpr char kSegmentFull = 'F';
constexpr char kSegmentDelta = 'D';
// Per-record WAL framing overhead: crc32 + length (store/wal.cc).
constexpr uint64_t kWalRecordHeaderBytes = 8;
// Config-table key holding the current writer epoch (fencing token).
constexpr char kWriterEpochKey[] = "server/writer_epoch";
}  // namespace

void WriteBatch::Put(std::string_view table, std::string_view key,
                     std::string_view value) {
  // Reserve the op's exact upper bound up front (5 bytes covers any
  // varint length prefix) so a single-record batch costs one allocation.
  payload_.reserve(payload_.size() + 1 + 15 + table.size() + key.size() +
                   value.size());
  payload_.push_back(kOpPut);
  PutLengthPrefixed(&payload_, table);
  PutLengthPrefixed(&payload_, key);
  PutLengthPrefixed(&payload_, value);
  ++num_ops_;
}

void WriteBatch::Delete(std::string_view table, std::string_view key) {
  payload_.reserve(payload_.size() + 1 + 10 + table.size() + key.size());
  payload_.push_back(kOpDelete);
  PutLengthPrefixed(&payload_, table);
  PutLengthPrefixed(&payload_, key);
  ++num_ops_;
}

void WriteBatch::Clear() {
  payload_.clear();
  num_ops_ = 0;
}

Result<WriteBatch> WriteBatch::FromPayload(std::string_view payload) {
  // Validate and count without materializing the operations.
  std::string_view v = payload;
  size_t ops = 0;
  while (!v.empty()) {
    char tag = v.front();
    v.remove_prefix(1);
    if (tag != kOpPut && tag != kOpDelete) {
      return Status::Corruption("write batch: bad op tag");
    }
    std::string_view table, key, value;
    if (!GetLengthPrefixed(&v, &table) || !GetLengthPrefixed(&v, &key)) {
      return Status::Corruption("write batch: truncated op");
    }
    if (tag == kOpPut && !GetLengthPrefixed(&v, &value)) {
      return Status::Corruption("write batch: truncated value");
    }
    ++ops;
  }
  WriteBatch batch;
  batch.payload_.assign(payload);
  batch.num_ops_ = ops;
  return batch;
}

Result<std::vector<WriteBatch::Op>> WriteBatch::Ops() const {
  std::vector<Op> ops;
  std::string_view v = payload_;
  while (!v.empty()) {
    char tag = v.front();
    v.remove_prefix(1);
    Op op;
    op.is_put = (tag == kOpPut);
    if (tag != kOpPut && tag != kOpDelete) {
      return Status::Corruption("write batch: bad op tag");
    }
    std::string_view table, key, value;
    if (!GetLengthPrefixed(&v, &table) || !GetLengthPrefixed(&v, &key)) {
      return Status::Corruption("write batch: truncated op");
    }
    if (op.is_put && !GetLengthPrefixed(&v, &value)) {
      return Status::Corruption("write batch: truncated value");
    }
    op.table.assign(table);
    op.key.assign(key);
    op.value.assign(value);
    ops.push_back(std::move(op));
  }
  return ops;
}

RecordStore::CommitScope::CommitScope(RecordStore* store) : store_(store) {
  if (store_ != nullptr) ++store_->scope_depth_;
}

RecordStore::CommitScope::~CommitScope() {
  if (store_ == nullptr) return;
  if (--store_->scope_depth_ > 0) return;
  Status st = store_->Flush();
  if (st.ok()) st = store_->MaybeAutoCheckpoint();
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "commit group flush failed: " << st.ToString();
    // The image still holds the group and pending_ retains its payload;
    // give the engine a chance to stop dispatching and retry later.
    if (store_->flush_failure_handler_) store_->flush_failure_handler_(st);
  }
}

Result<std::unique_ptr<RecordStore>> RecordStore::Open(const std::string& dir,
                                                       Fs* fs) {
  if (fs == nullptr) fs = Fs::Default();
  BIOPERA_RETURN_IF_ERROR(fs->CreateDirs(dir));
  auto store = std::unique_ptr<RecordStore>(new RecordStore(dir, fs));

  // 1. Load the snapshot chain from the manifest. A directory without
  // one is a fresh store, unless it holds the single snapshot.dat of the
  // pre-manifest layout: opening that as WAL-only would silently drop
  // every record in the snapshot.
  Result<std::string> manifest = ReadSnapshot(store->ManifestPath(), fs);
  if (manifest.ok()) {
    BIOPERA_RETURN_IF_ERROR(store->LoadManifest(*manifest));
  } else if (manifest.status().IsFailedPrecondition()) {
    // An intact MANIFEST of the older snapshot version: its segments
    // replace tables wholesale and carry no segment kind, so they cannot
    // be read as full + delta segments.
    return Status::FailedPrecondition(
        "record store " + dir +
        ": table-replacing segment layout is not supported (" +
        manifest.status().message() + ")");
  } else if (!manifest.status().IsNotFound()) {
    return manifest.status();
  } else if (fs->Exists(dir + "/snapshot.dat")) {
    return Status::FailedPrecondition(
        "record store " + dir +
        ": pre-manifest layout (snapshot.dat without MANIFEST) is not "
        "supported");
  }

  // 2. Replay the WAL over the snapshot image: one pass, applied in
  // place (replayed rows count as changed: they are not yet in any
  // segment).
  BIOPERA_RETURN_IF_ERROR(
      ReadWalInto(
          store->WalPath(),
          [&store](std::string_view payload) {
            return store->ApplyPayloadToImage(payload);
          },
          nullptr, fs));

  // 3. Restore the writer epoch persisted by the last fenced writer.
  Result<std::string> epoch = store->Get("config", kWriterEpochKey);
  if (epoch.ok()) {
    store->fence_epoch_ = std::strtoull(epoch->c_str(), nullptr, 10);
  }

  // 4. Open the WAL for appending.
  store->live_wal_bytes_ = fs->FileSize(store->WalPath()).value_or(0);
  BIOPERA_ASSIGN_OR_RETURN(store->wal_,
                           WalWriter::Open(store->WalPath(), fs));
  return store;
}

RecordStore::~RecordStore() {
  if (pending_.empty() || wal_ == nullptr) return;
  Status st = Flush();
  if (!st.ok()) {
    BIOPERA_LOG(kError) << "final commit group flush failed: "
                        << st.ToString();
  }
}

Status RecordStore::Apply(const WriteBatch& batch, uint64_t epoch) {
  if (epoch != 0 && epoch != fence_epoch_) {
    return Status::FailedPrecondition(
        StrFormat("store fenced: writer epoch %llu is stale (current %llu)",
                  static_cast<unsigned long long>(epoch),
                  static_cast<unsigned long long>(fence_epoch_)));
  }
  if (batch.empty()) return Status::OK();
  if (scope_depth_ > 0) {
    // Group commit: the image is updated now (read-your-writes) while the
    // payload rides in the pending group, written as one WAL record at
    // the next flush barrier.
    BIOPERA_RETURN_IF_ERROR(ApplyPayloadToImage(batch.payload()));
    pending_ += batch.payload();
    ++pending_commits_;
  } else {
    {
      // Direct (non-grouped) commits hit the WAL here: `store` wall time.
      obs::WallProfile::Scope store_scope(wall_profile_,
                                          obs::WallProfile::kStore);
      BIOPERA_RETURN_IF_ERROR(EnsureWal());
      BIOPERA_RETURN_IF_ERROR(wal_->Append(batch.payload()));
    }
    live_wal_bytes_ += batch.payload().size() + kWalRecordHeaderBytes;
    if (flushes_metric_ != nullptr) flushes_metric_->Increment();
    BIOPERA_RETURN_IF_ERROR(ApplyPayloadToImage(batch.payload()));
  }
  ++commits_;
  if (obs_ != nullptr) {
    commits_metric_->Increment();
    ops_metric_->Increment(batch.num_ops());
    wal_bytes_metric_->Increment(batch.payload().size());
  }
  if (scope_depth_ == 0) return MaybeAutoCheckpoint();
  return Status::OK();
}

Status RecordStore::Flush() {
  if (pending_.empty()) return Status::OK();
  // The group-commit flush is the store's I/O hot path: `store` wall time
  // for the barrier-stall profiler.
  obs::WallProfile::Scope store_scope(wall_profile_,
                                      obs::WallProfile::kStore);
  BIOPERA_RETURN_IF_ERROR(EnsureWal());
  BIOPERA_RETURN_IF_ERROR(wal_->Append(pending_));
  live_wal_bytes_ += pending_.size() + kWalRecordHeaderBytes;
  if (obs_ != nullptr) {
    flushes_metric_->Increment();
    coalesced_metric_->Increment(pending_commits_);
    obs_->spans.EmitInstant(
        obs::SpanKind::kCommitBatch, "commit group", /*parent=*/0, "", "", "",
        {{"commits", StrFormat("%llu", static_cast<unsigned long long>(
                                           pending_commits_))},
         {"bytes", StrFormat("%zu", pending_.size())}},
        "flushed");
  }
  pending_.clear();  // keeps capacity: the buffer is reused
  pending_commits_ = 0;
  return Status::OK();
}

Status RecordStore::MaybeAutoCheckpoint() {
  if (scope_depth_ > 0) return Status::OK();
  bool due = (policy_.every_commits > 0 &&
              commits_ - last_checkpoint_commits_ >= policy_.every_commits) ||
             (policy_.wal_bytes > 0 && WalBytes() >= policy_.wal_bytes);
  return due ? Checkpoint() : Status::OK();
}

void RecordStore::SetObservability(obs::Observability* obs) {
  obs_ = obs;
  if (obs_ == nullptr) {
    commits_metric_ = ops_metric_ = wal_bytes_metric_ = flushes_metric_ =
        coalesced_metric_ = checkpoints_metric_ = compactions_metric_ =
            remove_failures_metric_ = scrub_runs_metric_ =
                scrub_quarantined_metric_ = nullptr;
    checkpoint_bytes_metric_ = nullptr;
    return;
  }
  commits_metric_ = obs_->metrics.GetCounter("store_commits_total");
  ops_metric_ = obs_->metrics.GetCounter("store_ops_total");
  wal_bytes_metric_ = obs_->metrics.GetCounter("store_wal_bytes_total");
  flushes_metric_ = obs_->metrics.GetCounter("store_wal_flushes_total");
  coalesced_metric_ = obs_->metrics.GetCounter("store_group_commits_total");
  checkpoints_metric_ = obs_->metrics.GetCounter("store_checkpoints_total");
  compactions_metric_ =
      obs_->metrics.GetCounter("store_checkpoint_compactions_total");
  remove_failures_metric_ =
      obs_->metrics.GetCounter("store_remove_failures_total");
  scrub_runs_metric_ = obs_->metrics.GetCounter("store_scrub_runs_total");
  scrub_quarantined_metric_ =
      obs_->metrics.GetCounter("store_scrub_quarantined_total");
  // Snapshot sizes span bytes to hundreds of MB: 1 KiB x4 buckets.
  obs::HistogramOptions bytes_buckets;
  bytes_buckets.first_bound = 1024;
  checkpoint_bytes_metric_ = obs_->metrics.GetHistogram(
      "store_checkpoint_bytes", {}, bytes_buckets);
}

Status RecordStore::Put(std::string_view table, std::string_view key,
                        std::string_view value, uint64_t epoch) {
  WriteBatch batch;
  batch.Put(table, key, value);
  return Apply(batch, epoch);
}

Status RecordStore::Delete(std::string_view table, std::string_view key,
                           uint64_t epoch) {
  WriteBatch batch;
  batch.Delete(table, key);
  return Apply(batch, epoch);
}

uint64_t RecordStore::AcquireWriterEpoch() {
  ++fence_epoch_;
  Status st = Put("config", kWriterEpochKey,
                  StrFormat("%llu", static_cast<unsigned long long>(
                                        fence_epoch_)),
                  fence_epoch_);
  if (!st.ok()) {
    // The fence is effective in memory regardless; durability catches up
    // with the next successful commit.
    BIOPERA_LOG(kWarning) << "writer epoch " << fence_epoch_
                          << " not yet durable: " << st.ToString();
  }
  return fence_epoch_;
}

bool RecordStore::IsFenced(const Status& st) {
  return st.IsFailedPrecondition() &&
         st.message().find("store fenced") != std::string::npos;
}

void RecordStore::SetFlushFailureHandler(void* owner,
                                         FlushFailureHandler handler) {
  flush_failure_owner_ = owner;
  flush_failure_handler_ = std::move(handler);
}

void RecordStore::ClearFlushFailureHandler(void* owner) {
  if (flush_failure_owner_ != owner) return;  // a newer writer took over
  flush_failure_owner_ = nullptr;
  flush_failure_handler_ = nullptr;
}

Status RecordStore::ApplyPayloadToImage(std::string_view payload) {
  std::string_view v = payload;
  // Seed from the cross-call cache: consecutive commits (and consecutive
  // WAL records during replay) overwhelmingly touch the same table, so
  // this skips the tables_ lookup entirely.
  Table* table = cached_table_;
  std::string_view table_name = cached_table_name_;
  while (!v.empty()) {
    char tag = v.front();
    v.remove_prefix(1);
    const bool is_put = (tag == kOpPut);
    if (!is_put && tag != kOpDelete) {
      return Status::Corruption("write batch: bad op tag");
    }
    std::string_view t, key, value;
    if (!GetLengthPrefixed(&v, &t) || !GetLengthPrefixed(&v, &key)) {
      return Status::Corruption("write batch: truncated op");
    }
    if (is_put && !GetLengthPrefixed(&v, &value)) {
      return Status::Corruption("write batch: truncated value");
    }
    // Engine batches touch one table many times in a row; cache the
    // resolved table across ops. `table` stays null for deletes in a
    // table that does not exist (until a put creates it).
    if (t != table_name || (table == nullptr && is_put)) {
      table_name = t;
      auto it = tables_.find(t);
      if (it == tables_.end() && is_put) {
        it = tables_.try_emplace(std::string(t)).first;
        // Fresh tables get a generous bucket array up front: WAL replay
        // and first population insert thousands of records, and the
        // incremental rehashes (each recomputing every key's hash)
        // otherwise dominate. ~128 KiB per table, and stores hold a
        // handful of tables.
        it->second.rows.reserve(16384);
      }
      table = it == tables_.end() ? nullptr : &it->second;
    }
    if (table == nullptr) continue;  // delete in a nonexistent table
    // Change tracking rides on the lookup the write does anyway: a row
    // joins `changed` once per checkpoint interval, and a delete moves the
    // erased node's key into `tombstones` instead of copying it.
    if (is_put) {
      auto it = table->rows.find(key);
      if (it != table->rows.end()) {
        it->second.value.assign(value);
      } else {
        it = table->rows
                 .emplace(std::string(key), Row{std::string(value), kClean})
                 .first;
      }
      if (it->second.dirty == kClean) {
        it->second.dirty = table->changed.size();
        table->changed.push_back(&*it);
      }
    } else {
      auto it = table->rows.find(key);
      if (it == table->rows.end()) continue;
      if (it->second.dirty != kClean) {
        table->changed[it->second.dirty] = nullptr;
      }
      table->tombstones.push_back(std::move(table->rows.extract(it).key()));
    }
  }
  if (table != nullptr) {
    cached_table_ = table;
    cached_table_name_.assign(table_name);
  }
  return Status::OK();
}

Result<std::string> RecordStore::Get(std::string_view table,
                                     std::string_view key) const {
  auto t = tables_.find(table);
  if (t == tables_.end()) {
    return Status::NotFound(StrFormat("no table '%.*s'",
                                      static_cast<int>(table.size()),
                                      table.data()));
  }
  auto r = t->second.rows.find(key);
  if (r == t->second.rows.end()) {
    return Status::NotFound(StrFormat("no key '%.*s'",
                                      static_cast<int>(key.size()),
                                      key.data()));
  }
  return r->second.value;
}

bool RecordStore::Contains(std::string_view table,
                           std::string_view key) const {
  auto t = tables_.find(table);
  return t != tables_.end() && t->second.rows.contains(key);
}

std::vector<const RecordStore::Rows::value_type*> RecordStore::SortedRows(
    const Table& table, std::string_view prefix) {
  std::vector<const Rows::value_type*> sorted;
  if (prefix.empty()) sorted.reserve(table.rows.size());
  for (const auto& row : table.rows) {
    if (StartsWith(row.first, prefix)) sorted.push_back(&row);
  }
  // Hash-map iteration order is arbitrary; sort so that logically equal
  // stores always read back (and serialize) in the same order.
  std::sort(sorted.begin(), sorted.end(),
            [](const auto* a, const auto* b) { return a->first < b->first; });
  return sorted;
}

std::vector<RecordStore::RowView> RecordStore::View(
    std::string_view table, std::string_view prefix) const {
  std::vector<RowView> out;
  auto t = tables_.find(table);
  if (t == tables_.end()) return out;
  std::vector<const Rows::value_type*> sorted = SortedRows(t->second, prefix);
  out.reserve(sorted.size());
  for (const auto* row : sorted) out.push_back({row->first, row->second.value});
  return out;
}

std::vector<std::pair<std::string, std::string>> RecordStore::Scan(
    std::string_view table, std::string_view prefix) const {
  std::vector<std::pair<std::string, std::string>> out;
  for (const RowView& row : View(table, prefix)) {
    out.emplace_back(row.key, row.value);
  }
  return out;
}

size_t RecordStore::TableSize(std::string_view table) const {
  auto t = tables_.find(table);
  return t == tables_.end() ? 0 : t->second.rows.size();
}

std::string RecordStore::SerializeFull(size_t* table_count) const {
  std::string out(1, kSegmentFull);
  PutVarint64(&out, tables_.size());
  for (const auto& [name, table] : tables_) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, table.rows.size());
    for (const auto* row : SortedRows(table, "")) {
      PutLengthPrefixed(&out, row->first);
      PutLengthPrefixed(&out, row->second.value);
    }
  }
  *table_count = tables_.size();
  return out;
}

std::string RecordStore::SerializeDelta(size_t* table_count) const {
  // One entry per key: the row's value, or null for a tombstone.
  using Entry = std::pair<std::string_view, const std::string*>;
  std::vector<std::pair<std::string_view, std::vector<Entry>>> sections;
  for (const auto& [name, table] : tables_) {
    std::vector<Entry> entries;
    entries.reserve(table.changed.size() + table.tombstones.size());
    for (const Rows::value_type* row : table.changed) {
      if (row != nullptr) entries.emplace_back(row->first, &row->second.value);
    }
    for (const std::string& key : table.tombstones) {
      // A key put again after its delete is a put (it is in `changed`).
      if (!table.rows.contains(key)) entries.emplace_back(key, nullptr);
    }
    if (entries.empty()) continue;
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.first < b.first; });
    // Only tombstones can repeat a key (a key deleted, put, deleted).
    entries.erase(std::unique(entries.begin(), entries.end(),
                              [](const Entry& a, const Entry& b) {
                                return a.first == b.first;
                              }),
                  entries.end());
    sections.emplace_back(name, std::move(entries));
  }
  std::string out(1, kSegmentDelta);
  PutVarint64(&out, sections.size());
  for (const auto& [name, entries] : sections) {
    PutLengthPrefixed(&out, name);
    PutVarint64(&out, entries.size());
    for (const auto& [key, value] : entries) {
      out.push_back(value != nullptr ? kOpPut : kOpDelete);
      PutLengthPrefixed(&out, key);
      if (value != nullptr) PutLengthPrefixed(&out, *value);
    }
  }
  *table_count = sections.size();
  return out;
}

bool RecordStore::HasChanges() const {
  for (const auto& [name, table] : tables_) {
    if (!table.changed.empty() || !table.tombstones.empty()) return true;
  }
  return false;
}

void RecordStore::ClearChanges() {
  for (auto& [name, table] : tables_) {
    for (Rows::value_type* row : table.changed) {
      if (row != nullptr) row->second.dirty = kClean;
    }
    table.changed.clear();
    table.tombstones.clear();
  }
}

Status RecordStore::LoadSegment(
    std::string_view payload, bool head,
    std::map<std::string, uint64_t, std::less<>>* puts) {
  std::string_view v = payload;
  if (v.empty()) return Status::Corruption("segment: empty");
  const char kind = v.front();
  v.remove_prefix(1);
  if (kind != kSegmentFull && kind != kSegmentDelta) {
    return Status::Corruption("segment: bad kind");
  }
  if ((kind == kSegmentFull) != head) {
    return Status::Corruption(head ? "segment: manifest head is a delta"
                                   : "segment: full segment after the head");
  }
  uint64_t num_tables;
  if (!GetVarint64(&v, &num_tables)) {
    return Status::Corruption("segment: bad table count");
  }
  for (uint64_t i = 0; i < num_tables; ++i) {
    std::string_view name;
    uint64_t n;
    if (!GetLengthPrefixed(&v, &name) || !GetVarint64(&v, &n)) {
      return Status::Corruption("segment: bad table header");
    }
    auto it = tables_.end();
    if (puts == nullptr) {
      it = kind == kSegmentFull ? tables_.try_emplace(std::string(name)).first
                                : tables_.find(name);
    }
    uint64_t table_puts = 0;
    for (uint64_t k = 0; k < n; ++k) {
      char tag = kOpPut;
      if (kind == kSegmentDelta) {
        if (v.empty()) return Status::Corruption("segment: truncated row");
        tag = v.front();
        v.remove_prefix(1);
        if (tag != kOpPut && tag != kOpDelete) {
          return Status::Corruption("segment: bad row tag");
        }
      }
      std::string_view key, value;
      if (!GetLengthPrefixed(&v, &key) ||
          (tag == kOpPut && !GetLengthPrefixed(&v, &value))) {
        return Status::Corruption("segment: bad row");
      }
      if (puts != nullptr) {
        table_puts += tag == kOpPut;
        continue;
      }
      if (kind == kSegmentFull) {  // one hash lookup per row
        it->second.rows.insert_or_assign(std::string(key),
                                         Row{std::string(value), kClean});
        continue;
      }
      if (it == tables_.end()) {
        if (tag == kOpDelete) continue;  // nothing to delete from
        it = tables_.try_emplace(std::string(name)).first;
      }
      Rows& rows = it->second.rows;
      auto row = rows.find(key);
      if (tag == kOpDelete) {
        if (row != rows.end()) rows.erase(row);
      } else if (row != rows.end()) {
        row->second.value.assign(value);
      } else {
        rows.emplace(std::string(key), Row{std::string(value), kClean});
      }
    }
    if (table_puts > 0) {
      auto slot = puts->find(name);
      if (slot == puts->end()) slot = puts->emplace(name, 0).first;
      slot->second += table_puts;
    }
  }
  if (!v.empty()) return Status::Corruption("segment: trailing bytes");
  return Status::OK();
}

Status RecordStore::LoadManifest(std::string_view payload) {
  std::string_view v = payload;
  uint64_t count;
  if (!GetVarint64(&v, &count)) {
    return Status::Corruption("manifest: bad segment count");
  }
  std::vector<std::string> segments;
  for (uint64_t i = 0; i < count; ++i) {
    std::string_view name;
    if (!GetLengthPrefixed(&v, &name) || name.empty()) {
      return Status::Corruption("manifest: bad segment name");
    }
    BIOPERA_ASSIGN_OR_RETURN(
        std::string segment, ReadSnapshot(dir_ + "/" + std::string(name), fs_));
    (i == 0 ? base_bytes_ : delta_bytes_) += segment.size();
    segments.push_back(std::move(segment));
    manifest_.emplace_back(name);
    unsigned long long seq = 0;
    if (std::sscanf(std::string(name).c_str(), "seg_%llu.dat", &seq) == 1) {
      next_segment_seq_ =
          std::max(next_segment_seq_, static_cast<uint64_t>(seq) + 1);
    }
  }
  if (!v.empty()) return Status::Corruption("manifest: trailing bytes");
  // Size each table once for every put of the chain: a table that
  // outgrows its reservation while the deltas apply rehashes every row.
  std::map<std::string, uint64_t, std::less<>> puts;
  for (size_t i = 0; i < segments.size(); ++i) {
    BIOPERA_RETURN_IF_ERROR(LoadSegment(segments[i], i == 0, &puts));
  }
  for (const auto& [name, n] : puts) {
    // CRC-checked self-written files, but clamp the pre-size anyway.
    tables_[name].rows.reserve(
        static_cast<size_t>(std::min<uint64_t>(n, 1u << 20)));
  }
  for (size_t i = 0; i < segments.size(); ++i) {
    BIOPERA_RETURN_IF_ERROR(LoadSegment(segments[i], i == 0, nullptr));
  }
  return Status::OK();
}

Status RecordStore::WriteManifest() {
  std::string payload;
  PutVarint64(&payload, manifest_.size());
  for (const std::string& name : manifest_) {
    PutLengthPrefixed(&payload, name);
  }
  return WriteSnapshot(ManifestPath(), payload, fs_);
}

Status RecordStore::EnsureWal() {
  if (wal_ != nullptr) return Status::OK();
  // A failed checkpoint can close the WAL and then fail to reopen it;
  // recover here instead of crashing on the next append.
  BIOPERA_ASSIGN_OR_RETURN(wal_, WalWriter::Open(WalPath(), fs_));
  return Status::OK();
}

Status RecordStore::Checkpoint() { return CheckpointImpl(false); }

Status RecordStore::CheckpointImpl(bool force_full) {
  obs::WallProfile::Scope store_scope(wall_profile_,
                                      obs::WallProfile::kStore);
  BIOPERA_RETURN_IF_ERROR(Flush());
  if (!force_full && !HasChanges() && live_wal_bytes_ == 0) {
    return Status::OK();  // nothing changed since the last checkpoint
  }
  uint64_t wal_trimmed = live_wal_bytes_;
  // Compact when there is no full segment yet, or when the deltas, this
  // one included, would reach the ratio of the full segment's bytes.
  const double limit =
      policy_.compact_delta_ratio * static_cast<double>(base_bytes_);
  bool compact = force_full || manifest_.empty() ||
                 static_cast<double>(delta_bytes_) >= limit;
  size_t table_count = 0;
  std::string image;
  if (!compact) {
    image = SerializeDelta(&table_count);
    compact = static_cast<double>(delta_bytes_ + image.size()) >= limit;
  }
  if (compact) image = SerializeFull(&table_count);
  std::string name = StrFormat(
      "seg_%06llu.dat", static_cast<unsigned long long>(next_segment_seq_));
  BIOPERA_RETURN_IF_ERROR(WriteSnapshot(dir_ + "/" + name, image, fs_));
  ++next_segment_seq_;
  std::vector<std::string> obsolete;
  if (compact) {
    obsolete = std::move(manifest_);
    manifest_.clear();
    base_bytes_ = image.size();
    delta_bytes_ = 0;
  } else {
    delta_bytes_ += image.size();
  }
  manifest_.push_back(name);
  BIOPERA_RETURN_IF_ERROR(WriteManifest());
  if (compact) {
    // The manifest no longer references them; prune best-effort, but
    // count and log what stays behind (an orphan segment wastes disk yet
    // can never corrupt recovery — it is simply not in the manifest).
    for (const std::string& old : obsolete) {
      Status rm = fs_->Remove(dir_ + "/" + old);
      if (!rm.ok()) {
        if (remove_failures_metric_ != nullptr) {
          remove_failures_metric_->Increment();
        }
        BIOPERA_LOG(kWarning)
            << "compaction: pruning " << old << " failed: " << rm.ToString();
      }
    }
  }
  // Truncate the WAL: close, remove, reopen empty. Safe because the
  // snapshot chain now covers everything the WAL contained. A failed
  // remove is surfaced: the stale WAL would replay over the new segments
  // (harmless — replay is idempotent) but it grows without bound.
  wal_.reset();
  Status rm = fs_->Remove(WalPath());
  if (!rm.ok()) {
    if (remove_failures_metric_ != nullptr) {
      remove_failures_metric_->Increment();
    }
    return rm;
  }
  live_wal_bytes_ = 0;
  BIOPERA_ASSIGN_OR_RETURN(wal_, WalWriter::Open(WalPath(), fs_));
  ClearChanges();
  last_checkpoint_commits_ = commits_;
  if (obs_ != nullptr) {
    checkpoints_metric_->Increment();
    if (compact) compactions_metric_->Increment();
    checkpoint_bytes_metric_->Observe(static_cast<double>(image.size()));
    obs_->spans.EmitInstant(
        obs::SpanKind::kCheckpoint, compact ? "checkpoint full"
                                            : "checkpoint delta",
        /*parent=*/0, "", "", "",
        {{"bytes", StrFormat("%zu", image.size())},
         {"tables", StrFormat("%zu", table_count)},
         {"wal_trimmed",
          StrFormat("%llu", static_cast<unsigned long long>(wal_trimmed))}},
        "taken");
  }
  return Status::OK();
}

std::string RecordStore::ScrubReport::ToText() const {
  std::string out = StrFormat(
      "scrub: %zu segment(s) checked, %zu quarantined; wal records=%llu%s\n",
      segments_checked, quarantined.size(),
      static_cast<unsigned long long>(wal_records),
      wal_torn_tail ? " (torn tail discarded)" : "");
  for (const std::string& name : quarantined) {
    out += "  quarantined: " + name + " -> " + name + ".quarantined\n";
  }
  out += rebuilt ? "  store rebuilt from live image (full compaction)\n"
                 : "  no damage found\n";
  return out;
}

Result<RecordStore::ScrubReport> RecordStore::Scrub() {
  ScrubReport report;
  BIOPERA_RETURN_IF_ERROR(Flush());
  bool torn = false;
  uint64_t records = 0;
  BIOPERA_RETURN_IF_ERROR(ReadWalInto(
      WalPath(),
      [&records](std::string_view) {
        ++records;
        return Status::OK();
      },
      &torn, fs_));
  report.wal_records = records;
  report.wal_torn_tail = torn;
  bool damaged = torn;
  std::vector<std::string> keep;
  for (const std::string& name : manifest_) {
    ++report.segments_checked;
    Result<std::string> seg = ReadSnapshot(dir_ + "/" + name, fs_);
    if (seg.ok()) {
      keep.push_back(name);
      continue;
    }
    damaged = true;
    Status mv = fs_->Rename(dir_ + "/" + name,
                            dir_ + "/" + name + ".quarantined");
    if (!mv.ok()) {
      BIOPERA_LOG(kWarning) << "scrub: quarantine of " << name
                            << " failed: " << mv.ToString();
    }
    BIOPERA_LOG(kWarning) << "scrub: segment " << name << " corrupt ("
                          << seg.status().ToString() << "), quarantined";
    report.quarantined.push_back(name);
  }
  if (damaged) {
    // The in-memory image is the authoritative survivor (the corrupt
    // segment's records were applied when the store opened): rewrite the
    // whole store from it so quarantining loses nothing on a live store.
    manifest_ = std::move(keep);
    BIOPERA_RETURN_IF_ERROR(CheckpointImpl(/*force_full=*/true));
    report.rebuilt = true;
  }
  if (obs_ != nullptr) {
    scrub_runs_metric_->Increment();
    scrub_quarantined_metric_->Increment(report.quarantined.size());
  }
  return report;
}

uint64_t RecordStore::WalBytes() const {
  return live_wal_bytes_ + pending_.size();
}

std::string RecordStore::WalPath() const { return dir_ + "/wal.log"; }
std::string RecordStore::ManifestPath() const { return dir_ + "/MANIFEST"; }

}  // namespace biopera
