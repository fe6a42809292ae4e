#ifndef BIOPERA_STORE_RECORD_STORE_H_
#define BIOPERA_STORE_RECORD_STORE_H_

#include <functional>
#include <map>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "store/fs.h"
#include "store/wal.h"

namespace biopera::obs {
class WallProfile;
}  // namespace biopera::obs

namespace biopera {

/// A batch of mutations applied atomically: either every operation in the
/// batch is visible after a crash, or none is.
class WriteBatch {
 public:
  void Put(std::string_view table, std::string_view key,
           std::string_view value);
  void Delete(std::string_view table, std::string_view key);

  size_t num_ops() const { return num_ops_; }
  bool empty() const { return num_ops_ == 0; }
  void Clear();

  /// Wire form appended to the WAL. Concatenating payloads yields another
  /// valid payload — which is what lets a commit group of many batches
  /// travel as a single WAL record.
  const std::string& payload() const { return payload_; }

  /// Parses a wire-form batch (as read back from the WAL).
  static Result<WriteBatch> FromPayload(std::string_view payload);

  struct Op {
    bool is_put;
    std::string table;
    std::string key;
    std::string value;
  };
  /// Decodes the operations (used for replay and inspection).
  Result<std::vector<Op>> Ops() const;

 private:
  std::string payload_;
  size_t num_ops_ = 0;
};

/// Durable, transactional record store: string keys/values organized into
/// named tables, persisted via write-ahead logging with snapshot
/// checkpoints. This is the substrate under BioOpera's template, instance,
/// configuration, and history spaces: every navigator state transition is
/// committed here before it takes effect, which is what makes month-long
/// processes recoverable (paper §3.2).
///
/// Commit pipeline (docs/STORE.md):
///  - Outside a CommitScope, every Apply() is one WAL append + flush.
///  - Inside a CommitScope, Apply() updates the image immediately
///    (read-your-writes) but coalesces the payloads; the whole group is
///    written as one WAL record at the next flush barrier — Flush(),
///    Checkpoint(), or the outermost scope's end. A group is one record,
///    so it remains crash-atomic.
///  - Checkpoints are record-granular: every image row knows whether it
///    changed since the last checkpoint, and every delete leaves a
///    tombstone, so a checkpoint writes a delta segment of just those
///    keys (puts and tombstones, sorted) and costs what changed, not
///    what the tables hold. The manifest lists one full segment followed
///    by deltas; a checkpoint whose delta would bring the deltas to the
///    full segment's size (times CheckpointPolicy::compact_delta_ratio)
///    writes a new full segment instead.
///
/// All disk I/O flows through an `Fs` (store/fs.h): production uses the
/// real disk, tests interpose a FaultFs to inject torn writes, ENOSPC,
/// and failed renames at named fault points.
class RecordStore {
 public:
  /// Checkpoint cadence, enforced by the store itself after each commit
  /// or commit group (so non-engine commits cannot skew it).
  struct CheckpointPolicy {
    /// Checkpoint once the live WAL (flushed + pending) exceeds this many
    /// bytes. 0 disables the size trigger.
    uint64_t wal_bytes = 4ull << 20;
    /// Legacy cadence: checkpoint after this many commits since the last
    /// checkpoint. 0 disables.
    uint64_t every_commits = 0;
    /// Rewrite all tables into one full segment once the delta segments
    /// after the current full one, the new delta included, would reach
    /// this multiple of the full segment's bytes. At 1.0 a compaction
    /// writes at most about twice the delta bytes written since the last
    /// one (the new full segment holds no more than the old one and the
    /// deltas), and a reopen reads less than twice the full segment. 0
    /// makes every checkpoint full.
    double compact_delta_ratio = 1.0;
  };

  /// RAII commit group. Scopes nest; the WAL flush happens when the
  /// outermost scope ends (flush failures are logged and reported to the
  /// flush-failure handler — the image already holds the group, and the
  /// next barrier retries the append). A null store makes the scope a
  /// no-op, so call sites can make grouping conditional.
  class CommitScope {
   public:
    explicit CommitScope(RecordStore* store);
    ~CommitScope();
    CommitScope(const CommitScope&) = delete;
    CommitScope& operator=(const CommitScope&) = delete;

   private:
    RecordStore* store_;
  };

  /// What a Scrub() pass found (and did).
  struct ScrubReport {
    size_t segments_checked = 0;
    /// Corrupt segments renamed aside to `<name>.quarantined`.
    std::vector<std::string> quarantined;
    uint64_t wal_records = 0;
    bool wal_torn_tail = false;
    /// True when damage was found and the durable state was rewritten
    /// from the in-memory image (full compaction).
    bool rebuilt = false;
    std::string ToText() const;
  };

  /// Opens (or creates) a store rooted at directory `dir`: loads the
  /// segment chain the MANIFEST lists (one full segment, then deltas in
  /// order), then replays the WAL. A torn WAL tail from a crash is
  /// silently discarded. A directory in an older layout is
  /// FailedPrecondition: one that holds the pre-manifest snapshot.dat but
  /// no MANIFEST, or one whose MANIFEST and segments use the table-
  /// replacing segment format that preceded put/tombstone deltas.
  /// `fs` defaults to the real disk and must outlive the store.
  static Result<std::unique_ptr<RecordStore>> Open(const std::string& dir,
                                                   Fs* fs = nullptr);

  ~RecordStore();
  RecordStore(const RecordStore&) = delete;
  RecordStore& operator=(const RecordStore&) = delete;

  /// Atomically applies `batch`: appends to the WAL (or the pending
  /// commit group), then updates the in-memory image. `epoch` carries the
  /// writer's fencing token: 0 means unfenced (direct store users), a
  /// nonzero epoch must match the store's current writer epoch or the
  /// commit is rejected with FailedPrecondition (see AcquireWriterEpoch).
  Status Apply(const WriteBatch& batch, uint64_t epoch = 0);

  /// Convenience single-record writes.
  Status Put(std::string_view table, std::string_view key,
             std::string_view value, uint64_t epoch = 0);
  Status Delete(std::string_view table, std::string_view key,
                uint64_t epoch = 0);

  Result<std::string> Get(std::string_view table, std::string_view key) const;
  bool Contains(std::string_view table, std::string_view key) const;

  /// One row of an ordered view: its key and value where the image holds
  /// them. A view stays valid until the next write to its own row (a put
  /// may move the value, a delete frees the row); writes to other rows or
  /// tables, and checkpoints, leave it as it was.
  struct RowView {
    std::string_view key;
    std::string_view value;
    friend bool operator==(const RowView&, const RowView&) = default;
  };
  /// The rows of `table` whose key starts with `prefix`, in key order, as
  /// views into the image: no key or value is copied. Costs O(table)
  /// whatever the prefix: it walks the whole hash image and sorts the
  /// matches. A caller that wants many prefixes should view once and split
  /// the ordered result (Spaces::ScanInstances).
  std::vector<RowView> View(std::string_view table,
                            std::string_view prefix = "") const;
  /// View, with each key and value copied out.
  std::vector<std::pair<std::string, std::string>> Scan(
      std::string_view table, std::string_view prefix = "") const;

  size_t TableSize(std::string_view table) const;

  /// Flush barrier: forces the pending commit group (if any) to the WAL
  /// as one record. Must be (and is) called before any externally visible
  /// action — job dispatch, console reply, checkpoint.
  Status Flush();

  /// Writes the records put or deleted since the last checkpoint into a
  /// delta segment (or compacts everything into a full segment), updates
  /// the manifest, and truncates the WAL. A no-op when nothing changed.
  Status Checkpoint();

  /// Store self-check: verifies every manifest segment and the WAL
  /// against their checksums. Corrupt segments are quarantined (renamed
  /// to `<name>.quarantined`), the valid WAL prefix is salvaged, and —
  /// because the in-memory image still holds the full state — the store
  /// is rebuilt on disk with a forced full compaction, so a live store
  /// loses nothing. Flushes the pending group first.
  Result<ScrubReport> Scrub();

  /// Claims write ownership: bumps the persistent writer epoch and
  /// returns the new value. Commits presenting any older nonzero epoch
  /// are rejected from now on — this is what fences a partitioned-but-
  /// alive primary after a backup server takes over.
  uint64_t AcquireWriterEpoch();
  uint64_t fence_epoch() const { return fence_epoch_; }

  /// True iff `st` is the store's stale-writer-epoch rejection.
  static bool IsFenced(const Status& st);

  void SetCheckpointPolicy(const CheckpointPolicy& policy) {
    policy_ = policy;
  }
  const CheckpointPolicy& checkpoint_policy() const { return policy_; }

  /// Size of the live WAL in bytes, including the not-yet-flushed commit
  /// group (0 right after a checkpoint).
  uint64_t WalBytes() const;
  uint64_t CommitCount() const { return commits_; }

  /// Called when a commit-group flush (or the auto-checkpoint after it)
  /// fails at a scope boundary, where no caller sees the Status. The
  /// engine hooks this to enter degraded mode. `owner` disambiguates
  /// engines sharing one store (backup takeover): the latest setter wins,
  /// and Clear is a no-op for a stale owner.
  using FlushFailureHandler = std::function<void(const Status&)>;
  void SetFlushFailureHandler(void* owner, FlushFailureHandler handler);
  void ClearFlushFailureHandler(void* owner);

  /// Attaches an observability context: commits, ops, WAL bytes and
  /// flushes feed counters, checkpoints feed a size histogram and a
  /// checkpoint span. nullptr detaches.
  void SetObservability(obs::Observability* obs);

  /// Attaches a wall-clock self-time profile (obs::WallProfile): WAL
  /// appends, group-commit flushes and checkpoints are scoped as `store`
  /// time for the sharded service's barrier-stall profiler. Null-check-
  /// only when unset; never feeds virtual time. nullptr detaches.
  void SetWallProfile(obs::WallProfile* profile) { wall_profile_ = profile; }

  const std::string& dir() const { return dir_; }
  Fs* fs() const { return fs_; }

 private:
  /// Transparent hashing so lookups take a string_view without building a
  /// temporary std::string.
  struct StringHash {
    using is_transparent = void;
    size_t operator()(std::string_view s) const noexcept {
      return std::hash<std::string_view>{}(s);
    }
  };
  /// One image row. `dirty` is the row's slot in its table's `changed`
  /// list, or kClean while the segment chain already holds the row.
  struct Row {
    std::string value;
    size_t dirty;
  };
  static constexpr size_t kClean = static_cast<size_t>(-1);
  /// The in-memory image of one table is a hash map: the commit path pays
  /// O(1) per record instead of a pointer-chasing tree walk. Ordered views
  /// (View, Scan, full segments) sort row pointers on demand, which keeps
  /// their output deterministic. A prefix scan is therefore O(table), not
  /// O(matches), and a loop of per-id scans is quadratic; that is why
  /// restart and the fleet lineage export read a table in one scan.
  using Rows = std::unordered_map<std::string, Row, StringHash,
                                  std::equal_to<>>;
  struct Table {
    Rows rows;
    /// Rows put since the last checkpoint, each once (its `dirty` slot).
    /// A delete nulls the slot. Node pointers survive rehashing.
    std::vector<Rows::value_type*> changed;
    /// Keys deleted since the last checkpoint, in delete order; a key may
    /// repeat or have been put again since.
    std::vector<std::string> tombstones;
  };

  RecordStore(std::string dir, Fs* fs) : dir_(std::move(dir)), fs_(fs) {}

  /// Single-pass decode-and-apply of a batch payload (no Op
  /// materialization); marks each put row dirty and records each delete
  /// of a present row as a tombstone.
  Status ApplyPayloadToImage(std::string_view payload);
  Status MaybeAutoCheckpoint();
  /// Checkpoint body; `force_full` skips the nothing-changed early-out
  /// and compacts everything (used by Scrub to re-materialize state).
  Status CheckpointImpl(bool force_full);
  /// Reopens the WAL writer if a failed checkpoint left it closed.
  Status EnsureWal();
  /// The rows of `table` whose key starts with `prefix`, sorted by key:
  /// pointers into the image. View and SerializeFull both read through it.
  static std::vector<const Rows::value_type*> SortedRows(
      const Table& table, std::string_view prefix);
  /// A full segment: every table and all of its rows.
  std::string SerializeFull(size_t* table_count) const;
  /// A delta segment: per table, the changed rows as puts and the
  /// tombstones of rows deleted since the last checkpoint, sorted by key.
  std::string SerializeDelta(size_t* table_count) const;
  bool HasChanges() const;
  /// Marks every row clean and drops the tombstones (after a checkpoint).
  void ClearChanges();
  /// Applies one segment to the image, or with `puts` only validates it
  /// and adds its puts per table. The manifest's head must be a full
  /// segment and every later one a delta.
  Status LoadSegment(std::string_view payload, bool head,
                     std::map<std::string, uint64_t, std::less<>>* puts);
  Status LoadManifest(std::string_view payload);
  Status WriteManifest();
  std::string WalPath() const;
  std::string ManifestPath() const;

  std::string dir_;
  Fs* fs_;
  std::map<std::string, Table, std::less<>> tables_;  // node-stable
  // Cross-call cache of the last table ApplyPayloadToImage resolved.
  // Pointer stability comes from tables_ being node-based; tables are
  // never removed.
  Table* cached_table_ = nullptr;
  std::string cached_table_name_;
  std::unique_ptr<WalWriter> wal_;
  uint64_t commits_ = 0;
  uint64_t fence_epoch_ = 0;

  // Checkpoint state.
  CheckpointPolicy policy_;
  std::vector<std::string> manifest_;  // segment files, in apply order
  uint64_t base_bytes_ = 0;   // payload bytes of the manifest's full segment
  uint64_t delta_bytes_ = 0;  // payload bytes of the deltas after it
  uint64_t next_segment_seq_ = 1;
  uint64_t last_checkpoint_commits_ = 0;

  // Group-commit state.
  int scope_depth_ = 0;
  std::string pending_;  // concatenated payloads of the open group
  uint64_t pending_commits_ = 0;
  uint64_t live_wal_bytes_ = 0;  // flushed bytes in the current WAL file

  void* flush_failure_owner_ = nullptr;
  FlushFailureHandler flush_failure_handler_;

  // Resolved metric handles (null without an Observability context).
  obs::Observability* obs_ = nullptr;
  obs::WallProfile* wall_profile_ = nullptr;
  obs::Counter* commits_metric_ = nullptr;
  obs::Counter* ops_metric_ = nullptr;
  obs::Counter* wal_bytes_metric_ = nullptr;
  obs::Counter* flushes_metric_ = nullptr;
  obs::Counter* coalesced_metric_ = nullptr;
  obs::Counter* checkpoints_metric_ = nullptr;
  obs::Counter* compactions_metric_ = nullptr;
  obs::Counter* remove_failures_metric_ = nullptr;
  obs::Counter* scrub_runs_metric_ = nullptr;
  obs::Counter* scrub_quarantined_metric_ = nullptr;
  obs::Histogram* checkpoint_bytes_metric_ = nullptr;
};

}  // namespace biopera

#endif  // BIOPERA_STORE_RECORD_STORE_H_
