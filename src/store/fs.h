#ifndef BIOPERA_STORE_FS_H_
#define BIOPERA_STORE_FS_H_

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace biopera {

/// A writable file handle. Append buffers data towards the OS, Flush
/// pushes buffered bytes into the OS page cache (surviving a process
/// crash), Sync forces them to stable storage (surviving a power loss).
class WritableFile {
 public:
  virtual ~WritableFile() = default;
  virtual Status Append(std::string_view data) = 0;
  virtual Status Flush() = 0;
  virtual Status Sync() = 0;
  virtual Status Close() = 0;
};

/// The filesystem seam every durable-store I/O goes through. The store,
/// WAL, and snapshot writer never touch <cstdio> directly; they take an
/// `Fs*` so tests can interpose a FaultFs and inject torn writes, ENOSPC,
/// sync failures, and failed renames at precise points.
class Fs {
 public:
  virtual ~Fs() = default;

  /// Opens `path` for appending, creating it if missing.
  virtual Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) = 0;
  /// Opens `path` truncated (fresh file).
  virtual Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) = 0;
  /// Reads the whole file. NotFound if it does not exist.
  virtual Result<std::string> ReadFileToString(const std::string& path) = 0;
  virtual Status Rename(const std::string& from, const std::string& to) = 0;
  virtual Status Remove(const std::string& path) = 0;
  virtual Status CreateDirs(const std::string& dir) = 0;
  /// fsyncs the directory itself so renames/creates/removes inside it are
  /// durable (the half of tmp+rename atomicity that fopen never gave us).
  virtual Status SyncDir(const std::string& dir) = 0;
  virtual Result<uint64_t> FileSize(const std::string& path) = 0;
  virtual bool Exists(const std::string& path) = 0;

  /// The process-wide real-disk filesystem.
  static Fs* Default();
};

/// Returns the parent directory of `path` ("." if none).
std::string ParentDir(const std::string& path);

/// Fault-injecting decorator around another Fs. Every mutating operation
/// is a named, counted fault point `<class>.<op>` where <class> is derived
/// from the file's basename (ignoring a ".tmp" suffix):
///
///   wal       wal.log                       (the write-ahead log)
///   seg       seg_*.dat                     (checkpoint segments)
///   manifest  MANIFEST                      (the segment manifest)
///   dir       directory syncs               (only op: dir.sync)
///   file      anything else
///
/// and <op> is one of open (append-open), create (truncating open),
/// append, flush, sync, rename, remove.
///
/// FaultFile buffers appends in memory and pushes them to the base file on
/// Flush/Sync/Close, so an armed crash genuinely loses unflushed bytes —
/// like a real process death would — instead of having them leak to disk
/// through a stdio buffer.
class FaultFs : public Fs {
 public:
  explicit FaultFs(Fs* base) : base_(base) {}

  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override;
  Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) override;
  Result<std::string> ReadFileToString(const std::string& path) override;
  Status Rename(const std::string& from, const std::string& to) override;
  Status Remove(const std::string& path) override;
  Status CreateDirs(const std::string& dir) override;
  Status SyncDir(const std::string& dir) override;
  Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;

  /// Simulates a process/machine crash at the `at_hit`-th hit of `point`
  /// (1-based): a data-carrying op (append/flush) writes only half its
  /// bytes through and flushes them — a torn write — then the disk goes
  /// dead: every subsequent mutating op fails. Reads keep working so the
  /// in-process image stays observable.
  void ArmCrash(const std::string& point, uint64_t at_hit);

  /// Injects a single transient IOError at the `at_hit`-th hit of `point`
  /// (1-based). The op does not reach the base fs; later ops are fine.
  void ArmError(const std::string& point, uint64_t at_hit);

  /// ENOSPC mode: space-consuming ops (open/create/append/flush/sync)
  /// fail; renames, removes, and reads still work — like a full disk.
  void SetDiskFull(bool full) { disk_full_ = full; }
  bool disk_full() const { return disk_full_; }

  /// When set, Rename() only records the intent; the rename reaches the
  /// base fs at the next SyncDir of its directory (modelling a dirent
  /// update that was never fsynced). A crash before that drops it.
  void SetDelayRenames(bool delay) { delay_renames_ = delay; }
  size_t PendingRenames() const { return pending_renames_.size(); }

  bool dead() const { return dead_; }

  /// Hit counts per fault point, armed or not — a plain recording pass
  /// enumerates every fault point a workload exercises.
  const std::map<std::string, uint64_t>& Hits() const { return hits_; }

 private:
  friend class FaultFile;
  struct Armed {
    std::string point;
    uint64_t at_hit = 0;
    bool crash = false;
  };
  struct Action {
    enum Kind { kProceed, kFail, kTorn } kind = kProceed;
    Status error;
    size_t keep_bytes = 0;  // for kTorn: bytes to write before dying
  };

  /// Counts one hit of `point` (an op moving `len` bytes) and decides its
  /// fate. Called by FaultFs ops and by FaultFile for per-file ops.
  Action Account(const std::string& point, size_t len);
  static bool ConsumesSpace(const std::string& point);

  Fs* base_;
  std::map<std::string, uint64_t> hits_;
  std::optional<Armed> armed_;
  bool disk_full_ = false;
  bool delay_renames_ = false;
  bool dead_ = false;
  std::vector<std::pair<std::string, std::string>> pending_renames_;
};

}  // namespace biopera

#endif  // BIOPERA_STORE_FS_H_
