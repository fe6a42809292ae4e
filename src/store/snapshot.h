#ifndef BIOPERA_STORE_SNAPSHOT_H_
#define BIOPERA_STORE_SNAPSHOT_H_

#include <string>

#include "common/result.h"
#include "common/status.h"
#include "store/fs.h"

namespace biopera {

/// Atomically and durably replaces the snapshot file at `path` with
/// `payload`: the payload is written (with magic, version, and CRC
/// framing) to `path + ".tmp"`, fsynced, renamed over `path`, and the
/// containing directory is fsynced — so a crash at any instant leaves
/// either the old or the new snapshot on disk, never a torn one and never
/// a rename that evaporates with the page cache.
Status WriteSnapshot(const std::string& path, std::string_view payload,
                     Fs* fs = nullptr);

/// Reads and verifies a snapshot. NotFound if the file does not exist,
/// Corruption if the framing or checksum is bad, FailedPrecondition if an
/// intact file carries the older framing version 1 (table-replacing
/// segments, refused by RecordStore::Open).
Result<std::string> ReadSnapshot(const std::string& path, Fs* fs = nullptr);

}  // namespace biopera

#endif  // BIOPERA_STORE_SNAPSHOT_H_
