#include "store/snapshot.h"

#include <memory>
#include <utility>

#include "common/crc32.h"
#include "store/codec.h"

namespace biopera {

namespace {
constexpr uint32_t kSnapshotMagic = 0x42694f70;  // "BiOp"
// Version 2 marks the full/delta segment layout (docs/STORE.md). Version 1
// framed the older table-replacing segments and their MANIFEST.
constexpr uint32_t kSnapshotVersion = 2;
constexpr uint32_t kTableSegmentVersion = 1;
}  // namespace

Status WriteSnapshot(const std::string& path, std::string_view payload,
                     Fs* fs) {
  if (fs == nullptr) fs = Fs::Default();
  std::string framed;
  PutFixed32(&framed, kSnapshotMagic);
  PutFixed32(&framed, kSnapshotVersion);
  PutFixed32(&framed, Crc32c(payload));
  PutFixed64(&framed, payload.size());
  framed.append(payload);

  std::string tmp = path + ".tmp";
  Status st = [&]() -> Status {
    BIOPERA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> f,
                             fs->OpenForWrite(tmp));
    BIOPERA_RETURN_IF_ERROR(f->Append(framed));
    BIOPERA_RETURN_IF_ERROR(f->Sync());
    return f->Close();
  }();
  if (!st.ok()) {
    (void)fs->Remove(tmp);  // best effort; an orphan .tmp is harmless
    return st;
  }
  BIOPERA_RETURN_IF_ERROR(fs->Rename(tmp, path));
  return fs->SyncDir(ParentDir(path));
}

Result<std::string> ReadSnapshot(const std::string& path, Fs* fs) {
  if (fs == nullptr) fs = Fs::Default();
  Result<std::string> read = fs->ReadFileToString(path);
  if (!read.ok()) {
    if (read.status().IsNotFound()) {
      return Status::NotFound("no snapshot: " + path);
    }
    return read.status();
  }
  std::string data = std::move(*read);
  std::string_view v = data;
  uint32_t magic = 0, version = 0, crc = 0;
  uint64_t len = 0;
  if (!GetFixed32(&v, &magic) || magic != kSnapshotMagic) {
    return Status::Corruption("snapshot bad magic: " + path);
  }
  if (!GetFixed32(&v, &version)) {
    return Status::Corruption("snapshot truncated: " + path);
  }
  if (!GetFixed32(&v, &crc) || !GetFixed64(&v, &len) || v.size() != len) {
    return Status::Corruption("snapshot truncated: " + path);
  }
  if (Crc32c(v) != crc) {
    return Status::Corruption("snapshot checksum mismatch: " + path);
  }
  // Checked after the CRC, so only an intact older file reads as one.
  if (version == kTableSegmentVersion) {
    return Status::FailedPrecondition("snapshot version 1: " + path);
  }
  if (version != kSnapshotVersion) {
    return Status::Corruption("snapshot bad version: " + path);
  }
  data.erase(0, data.size() - v.size());  // drop the header in place
  return data;
}

}  // namespace biopera
