#include "store/fs.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <system_error>
#include <utility>

#include "common/strings.h"

namespace biopera {

namespace {

class RealFile : public WritableFile {
 public:
  explicit RealFile(std::FILE* f) : file_(f) {}
  ~RealFile() override {
    if (file_ != nullptr) std::fclose(file_);
  }

  Status Append(std::string_view data) override {
    if (std::fwrite(data.data(), 1, data.size(), file_) != data.size()) {
      return Status::IOError("file append: short write");
    }
    return Status::OK();
  }

  Status Flush() override {
    if (std::fflush(file_) != 0) {
      return Status::IOError(
          StrFormat("file flush: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Sync() override {
    BIOPERA_RETURN_IF_ERROR(Flush());
    if (::fsync(::fileno(file_)) != 0) {
      return Status::IOError(StrFormat("fsync: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Close() override {
    if (file_ == nullptr) return Status::OK();
    std::FILE* f = file_;
    file_ = nullptr;
    if (std::fclose(f) != 0) {
      return Status::IOError(
          StrFormat("file close: %s", std::strerror(errno)));
    }
    return Status::OK();
  }

 private:
  std::FILE* file_;
};

class RealFs : public Fs {
 public:
  Result<std::unique_ptr<WritableFile>> OpenForAppend(
      const std::string& path) override {
    return OpenMode(path, "ab");
  }

  Result<std::unique_ptr<WritableFile>> OpenForWrite(
      const std::string& path) override {
    return OpenMode(path, "wb");
  }

  Result<std::string> ReadFileToString(const std::string& path) override {
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr) {
      if (errno == ENOENT) return Status::NotFound("no such file: " + path);
      return Status::IOError(
          StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
    }
    // One read into a buffer sized from the file, one byte over so that
    // EOF shows without growing it. Appending in chunks copied and
    // faulted in every segment and WAL several times over.
    struct stat info;
    size_t capacity = 1 << 16;
    if (::fstat(::fileno(f), &info) == 0 && info.st_size > 0) {
      capacity = static_cast<size_t>(info.st_size) + 1;
    }
    std::string data(capacity, '\0');
    size_t size = 0;
    size_t got;
    while ((got = std::fread(data.data() + size, 1, data.size() - size, f)) >
           0) {
      size += got;
      if (size == data.size()) data.resize(2 * size);  // grew since fstat
    }
    data.resize(size);
    bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
      return Status::IOError(StrFormat("read %s failed", path.c_str()));
    }
    return data;
  }

  Status Rename(const std::string& from, const std::string& to) override {
    if (std::rename(from.c_str(), to.c_str()) != 0) {
      return Status::IOError(StrFormat("rename %s -> %s: %s", from.c_str(),
                                       to.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Status Remove(const std::string& path) override {
    if (std::remove(path.c_str()) != 0) {
      return Status::IOError(
          StrFormat("remove %s: %s", path.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Status CreateDirs(const std::string& dir) override {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec) {
      return Status::IOError(
          StrFormat("mkdir %s: %s", dir.c_str(), ec.message().c_str()));
    }
    return Status::OK();
  }

  Status SyncDir(const std::string& dir) override {
    int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
    if (fd < 0) {
      return Status::IOError(
          StrFormat("open dir %s: %s", dir.c_str(), std::strerror(errno)));
    }
    int rc = ::fsync(fd);
    ::close(fd);
    if (rc != 0) {
      return Status::IOError(
          StrFormat("fsync dir %s: %s", dir.c_str(), std::strerror(errno)));
    }
    return Status::OK();
  }

  Result<uint64_t> FileSize(const std::string& path) override {
    std::error_code ec;
    uint64_t size = std::filesystem::file_size(path, ec);
    if (ec) {
      return Status::IOError(
          StrFormat("stat %s: %s", path.c_str(), ec.message().c_str()));
    }
    return size;
  }

  bool Exists(const std::string& path) override {
    std::error_code ec;
    return std::filesystem::exists(path, ec);
  }

 private:
  static Result<std::unique_ptr<WritableFile>> OpenMode(
      const std::string& path, const char* mode) {
    std::FILE* f = std::fopen(path.c_str(), mode);
    if (f == nullptr) {
      return Status::IOError(
          StrFormat("open %s: %s", path.c_str(), std::strerror(errno)));
    }
    return std::unique_ptr<WritableFile>(new RealFile(f));
  }
};

std::string_view BaseName(std::string_view path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string_view::npos ? path : path.substr(slash + 1);
}

std::string ClassifyPath(const std::string& path) {
  std::string_view name = BaseName(path);
  if (name.size() > 4 && name.substr(name.size() - 4) == ".tmp") {
    name.remove_suffix(4);
  }
  if (name.substr(0, 3) == "wal") return "wal";
  if (name == "MANIFEST") return "manifest";
  if (name.substr(0, 4) == "seg_") return "seg";
  return "file";
}

}  // namespace

Fs* Fs::Default() {
  static RealFs* real = new RealFs();
  return real;
}

std::string ParentDir(const std::string& path) {
  size_t slash = path.find_last_of('/');
  if (slash == std::string::npos) return ".";
  if (slash == 0) return "/";
  return path.substr(0, slash);
}

/// Wraps a base WritableFile: appends stay in an in-memory buffer until
/// Flush/Sync/Close so an injected crash drops exactly the bytes a real
/// one would. Each op consults the owning FaultFs first.
class FaultFile : public WritableFile {
 public:
  FaultFile(FaultFs* fs, std::string cls, std::unique_ptr<WritableFile> base)
      : fs_(fs), cls_(std::move(cls)), base_(std::move(base)) {}

  ~FaultFile() override {
    // A dead disk never gets the buffered bytes; otherwise behave like a
    // normal close (best effort).
    if (!fs_->dead() && !buf_.empty()) {
      (void)base_->Append(buf_);
    }
    (void)base_->Close();
  }

  Status Append(std::string_view data) override {
    FaultFs::Action act = fs_->Account(cls_ + ".append", data.size());
    if (act.kind == FaultFs::Action::kTorn) {
      buf_.append(data.substr(0, act.keep_bytes));
      (void)PushThrough();
      return act.error;
    }
    if (act.kind == FaultFs::Action::kFail) return act.error;
    buf_.append(data);
    return Status::OK();
  }

  Status Flush() override {
    FaultFs::Action act = fs_->Account(cls_ + ".flush", buf_.size());
    if (act.kind == FaultFs::Action::kTorn) {
      buf_.resize(act.keep_bytes);
      (void)PushThrough();
      return act.error;
    }
    if (act.kind == FaultFs::Action::kFail) return act.error;
    return PushThrough();
  }

  Status Sync() override {
    FaultFs::Action act = fs_->Account(cls_ + ".sync", buf_.size());
    if (act.kind == FaultFs::Action::kTorn) {
      buf_.resize(act.keep_bytes);
      (void)PushThrough();
      return act.error;
    }
    if (act.kind == FaultFs::Action::kFail) return act.error;
    BIOPERA_RETURN_IF_ERROR(PushThrough());
    return base_->Sync();
  }

  Status Close() override {
    if (fs_->dead()) {
      buf_.clear();
      (void)base_->Close();
      return Status::IOError("fault fs: disk dead");
    }
    BIOPERA_RETURN_IF_ERROR(PushThrough());
    return base_->Close();
  }

 private:
  Status PushThrough() {
    if (!buf_.empty()) {
      BIOPERA_RETURN_IF_ERROR(base_->Append(buf_));
      buf_.clear();
    }
    return base_->Flush();
  }

  FaultFs* fs_;
  std::string cls_;
  std::unique_ptr<WritableFile> base_;
  std::string buf_;
};

bool FaultFs::ConsumesSpace(const std::string& point) {
  size_t dot = point.find_last_of('.');
  std::string_view op = std::string_view(point).substr(dot + 1);
  return op == "open" || op == "create" || op == "append" || op == "flush" ||
         op == "sync";
}

FaultFs::Action FaultFs::Account(const std::string& point, size_t len) {
  uint64_t hit = ++hits_[point];
  Action act;
  if (dead_) {
    act.kind = Action::kFail;
    act.error = Status::IOError("fault fs: disk dead (" + point + ")");
    return act;
  }
  if (armed_.has_value() && armed_->point == point &&
      hit == armed_->at_hit) {
    Armed a = *armed_;
    armed_.reset();
    if (a.crash) {
      dead_ = true;
      pending_renames_.clear();  // un-synced dirents die with the machine
      act.error = Status::IOError("fault fs: crash at " + point);
      if (len > 0) {
        act.kind = Action::kTorn;
        act.keep_bytes = len / 2;
      } else {
        act.kind = Action::kFail;
      }
      return act;
    }
    act.kind = Action::kFail;
    act.error = Status::IOError("fault fs: injected error at " + point);
    return act;
  }
  if (disk_full_ && ConsumesSpace(point)) {
    act.kind = Action::kFail;
    act.error = Status::IOError("fault fs: no space left (" + point + ")");
    return act;
  }
  return act;
}

Result<std::unique_ptr<WritableFile>> FaultFs::OpenForAppend(
    const std::string& path) {
  std::string cls = ClassifyPath(path);
  Action act = Account(cls + ".open", 0);
  if (act.kind != Action::kProceed) return act.error;
  BIOPERA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                           base_->OpenForAppend(path));
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(cls), std::move(base)));
}

Result<std::unique_ptr<WritableFile>> FaultFs::OpenForWrite(
    const std::string& path) {
  std::string cls = ClassifyPath(path);
  Action act = Account(cls + ".create", 0);
  if (act.kind != Action::kProceed) return act.error;
  BIOPERA_ASSIGN_OR_RETURN(std::unique_ptr<WritableFile> base,
                           base_->OpenForWrite(path));
  return std::unique_ptr<WritableFile>(
      new FaultFile(this, std::move(cls), std::move(base)));
}

Result<std::string> FaultFs::ReadFileToString(const std::string& path) {
  return base_->ReadFileToString(path);
}

Status FaultFs::Rename(const std::string& from, const std::string& to) {
  Action act = Account(ClassifyPath(to) + ".rename", 0);
  if (act.kind != Action::kProceed) return act.error;
  if (delay_renames_) {
    pending_renames_.emplace_back(from, to);
    return Status::OK();
  }
  return base_->Rename(from, to);
}

Status FaultFs::Remove(const std::string& path) {
  Action act = Account(ClassifyPath(path) + ".remove", 0);
  if (act.kind != Action::kProceed) return act.error;
  return base_->Remove(path);
}

Status FaultFs::CreateDirs(const std::string& dir) {
  if (dead_) return Status::IOError("fault fs: disk dead (mkdir)");
  return base_->CreateDirs(dir);
}

Status FaultFs::SyncDir(const std::string& dir) {
  Action act = Account("dir.sync", 0);
  if (act.kind != Action::kProceed) return act.error;
  // The dirent updates become durable with the directory sync.
  for (size_t i = 0; i < pending_renames_.size();) {
    const auto& [from, to] = pending_renames_[i];
    if (ParentDir(to) == dir) {
      BIOPERA_RETURN_IF_ERROR(base_->Rename(from, to));
      pending_renames_.erase(pending_renames_.begin() +
                             static_cast<long>(i));
    } else {
      ++i;
    }
  }
  return base_->SyncDir(dir);
}

Result<uint64_t> FaultFs::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool FaultFs::Exists(const std::string& path) {
  return base_->Exists(path);
}

void FaultFs::ArmCrash(const std::string& point, uint64_t at_hit) {
  armed_ = Armed{point, at_hit == 0 ? 1 : at_hit, /*crash=*/true};
}

void FaultFs::ArmError(const std::string& point, uint64_t at_hit) {
  armed_ = Armed{point, at_hit == 0 ? 1 : at_hit, /*crash=*/false};
}

}  // namespace biopera
