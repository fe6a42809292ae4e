#include "src/tracer.h"

#include <cstdio>
#include <set>
#include <utility>

namespace perfbench {

using biopera::Result;
using biopera::Status;
using biopera::WritableFile;

namespace {

std::atomic<uint64_t> g_tracer_generation{1};

/// Process-lifetime copies of dynamic span names (activity bindings), so
/// spans never point into a registry that died before the export.
const char* Intern(const std::string& name) {
  static std::mutex mu;
  static std::set<std::string> names;
  std::lock_guard<std::mutex> lock(mu);
  return names.insert(name).first->c_str();
}

std::string JsonEscape(const char* s) {
  std::string out;
  for (; *s != '\0'; ++s) {
    if (*s == '"' || *s == '\\') out += '\\';
    out += *s;
  }
  return out;
}

}  // namespace

/// Per-thread stack of open spans, bound to one tracer generation (a new
/// tracer resets it, so a recycled tracer address never sees stale ids).
struct Tracer::ThreadState {
  uint64_t generation = 0;
  uint32_t thread = 0;
  std::vector<int64_t> open;
  std::vector<int64_t> adoptive;  // the adoptive subset of `open`
};

Tracer::Tracer()
    : generation_(g_tracer_generation.fetch_add(1)),
      creator_(std::this_thread::get_id()) {}

Tracer::ThreadState& Tracer::Local() {
  thread_local ThreadState state;
  if (state.generation != generation_) {
    state.generation = generation_;
    state.open.clear();
    state.adoptive.clear();
    if (std::this_thread::get_id() == creator_) {
      state.thread = 0;
    } else {
      std::lock_guard<std::mutex> lock(mu_);
      state.thread = next_thread_++;
    }
  }
  return state;
}

int64_t Tracer::Begin(const char* layer, const char* name, bool adoptive) {
  ThreadState& local = Local();
  SpanRecord span;
  span.layer = layer;
  span.name = name;
  span.thread = local.thread;
  span.parent = !local.open.empty() ? local.open.back()
                                    : (local.thread == 0 ? -1
                                                         : creator_top_.load());
  int64_t id;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int64_t>(spans_.size());
    span.start_ns = NowNs();
    spans_.push_back(span);
  }
  local.open.push_back(id);
  if (adoptive) {
    local.adoptive.push_back(id);
    if (local.thread == 0) creator_top_.store(id);
  }
  return id;
}

void Tracer::End(int64_t id) {
  const uint64_t now = NowNs();
  ThreadState& local = Local();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (id >= 0 && static_cast<size_t>(id) < spans_.size()) {
      spans_[id].end_ns = now;
    }
  }
  if (!local.open.empty() && local.open.back() == id) local.open.pop_back();
  if (!local.adoptive.empty() && local.adoptive.back() == id) {
    local.adoptive.pop_back();
    if (local.thread == 0) {
      creator_top_.store(local.adoptive.empty() ? -1 : local.adoptive.back());
    }
  }
}

std::vector<SpanRecord> Tracer::Spans() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

std::string Tracer::ExportJsonl() const {
  std::vector<SpanRecord> spans = Spans();
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out;
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "{\"id\":%zu,\"layer\":\"%s\",\"name\":\"%s\",\"start_ns\":"
                  "%llu,\"end_ns\":%llu,\"parent\":%lld,\"thread\":%u}\n",
                  i, JsonEscape(s.layer).c_str(), JsonEscape(s.name).c_str(),
                  static_cast<unsigned long long>(s.start_ns - origin),
                  static_cast<unsigned long long>(s.end_ns - origin),
                  static_cast<long long>(s.parent), s.thread);
    out += buf;
  }
  return out;
}

std::string Tracer::ExportChromeTrace() const {
  std::vector<SpanRecord> spans = Spans();
  const uint64_t origin = spans.empty() ? 0 : spans.front().start_ns;
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s\n{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"ts\":%.3f,"
                  "\"dur\":%.3f,\"pid\":1,\"tid\":%u}",
                  i == 0 ? "" : ",", JsonEscape(s.name).c_str(),
                  JsonEscape(s.layer).c_str(), (s.start_ns - origin) / 1e3,
                  (s.end_ns - s.start_ns) / 1e3, s.thread);
    out += buf;
  }
  out += "\n]}\n";
  return out;
}

// --- ObservedFs -------------------------------------------------------------

namespace {

class ObservedFile : public WritableFile {
 public:
  ObservedFile(std::unique_ptr<WritableFile> base, Tracer* tracer,
               FsCounters* counters)
      : base_(std::move(base)), tracer_(tracer), counters_(counters) {}

  Status Append(std::string_view data) override {
    Span span(tracer_, "store", "append");
    counters_->appends.fetch_add(1);
    counters_->append_bytes.fetch_add(data.size());
    return base_->Append(data);
  }
  Status Flush() override {
    Span span(tracer_, "store", "flush");
    counters_->flushes.fetch_add(1);
    return base_->Flush();
  }
  Status Sync() override {
    Span span(tracer_, "store", "sync");
    const uint64_t start = NowNs();
    Status st = base_->Sync();
    counters_->syncs.fetch_add(1);
    counters_->sync_ns.fetch_add(NowNs() - start);
    return st;
  }
  Status Close() override {
    Span span(tracer_, "store", "close");
    return base_->Close();
  }

 private:
  std::unique_ptr<WritableFile> base_;
  Tracer* tracer_;
  FsCounters* counters_;
};

}  // namespace

Result<std::unique_ptr<WritableFile>> ObservedFs::Wrap(
    Result<std::unique_ptr<WritableFile>> file) {
  if (!file.ok()) return file;
  return std::unique_ptr<WritableFile>(
      new ObservedFile(std::move(*file), tracer_, counters_));
}

Result<std::unique_ptr<WritableFile>> ObservedFs::OpenForAppend(
    const std::string& path) {
  Span span(tracer_, "store", "open");
  return Wrap(base_->OpenForAppend(path));
}

Result<std::unique_ptr<WritableFile>> ObservedFs::OpenForWrite(
    const std::string& path) {
  Span span(tracer_, "store", "create");
  return Wrap(base_->OpenForWrite(path));
}

Result<std::string> ObservedFs::ReadFileToString(const std::string& path) {
  Span span(tracer_, "store", "read");
  Result<std::string> data = base_->ReadFileToString(path);
  if (data.ok()) counters_->read_bytes.fetch_add(data->size());
  return data;
}

Status ObservedFs::Rename(const std::string& from, const std::string& to) {
  Span span(tracer_, "store", "rename");
  return base_->Rename(from, to);
}

Status ObservedFs::Remove(const std::string& path) {
  Span span(tracer_, "store", "remove");
  return base_->Remove(path);
}

Status ObservedFs::CreateDirs(const std::string& dir) {
  Span span(tracer_, "store", "create_dirs");
  return base_->CreateDirs(dir);
}

Status ObservedFs::SyncDir(const std::string& dir) {
  Span span(tracer_, "store", "sync_dir");
  const uint64_t start = NowNs();
  Status st = base_->SyncDir(dir);
  counters_->syncs.fetch_add(1);
  counters_->sync_ns.fetch_add(NowNs() - start);
  return st;
}

Result<uint64_t> ObservedFs::FileSize(const std::string& path) {
  return base_->FileSize(path);
}

bool ObservedFs::Exists(const std::string& path) {
  return base_->Exists(path);
}

// --- Activity wrappers ------------------------------------------------------

void ActivityStats::Record(const std::string& binding, uint64_t ns) {
  std::lock_guard<std::mutex> lock(mu_);
  Binding& b = by_binding_[binding];
  ++b.calls;
  b.ns += ns;
  call_us_.push_back(static_cast<double>(ns) / 1e3);
}

std::map<std::string, ActivityStats::Binding> ActivityStats::ByBinding()
    const {
  std::lock_guard<std::mutex> lock(mu_);
  return by_binding_;
}

std::vector<double> ActivityStats::CallMicros() const {
  std::lock_guard<std::mutex> lock(mu_);
  return call_us_;
}

uint64_t ActivityStats::TotalCalls() const {
  std::lock_guard<std::mutex> lock(mu_);
  return call_us_.size();
}

uint64_t ActivityStats::TotalNs() const {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t total = 0;
  for (const auto& [name, b] : by_binding_) total += b.ns;
  return total;
}

Status WrapActivities(biopera::core::ActivityRegistry* registry,
                      const std::vector<std::string>& bindings,
                      Tracer* tracer, ActivityStats* stats) {
  for (const std::string& binding : bindings) {
    Result<biopera::core::ActivityFn> inner = registry->Find(binding);
    if (!inner.ok()) return inner.status();
    const char* name = Intern(binding);
    registry->Override(
        binding,
        [inner = std::move(*inner), name, tracer,
         stats](const biopera::core::ActivityInput& input)
            -> Result<biopera::core::ActivityOutput> {
          Span span(tracer, "workloads", name, /*adoptive=*/false);
          const uint64_t start = NowNs();
          Result<biopera::core::ActivityOutput> out = inner(input);
          stats->Record(name, NowNs() - start);
          return out;
        });
  }
  return Status::OK();
}

}  // namespace perfbench
