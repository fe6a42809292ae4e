// The benchmark's own tracing, recorded from outside the program: spans
// around the calls the benchmark makes into each layer, an Fs decorator
// that counts and spans every store file operation, and wrappers that
// span every activity call. All of it observes and never steers: the
// decorator and the wrappers pass every argument and result through
// unchanged, so a traced run produces the same virtual outcome and the
// same exports as an untraced one.
#ifndef PERFBENCH_TRACER_H_
#define PERFBENCH_TRACER_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/activity.h"
#include "src/timing.h"
#include "store/fs.h"

namespace perfbench {

/// In-memory span recorder, safe to use from several threads. Spans nest
/// per thread; a span opened on a thread with nothing open (a pool worker
/// running an activity) takes as parent the innermost *adoptive* span
/// open on the thread that created the tracer — the benchmark's call into
/// a layer that launched the work — so cross-thread work stays attributed
/// to that call without reducing its self time. Activity spans are not
/// adoptive: the creating thread may run one as a pool worker itself,
/// concurrently with its siblings.
class Tracer {
 public:
  Tracer();
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// `layer` and `name` must outlive the tracer (string literals or
  /// strings owned by a longer-lived object).
  int64_t Begin(const char* layer, const char* name, bool adoptive = true);
  void End(int64_t id);

  std::vector<SpanRecord> Spans() const;
  size_t size() const;

  /// One JSON object per span: name, layer, start/end (ns since the first
  /// span), parent index, thread.
  std::string ExportJsonl() const;
  /// Chrome/Perfetto trace ("X" events, microseconds).
  std::string ExportChromeTrace() const;

 private:
  struct ThreadState;
  ThreadState& Local();

  const uint64_t generation_;
  const std::thread::id creator_;
  /// Innermost adoptive span open on the creating thread (-1 when none).
  std::atomic<int64_t> creator_top_{-1};
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;  // guarded by mu_
  uint32_t next_thread_ = 1;       // guarded by mu_
};

/// RAII span; a null tracer makes it a no-op.
class Span {
 public:
  Span(Tracer* tracer, const char* layer, const char* name,
       bool adoptive = true)
      : tracer_(tracer),
        id_(tracer == nullptr ? -1 : tracer->Begin(layer, name, adoptive)) {}
  ~Span() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer* tracer_;
  int64_t id_;
};

/// What the Fs decorator saw. Atomic so files written from any thread
/// count correctly.
struct FsCounters {
  std::atomic<uint64_t> appends{0};
  std::atomic<uint64_t> append_bytes{0};
  std::atomic<uint64_t> flushes{0};
  std::atomic<uint64_t> syncs{0};
  std::atomic<uint64_t> sync_ns{0};
  std::atomic<uint64_t> read_bytes{0};
};

/// Pass-through Fs decorator: forwards every call to `base` unchanged,
/// counting it in `counters` and spanning it (layer "store") in `tracer`
/// when one is given. Sits under the store's FaultFs.
class ObservedFs : public biopera::Fs {
 public:
  ObservedFs(biopera::Fs* base, Tracer* tracer, FsCounters* counters)
      : base_(base), tracer_(tracer), counters_(counters) {}

  biopera::Result<std::unique_ptr<biopera::WritableFile>> OpenForAppend(
      const std::string& path) override;
  biopera::Result<std::unique_ptr<biopera::WritableFile>> OpenForWrite(
      const std::string& path) override;
  biopera::Result<std::string> ReadFileToString(
      const std::string& path) override;
  biopera::Status Rename(const std::string& from,
                         const std::string& to) override;
  biopera::Status Remove(const std::string& path) override;
  biopera::Status CreateDirs(const std::string& dir) override;
  biopera::Status SyncDir(const std::string& dir) override;
  biopera::Result<uint64_t> FileSize(const std::string& path) override;
  bool Exists(const std::string& path) override;

 private:
  biopera::Result<std::unique_ptr<biopera::WritableFile>> Wrap(
      biopera::Result<std::unique_ptr<biopera::WritableFile>> file);

  biopera::Fs* base_;
  Tracer* tracer_;
  FsCounters* counters_;
};

/// Per-binding call accounting of the activity wrappers, safe for calls
/// from pool threads.
class ActivityStats {
 public:
  struct Binding {
    uint64_t calls = 0;
    uint64_t ns = 0;
  };

  void Record(const std::string& binding, uint64_t ns);
  std::map<std::string, Binding> ByBinding() const;
  /// Every call's duration in microseconds, in completion order.
  std::vector<double> CallMicros() const;
  uint64_t TotalCalls() const;
  uint64_t TotalNs() const;

 private:
  mutable std::mutex mu_;
  std::map<std::string, Binding> by_binding_;  // guarded by mu_
  std::vector<double> call_us_;                // guarded by mu_
};

/// Replaces each of `bindings` in `registry` (found with Find, replaced
/// with Override) by a wrapper that times the call into `stats`, spans it
/// (layer "workloads", named after the binding) in `tracer` when one is
/// given, and returns the inner result unchanged. Fails if a binding is
/// missing. `stats` must outlive every call.
biopera::Status WrapActivities(biopera::core::ActivityRegistry* registry,
                               const std::vector<std::string>& bindings,
                               Tracer* tracer, ActivityStats* stats);

}  // namespace perfbench

#endif  // PERFBENCH_TRACER_H_
