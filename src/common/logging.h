#ifndef BIOPERA_COMMON_LOGGING_H_
#define BIOPERA_COMMON_LOGGING_H_

#include <functional>
#include <sstream>
#include <string>

#include "common/time.h"

namespace biopera {

/// The minimum level emitted to stderr is kWarning (benches and tests
/// stay quiet unless something is wrong), overridable at process start
/// with the BIOPERA_LOG_LEVEL environment variable ("debug" | "info" |
/// "warning" | "error", case-insensitive).
enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

/// Registers the clock used to prefix log lines with a timestamp —
/// typically the experiment's Simulator, so lines carry *virtual* time.
/// nullptr (the default) omits the timestamp. The clock must outlive its
/// registration; clear it before destroying the simulator.
void SetLogClock(const Clock* clock);

/// Test hook: when set, every log line (regardless of the stderr level)
/// is also delivered here, so tests can assert on warnings instead of
/// scraping stderr. `message` is the formatted line without the trailing
/// newline. Pass nullptr to clear.
using LogCaptureHook = std::function<void(LogLevel, const std::string&)>;
void SetLogCaptureHook(LogCaptureHook hook);

namespace internal_logging {

/// Stream-style log line; emits on destruction when `level` is enabled.
class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();
  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostringstream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal_logging
}  // namespace biopera

#define BIOPERA_LOG(level)                                             \
  ::biopera::internal_logging::LogMessage(::biopera::LogLevel::level, \
                                          __FILE__, __LINE__)          \
      .stream()

#endif  // BIOPERA_COMMON_LOGGING_H_
