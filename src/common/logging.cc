#include "common/logging.h"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace biopera {

namespace {

int LevelFromEnv() {
  const char* env = std::getenv("BIOPERA_LOG_LEVEL");
  if (env == nullptr) return static_cast<int>(LogLevel::kWarning);
  std::string value(env);
  for (char& c : value) {
    c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
  }
  if (value == "debug" || value == "d") return static_cast<int>(LogLevel::kDebug);
  if (value == "info" || value == "i") return static_cast<int>(LogLevel::kInfo);
  if (value == "warning" || value == "warn" || value == "w") {
    return static_cast<int>(LogLevel::kWarning);
  }
  if (value == "error" || value == "e") return static_cast<int>(LogLevel::kError);
  return static_cast<int>(LogLevel::kWarning);
}

const int g_log_level = LevelFromEnv();
const Clock* g_log_clock = nullptr;
LogCaptureHook g_capture_hook;

const char* LevelTag(LogLevel level) {
  switch (level) {
    case LogLevel::kDebug:
      return "D";
    case LogLevel::kInfo:
      return "I";
    case LogLevel::kWarning:
      return "W";
    case LogLevel::kError:
      return "E";
  }
  return "?";
}
}  // namespace

void SetLogClock(const Clock* clock) { g_log_clock = clock; }

void SetLogCaptureHook(LogCaptureHook hook) {
  g_capture_hook = std::move(hook);
}

namespace internal_logging {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  const char* base = std::strrchr(file, '/');
  stream_ << "[" << LevelTag(level);
  if (g_log_clock != nullptr) {
    stream_ << " " << g_log_clock->Now().ToString();
  }
  stream_ << " " << (base ? base + 1 : file) << ":" << line << "] ";
}

LogMessage::~LogMessage() {
  std::string line = stream_.str();
  if (g_capture_hook) g_capture_hook(level_, line);
  if (static_cast<int>(level_) < g_log_level) return;
  line.push_back('\n');
  std::fwrite(line.data(), 1, line.size(), stderr);
}

}  // namespace internal_logging
}  // namespace biopera
