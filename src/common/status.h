#ifndef BIOPERA_COMMON_STATUS_H_
#define BIOPERA_COMMON_STATUS_H_

#include <string>
#include <string_view>
#include <utility>

namespace biopera {

/// Canonical error codes used across the library. Modeled after the
/// RocksDB/Abseil convention: functions that can fail return a Status (or a
/// Result<T>, see result.h) instead of throwing exceptions.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kAlreadyExists,
  kFailedPrecondition,
  kUnavailable,
  kCorruption,
  kIOError,
  kInternal,
};

/// Returns a stable human-readable name for `code` (e.g. "NotFound").
std::string_view StatusCodeName(StatusCode code);

/// A cheap value type describing the outcome of an operation.
///
/// The OK status carries no allocation; error statuses carry a code and a
/// message. Statuses are copyable and movable.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) = default;
  Status& operator=(Status&&) = default;

  static Status OK() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status AlreadyExists(std::string msg) {
    return Status(StatusCode::kAlreadyExists, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status Corruption(std::string msg) {
    return Status(StatusCode::kCorruption, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  bool IsNotFound() const { return code_ == StatusCode::kNotFound; }
  bool IsInvalidArgument() const {
    return code_ == StatusCode::kInvalidArgument;
  }
  bool IsCorruption() const { return code_ == StatusCode::kCorruption; }
  bool IsFailedPrecondition() const {
    return code_ == StatusCode::kFailedPrecondition;
  }
  bool IsUnavailable() const { return code_ == StatusCode::kUnavailable; }
  bool IsIOError() const { return code_ == StatusCode::kIOError; }

  /// "OK" or "<CodeName>: <message>".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

}  // namespace biopera

/// Propagates an error Status from the current function.
#define BIOPERA_RETURN_IF_ERROR(expr)             \
  do {                                            \
    ::biopera::Status _st = (expr);               \
    if (!_st.ok()) return _st;                    \
  } while (0)

#endif  // BIOPERA_COMMON_STATUS_H_
