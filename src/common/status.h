#ifndef NDE_COMMON_STATUS_H_
#define NDE_COMMON_STATUS_H_

#include <ostream>
#include <string>
#include <utility>

namespace nde {

/// Machine-readable classification of an error. Mirrors the canonical error
/// space used by production database engines: a small, closed set of codes
/// that callers can branch on, plus a free-form message for humans.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kOutOfRange = 4,
  kFailedPrecondition = 5,
  kUnimplemented = 6,
  kInternal = 7,
  kIOError = 8,
  /// Transient failure (flaky backend, lost connection).
  kUnavailable = 9,
  /// Out of memory/quota/capacity, e.g. the job queue's 429.
  kResourceExhausted = 10,
  /// The caller asked for the operation to stop (cooperative cancellation,
  /// e.g. DELETE /jobs/<id> raising EstimatorOptions::cancel): the work was
  /// abandoned on purpose, so it is not a fault.
  kCancelled = 11,
};

/// Returns the canonical lowercase name of a status code ("ok",
/// "invalid_argument", ...). Stable; safe to use in logs and golden tests.
const char* StatusCodeToString(StatusCode code);

/// Inverse of StatusCodeToString: parses a canonical lowercase name. Returns
/// false (leaving `*code` untouched) for unknown names. Used by the failpoint
/// spec parser, so operators can write `error(io_error:disk gone)`.
bool StatusCodeFromString(const std::string& text, StatusCode* code);

/// Result of an operation that can fail without it being a programming error.
///
/// `Status` is returned by value, is cheap to move, and never throws. The
/// library reserves exceptions-free semantics across its public API: expected
/// failures (bad input, missing column, I/O trouble) travel through `Status`
/// or `Result<T>`, while invariant violations abort via `NDE_CHECK`.
///
/// Typical use:
///
///     Status s = table.Validate();
///     if (!s.ok()) return s;
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  /// Constructs a status with the given code and message. An empty message is
  /// allowed but discouraged for non-OK codes.
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  Status(const Status&) = default;
  Status& operator=(const Status&) = default;
  Status(Status&&) noexcept = default;
  Status& operator=(Status&&) noexcept = default;

  /// Factory helpers; prefer these over the raw constructor at call sites.
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
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Cancelled(std::string msg) {
    return Status(StatusCode::kCancelled, std::move(msg));
  }

  /// True iff the operation succeeded.
  bool ok() const { return code_ == StatusCode::kOk; }

  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// "ok" or "<code>: <message>"; intended for logs and error reporting.
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

std::ostream& operator<<(std::ostream& os, const Status& status);

/// Propagates a non-OK status to the caller. Usable only in functions that
/// return `Status` (or a type constructible from it, such as `Result<T>`).
#define NDE_RETURN_IF_ERROR(expr)                  \
  do {                                             \
    ::nde::Status nde_status_tmp_ = (expr);        \
    if (!nde_status_tmp_.ok()) return nde_status_tmp_; \
  } while (false)

}  // namespace nde

#endif  // NDE_COMMON_STATUS_H_
