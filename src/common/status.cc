#include "common/status.h"

namespace nde {

const char* StatusCodeToString(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "ok";
    case StatusCode::kInvalidArgument:
      return "invalid_argument";
    case StatusCode::kNotFound:
      return "not_found";
    case StatusCode::kAlreadyExists:
      return "already_exists";
    case StatusCode::kOutOfRange:
      return "out_of_range";
    case StatusCode::kFailedPrecondition:
      return "failed_precondition";
    case StatusCode::kUnimplemented:
      return "unimplemented";
    case StatusCode::kInternal:
      return "internal";
    case StatusCode::kIOError:
      return "io_error";
    case StatusCode::kUnavailable:
      return "unavailable";
    case StatusCode::kResourceExhausted:
      return "resource_exhausted";
    case StatusCode::kCancelled:
      return "cancelled";
  }
  return "unknown";
}

bool StatusCodeFromString(const std::string& text, StatusCode* code) {
  static const StatusCode kAll[] = {
      StatusCode::kOk,          StatusCode::kInvalidArgument,
      StatusCode::kNotFound,    StatusCode::kAlreadyExists,
      StatusCode::kOutOfRange,  StatusCode::kFailedPrecondition,
      StatusCode::kUnimplemented, StatusCode::kInternal,
      StatusCode::kIOError,     StatusCode::kUnavailable,
      StatusCode::kResourceExhausted, StatusCode::kCancelled,
  };
  for (StatusCode candidate : kAll) {
    if (text == StatusCodeToString(candidate)) {
      *code = candidate;
      return true;
    }
  }
  return false;
}

std::string Status::ToString() const {
  if (ok()) return "ok";
  std::string out = StatusCodeToString(code_);
  if (!message_.empty()) {
    out += ": ";
    out += message_;
  }
  return out;
}

std::ostream& operator<<(std::ostream& os, const Status& status) {
  return os << status.ToString();
}

}  // namespace nde
