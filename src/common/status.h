#ifndef COLOSSAL_COMMON_STATUS_H_
#define COLOSSAL_COMMON_STATUS_H_

#include <string>
#include <utility>
#include <variant>

#include "common/check.h"

namespace colossal {

// Error categories used across the library. The library does not use
// exceptions; fallible operations return Status or StatusOr<T>.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kResourceExhausted,
  kInternal,
};

// Returns a stable human-readable name for `code`.
inline const char* StatusCodeName(StatusCode code) {
  switch (code) {
    case StatusCode::kOk:
      return "OK";
    case StatusCode::kInvalidArgument:
      return "INVALID_ARGUMENT";
    case StatusCode::kNotFound:
      return "NOT_FOUND";
    case StatusCode::kOutOfRange:
      return "OUT_OF_RANGE";
    case StatusCode::kFailedPrecondition:
      return "FAILED_PRECONDITION";
    case StatusCode::kResourceExhausted:
      return "RESOURCE_EXHAUSTED";
    case StatusCode::kInternal:
      return "INTERNAL";
  }
  return "UNKNOWN";
}

// A lightweight success-or-error value. Copyable and movable.
//
// Example:
//   Status s = db.Validate();
//   if (!s.ok()) return s;
class Status {
 public:
  // Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}

  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string message) {
    return Status(StatusCode::kInvalidArgument, std::move(message));
  }
  static Status NotFound(std::string message) {
    return Status(StatusCode::kNotFound, std::move(message));
  }
  static Status OutOfRange(std::string message) {
    return Status(StatusCode::kOutOfRange, std::move(message));
  }
  static Status FailedPrecondition(std::string message) {
    return Status(StatusCode::kFailedPrecondition, std::move(message));
  }
  static Status ResourceExhausted(std::string message) {
    return Status(StatusCode::kResourceExhausted, std::move(message));
  }
  static Status Internal(std::string message) {
    return Status(StatusCode::kInternal, std::move(message));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // Renders "CODE: message" (or "OK").
  std::string ToString() const {
    if (ok()) return "OK";
    return std::string(StatusCodeName(code_)) + ": " + message_;
  }

  friend bool operator==(const Status& a, const Status& b) {
    return a.code_ == b.code_ && a.message_ == b.message_;
  }

 private:
  StatusCode code_;
  std::string message_;
};

// Holds either a value of type T or an error Status. Access to the value
// when holding an error is a fatal programming error (checked).
template <typename T>
class StatusOr {
 public:
  // Intentionally implicit, mirroring absl::StatusOr ergonomics: functions
  // can `return value;` or `return Status::InvalidArgument(...)`.
  StatusOr(T value) : rep_(std::move(value)) {}
  StatusOr(Status status) : rep_(std::move(status)) {
    COLOSSAL_CHECK(!std::get<Status>(rep_).ok())
        << "StatusOr constructed from OK status without a value";
  }

  bool ok() const { return std::holds_alternative<T>(rep_); }

  // Returns OK when a value is held, else the held error. By value:
  // status() is never on a hot path and value semantics avoid lifetime
  // questions.
  Status status() const {
    if (ok()) return Status();
    return std::get<Status>(rep_);
  }

  const T& value() const& {
    COLOSSAL_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(rep_);
  }
  T& value() & {
    COLOSSAL_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(rep_);
  }
  T&& value() && {
    COLOSSAL_CHECK(ok()) << "StatusOr::value on error: " << status().ToString();
    return std::get<T>(std::move(rep_));
  }

  const T& operator*() const& { return value(); }
  T& operator*() & { return value(); }
  // `*std::move(status_or)` moves the value out; without this overload
  // it would bind to the const& one and copy.
  T&& operator*() && { return std::move(*this).value(); }
  const T* operator->() const { return &value(); }
  T* operator->() { return &value(); }

 private:
  std::variant<Status, T> rep_;
};

}  // namespace colossal

#endif  // COLOSSAL_COMMON_STATUS_H_
