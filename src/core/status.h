#ifndef HIERGAT_CORE_STATUS_H_
#define HIERGAT_CORE_STATUS_H_

#include <string>
#include <utility>
#include <variant>

namespace hiergat {

/// Error categories used across the library. Mirrors the usual
/// absl/rocksdb-style status codes, restricted to what we need.
enum class StatusCode {
  kOk = 0,
  kInvalidArgument,
  kNotFound,
  kOutOfRange,
  kFailedPrecondition,
  kInternal,
  kIOError,
  kUnimplemented,
  /// Load shedding: the caller should back off and retry; used by the
  /// serving batcher's queue cap (admission control).
  kResourceExhausted,
  /// The component is (temporarily or permanently) not accepting work,
  /// e.g. a batcher or server after Shutdown.
  kUnavailable,
};

/// Lightweight error-reporting type. The library does not use exceptions;
/// recoverable failures travel through Status / StatusOr<T>.
class Status {
 public:
  /// Constructs an OK status.
  Status() : code_(StatusCode::kOk) {}
  Status(StatusCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() { return Status(); }
  static Status InvalidArgument(std::string msg) {
    return Status(StatusCode::kInvalidArgument, std::move(msg));
  }
  static Status NotFound(std::string msg) {
    return Status(StatusCode::kNotFound, std::move(msg));
  }
  static Status OutOfRange(std::string msg) {
    return Status(StatusCode::kOutOfRange, std::move(msg));
  }
  static Status FailedPrecondition(std::string msg) {
    return Status(StatusCode::kFailedPrecondition, std::move(msg));
  }
  static Status Internal(std::string msg) {
    return Status(StatusCode::kInternal, std::move(msg));
  }
  static Status IOError(std::string msg) {
    return Status(StatusCode::kIOError, std::move(msg));
  }
  static Status Unimplemented(std::string msg) {
    return Status(StatusCode::kUnimplemented, std::move(msg));
  }
  static Status ResourceExhausted(std::string msg) {
    return Status(StatusCode::kResourceExhausted, std::move(msg));
  }
  static Status Unavailable(std::string msg) {
    return Status(StatusCode::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == StatusCode::kOk; }
  StatusCode code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable rendering, e.g. "InvalidArgument: bad shape".
  std::string ToString() const;

 private:
  StatusCode code_;
  std::string message_;
};

/// Either a value of type T or an error Status. Check ok() before value().
template <typename T>
class StatusOr {
 public:
  /// Implicit construction from a value or a non-OK status keeps call
  /// sites readable (`return result;` / `return Status::NotFound(...)`).
  StatusOr(T value) : payload_(std::move(value)) {}          // NOLINT
  StatusOr(Status status) : payload_(std::move(status)) {}   // NOLINT

  bool ok() const { return std::holds_alternative<T>(payload_); }

  const Status& status() const {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(payload_);
  }

  const T& value() const& { return std::get<T>(payload_); }
  T& value() & { return std::get<T>(payload_); }
  T&& value() && { return std::get<T>(std::move(payload_)); }

 private:
  std::variant<T, Status> payload_;
};

}  // namespace hiergat

#endif  // HIERGAT_CORE_STATUS_H_
