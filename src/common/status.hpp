// Status / Result<T>: the library-wide error model.
//
// Active files span process boundaries, simulated networks, and host-file
// I/O; failures are expected and must be propagated without exceptions
// crossing strategy/IPC boundaries.  Every fallible public operation returns
// either a Status (no payload) or a Result<T> (payload or error).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace afs {

// Error taxonomy.  Codes are stable across the IPC wire (the control
// protocol serializes them), so values are explicit and append-only.
enum class ErrorCode : std::uint16_t {
  kOk = 0,
  kInvalidArgument = 1,
  kNotFound = 2,
  kAlreadyExists = 3,
  kPermissionDenied = 4,
  kUnsupported = 5,       // e.g. ReadFileScatter on plain ProcessStrategy
  kIoError = 6,
  kClosed = 7,            // handle/channel/pipe already closed
  kTimeout = 8,
  kProtocolError = 9,     // malformed control/RPC message
  kRemoteError = 10,      // server-side failure forwarded to the client
  kBusy = 11,             // lock contention / would-block
  kOutOfRange = 12,       // seek/read past logical limits
  kCorrupt = 13,          // bundle/codec integrity failure
  kInternal = 14,
  kOverloaded = 15,       // admission shed; retry after the carried hint
};

// Human-readable name for an error code ("NOT_FOUND" etc.).
std::string_view ErrorCodeName(ErrorCode code) noexcept;

// A success-or-error value without payload.
class [[nodiscard]] Status {
 public:
  Status() noexcept = default;  // OK
  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {}

  static Status Ok() noexcept { return Status(); }
  static Status Error(ErrorCode code, std::string message) {
    return Status(code, std::move(message));
  }

  bool ok() const noexcept { return code_ == ErrorCode::kOk; }
  ErrorCode code() const noexcept { return code_; }
  const std::string& message() const noexcept { return message_; }

  // "OK" or "NOT_FOUND: no such bundle".
  std::string ToString() const;

  friend bool operator==(const Status& a, const Status& b) noexcept {
    return a.code_ == b.code_;
  }

 private:
  ErrorCode code_ = ErrorCode::kOk;
  std::string message_;
};

// Convenience constructors mirroring the taxonomy.
Status InvalidArgumentError(std::string message);
Status NotFoundError(std::string message);
Status AlreadyExistsError(std::string message);
Status PermissionDeniedError(std::string message);
Status UnsupportedError(std::string message);
Status IoError(std::string message);
Status ClosedError(std::string message);
Status TimeoutError(std::string message);
Status ProtocolError(std::string message);
Status RemoteError(std::string message);
Status BusyError(std::string message);
Status OutOfRangeError(std::string message);
Status CorruptError(std::string message);
Status InternalError(std::string message);
Status OverloadedError(std::string message);
// Shed with a retry-after hint.  The hint travels inside the message
// (" [retry-after-ms=N]") so it survives every Status-only seam — the
// control protocol additionally carries it as a typed field
// (docs/PROTOCOL.md §3.4) and HTTP as a Retry-After header.
Status OverloadedError(std::string message, std::int64_t retry_after_ms);
// The hint carried by an OverloadedError, in milliseconds; 0 when the
// status is not kOverloaded or carries no hint.
std::int64_t RetryAfterHintMs(const Status& status) noexcept;

// A value of type T or a Status explaining why there is none.
template <typename T>
class [[nodiscard]] Result {
 public:
  Result(T value) : rep_(std::move(value)) {}          // NOLINT(implicit)
  Result(Status status) : rep_(std::move(status)) {}   // NOLINT(implicit)

  bool ok() const noexcept { return std::holds_alternative<T>(rep_); }

  const Status& status() const noexcept {
    static const Status kOk;
    if (ok()) return kOk;
    return std::get<Status>(rep_);
  }

  // Precondition: ok().
  T& value() & { return std::get<T>(rep_); }
  const T& value() const& { return std::get<T>(rep_); }
  T&& value() && { return std::get<T>(std::move(rep_)); }

  T value_or(T fallback) const& {
    return ok() ? std::get<T>(rep_) : std::move(fallback);
  }

  T* operator->() { return &std::get<T>(rep_); }
  const T* operator->() const { return &std::get<T>(rep_); }
  T& operator*() & { return std::get<T>(rep_); }
  const T& operator*() const& { return std::get<T>(rep_); }

 private:
  std::variant<T, Status> rep_;
};

// Early-return helpers.  Usage:
//   AFS_RETURN_IF_ERROR(DoThing());
//   AFS_ASSIGN_OR_RETURN(auto bytes, ReadAll(path));
#define AFS_RETURN_IF_ERROR(expr)                 \
  do {                                            \
    ::afs::Status afs_status_ = (expr);           \
    if (!afs_status_.ok()) return afs_status_;    \
  } while (0)

#define AFS_CONCAT_INNER_(a, b) a##b
#define AFS_CONCAT_(a, b) AFS_CONCAT_INNER_(a, b)

#define AFS_ASSIGN_OR_RETURN(decl, expr)                          \
  auto AFS_CONCAT_(afs_result_, __LINE__) = (expr);               \
  if (!AFS_CONCAT_(afs_result_, __LINE__).ok())                   \
    return AFS_CONCAT_(afs_result_, __LINE__).status();           \
  decl = std::move(AFS_CONCAT_(afs_result_, __LINE__)).value()

}  // namespace afs
