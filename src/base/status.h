// Error-handling primitives used throughout the Ksplice reproduction.
//
// Library code does not throw; fallible operations return ks::Status (no
// payload) or ks::Result<T> (payload or error). The style mirrors
// absl::Status / zx::result: statuses carry a coarse machine-readable code
// plus a human-readable message assembled at the failure site.

#ifndef KSPLICE_BASE_STATUS_H_
#define KSPLICE_BASE_STATUS_H_

#include <cassert>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <variant>

namespace ks {

// Coarse classification of failures. Kept deliberately small: callers that
// need detail parse nothing — they read the message; callers that branch do
// so on the code.
enum class ErrorCode {
  kOk = 0,
  kInvalidArgument,   // malformed input (bad patch, bad object file, ...)
  kNotFound,          // missing symbol, section, file, ...
  kAlreadyExists,     // duplicate definition
  kFailedPrecondition,// operation not valid in current state
  kAborted,           // safety check failed; operation rolled back
  kUnimplemented,     // feature intentionally absent
  kInternal,          // invariant violation (a bug in this library)
  kResourceExhausted, // out of image memory, stack overflow, ...
};

// Returns a stable lowercase name for an error code ("invalid_argument").
std::string_view ErrorCodeName(ErrorCode code);

// Inverse of ErrorCodeName. kOk is not nameable (plans and wire formats
// never carry a success code); unknown names return nullopt.
std::optional<ErrorCode> ErrorCodeFromName(std::string_view name);

// A success-or-error value with no payload.
class [[nodiscard]] Status {
 public:
  // Success.
  Status() : code_(ErrorCode::kOk) {}

  Status(ErrorCode code, std::string message)
      : code_(code), message_(std::move(message)) {
    assert(code != ErrorCode::kOk && "error Status requires a non-ok code");
  }

  bool ok() const { return code_ == ErrorCode::kOk; }
  ErrorCode code() const { return code_; }
  const std::string& message() const { return message_; }

  // "ok" or "invalid_argument: <message>".
  std::string ToString() const;

  // Prepends context to the message, preserving the code. Returns *this to
  // allow `return st.WithContext("loading module foo");`.
  Status& WithContext(std::string_view context);

  // Identity accessor so generic code (macros handling both Status and
  // Result<T>) can uniformly write `x.status()`.
  const Status& status() const { return *this; }

 private:
  ErrorCode code_;
  std::string message_;
};

inline Status OkStatus() { return Status(); }

Status InvalidArgument(std::string message);
Status NotFound(std::string message);
Status AlreadyExists(std::string message);
Status FailedPrecondition(std::string message);
Status Aborted(std::string message);
Status Unimplemented(std::string message);
Status Internal(std::string message);
Status ResourceExhausted(std::string message);

// A value of type T or an error Status. T must be movable.
template <typename T>
class [[nodiscard]] Result {
 public:
  // Implicit from value and from error status, so call sites read naturally:
  //   return 42;
  //   return ks::NotFound("no such symbol");
  Result(T value) : repr_(std::move(value)) {}
  Result(Status status) : repr_(std::move(status)) {
    assert(!std::get<Status>(repr_).ok() &&
           "Result must not be constructed from an ok Status");
  }

  bool ok() const { return std::holds_alternative<T>(repr_); }

  const Status& status() const {
    static const Status kOk;
    return ok() ? kOk : std::get<Status>(repr_);
  }

  T& value() & {
    assert(ok());
    return std::get<T>(repr_);
  }
  const T& value() const& {
    assert(ok());
    return std::get<T>(repr_);
  }
  T&& value() && {
    assert(ok());
    return std::get<T>(std::move(repr_));
  }

  T& operator*() & { return value(); }
  const T& operator*() const& { return value(); }
  T* operator->() { return &value(); }
  const T* operator->() const { return &value(); }

 private:
  std::variant<T, Status> repr_;
};

}  // namespace ks

// Propagates an error Status from an expression, else continues.
#define KS_RETURN_IF_ERROR(expr)        \
  do {                                  \
    ::ks::Status ks_status_ = (expr);   \
    if (!ks_status_.ok()) {             \
      return ks_status_;                \
    }                                   \
  } while (0)

// Evaluates a Result<T> expression; on error propagates the Status, else
// binds the value to `lhs`. `lhs` may include a declaration:
//   KS_ASSIGN_OR_RETURN(auto obj, ParseObject(bytes));
#define KS_ASSIGN_OR_RETURN(lhs, expr)                  \
  KS_ASSIGN_OR_RETURN_IMPL_(                            \
      KS_STATUS_CONCAT_(ks_result_, __LINE__), lhs, expr)

#define KS_ASSIGN_OR_RETURN_IMPL_(result_var, lhs, expr) \
  auto result_var = (expr);                              \
  if (!result_var.ok()) {                                \
    return result_var.status();                          \
  }                                                      \
  lhs = std::move(result_var).value()

#define KS_STATUS_CONCAT_(a, b) KS_STATUS_CONCAT_IMPL_(a, b)
#define KS_STATUS_CONCAT_IMPL_(a, b) a##b

#endif  // KSPLICE_BASE_STATUS_H_
