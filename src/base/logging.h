// Minimal leveled logging to stderr. Messages below kWarning are dropped,
// so tests and benches stay quiet.

#ifndef KSPLICE_BASE_LOGGING_H_
#define KSPLICE_BASE_LOGGING_H_

#include <sstream>
#include <string>

namespace ks {

enum class LogLevel { kDebug = 0, kInfo = 1, kWarning = 2, kError = 3 };

// The threshold; messages below it are dropped. Each message is emitted
// with a single write, so concurrent lines never interleave.
LogLevel GetLogLevel();

namespace internal {

class LogMessage {
 public:
  LogMessage(LogLevel level, const char* file, int line);
  ~LogMessage();

  LogMessage(const LogMessage&) = delete;
  LogMessage& operator=(const LogMessage&) = delete;

  std::ostream& stream() { return stream_; }

 private:
  LogLevel level_;
  std::ostringstream stream_;
};

}  // namespace internal
}  // namespace ks

#define KS_LOG(level)                                              \
  if (::ks::LogLevel::level < ::ks::GetLogLevel()) {               \
  } else                                                           \
    ::ks::internal::LogMessage(::ks::LogLevel::level, __FILE__,    \
                               __LINE__)                           \
        .stream()

#endif  // KSPLICE_BASE_LOGGING_H_
