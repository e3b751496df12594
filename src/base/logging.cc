#include "base/logging.h"

#include <cstdio>
#include <cstring>

namespace ks {

namespace {

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

const char* Basename(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash != nullptr ? slash + 1 : path;
}

}  // namespace

LogLevel GetLogLevel() { return LogLevel::kWarning; }

namespace internal {

LogMessage::LogMessage(LogLevel level, const char* file, int line)
    : level_(level) {
  stream_ << "[" << LevelTag(level) << " " << Basename(file) << ":" << line
          << "] ";
}

LogMessage::~LogMessage() {
  std::string text = stream_.str();
  text.push_back('\n');
  // One fwrite per message: stdio locks the stream per call, so lines from
  // concurrent pipeline workers cannot interleave mid-line.
  std::fwrite(text.data(), 1, text.size(), stderr);
  (void)level_;
}

}  // namespace internal
}  // namespace ks
