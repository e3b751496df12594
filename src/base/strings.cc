#include "base/strings.h"

#include <cstdio>

namespace ks {

std::string StrPrintf(const char* format, ...) {
  va_list args;
  va_start(args, format);
  va_list args_copy;
  va_copy(args_copy, args);
  int needed = std::vsnprintf(nullptr, 0, format, args);
  va_end(args);
  std::string out;
  if (needed > 0) {
    out.resize(static_cast<size_t>(needed));
    // +1: vsnprintf writes the terminating NUL into the buffer; data() of a
    // sized std::string has room for it at [size()].
    std::vsnprintf(out.data(), static_cast<size_t>(needed) + 1, format,
                   args_copy);
  }
  va_end(args_copy);
  return out;
}

std::vector<std::string> Split(std::string_view text, char sep) {
  std::vector<std::string> out;
  size_t start = 0;
  while (true) {
    size_t pos = text.find(sep, start);
    if (pos == std::string_view::npos) {
      out.emplace_back(text.substr(start));
      return out;
    }
    out.emplace_back(text.substr(start, pos - start));
    start = pos + 1;
  }
}

std::vector<std::string> SplitLines(std::string_view text) {
  std::vector<std::string> lines = Split(text, '\n');
  if (!lines.empty() && lines.back().empty() && !text.empty()) {
    lines.pop_back();
  }
  if (text.empty()) {
    lines.clear();
  }
  return lines;
}

std::string Join(const std::vector<std::string>& parts, std::string_view sep) {
  std::string out;
  for (size_t i = 0; i < parts.size(); ++i) {
    if (i != 0) {
      out += sep;
    }
    out += parts[i];
  }
  return out;
}

std::string Hex32(uint32_t value) { return StrPrintf("0x%08x", value); }

}  // namespace ks
