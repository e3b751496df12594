// Small string helpers shared across the project. GCC 12 lacks std::format,
// so formatting goes through StrPrintf.

#ifndef KSPLICE_BASE_STRINGS_H_
#define KSPLICE_BASE_STRINGS_H_

#include <cstdarg>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace ks {

// printf-style formatting into a std::string.
std::string StrPrintf(const char* format, ...)
    __attribute__((format(printf, 1, 2)));

// Splits `text` on `sep`, keeping empty fields. Splitting "" yields {""}
// (one empty field), matching the behaviour of line-oriented formats.
std::vector<std::string> Split(std::string_view text, char sep);

// Splits text into lines; a trailing '\n' does not produce an extra empty
// final line. SplitLines("a\nb\n") == {"a", "b"}.
std::vector<std::string> SplitLines(std::string_view text);

// Joins `parts` with `sep`.
std::string Join(const std::vector<std::string>& parts, std::string_view sep);

inline bool StartsWith(std::string_view text, std::string_view prefix) {
  return text.starts_with(prefix);
}
inline bool EndsWith(std::string_view text, std::string_view suffix) {
  return text.ends_with(suffix);
}

// Strips leading and trailing whitespace (space, tab, CR, LF). Inline: the
// preprocessor and the include scan trim every directive line.
inline std::string_view Trim(std::string_view text) {
  auto blank = [](char c) {
    return c == ' ' || c == '\t' || c == '\r' || c == '\n';
  };
  while (!text.empty() && blank(text.front())) {
    text.remove_prefix(1);
  }
  while (!text.empty() && blank(text.back())) {
    text.remove_suffix(1);
  }
  return text.empty() ? std::string_view() : text;
}

// Formats a byte count or address as fixed-width hex: "0x0000f010".
std::string Hex32(uint32_t value);

}  // namespace ks

#endif  // KSPLICE_BASE_STRINGS_H_
