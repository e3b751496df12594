#include "kcc/lexer.h"

#include <algorithm>
#include <array>
#include <iterator>

#include "base/strings.h"

namespace kcc {

namespace {

// Indexed by Tok.
constexpr std::string_view kSpellings[] = {
    "",
    "<<", ">>", "<=", ">=", "==", "!=", "&&", "||", "+=", "-=", "->", "++",
    "--", "+", "-", "&", "|", "!", "<", ">", "=",
    "*", "/", "%", "^", "~", "(", ")", "{", "}", "[", "]", ";", ",", ".",
    "int", "char", "void", "struct", "static", "inline", "extern", "if",
    "else", "while", "for", "return", "break", "continue", "sizeof",
};
static_assert(std::size(kSpellings) == static_cast<size_t>(Tok::kSizeof) + 1);

// The punctuators from Tok::kStar on, in order: none starts a longer one.
constexpr std::string_view kSingles = "*/%^~(){}[];,.";

// Keywords by a perfect hash of first character, last character and length.
constexpr size_t KeywordHash(std::string_view word) {
  return (static_cast<size_t>(word.front() + word.back()) * 7 + word.size()) %
         19;
}
constexpr std::array<Tok, 19> kKeywordTable = [] {
  std::array<Tok, 19> table{};
  for (size_t t = static_cast<size_t>(Tok::kInt);
       t <= static_cast<size_t>(Tok::kSizeof); ++t) {
    table[KeywordHash(kSpellings[t])] = static_cast<Tok>(t);
  }
  return table;
}();
static_assert(std::count(kKeywordTable.begin(), kKeywordTable.end(),
                         Tok::kNone) == 19 - 15,
              "two of the 15 keywords share a hash slot");

// The keyword spelled `word`, or kNone.
Tok Keyword(std::string_view word) {
  Tok tok = kKeywordTable[KeywordHash(word)];
  return Spelling(tok) == word ? tok : Tok::kNone;
}

// The punctuator `rest` starts with, longest first, or kNone.
Tok Punct(std::string_view rest) {
  const char next = rest.size() > 1 ? rest[1] : '\0';
  switch (rest[0]) {
    case '<':
      return next == '<' ? Tok::kShl : next == '=' ? Tok::kLe : Tok::kLt;
    case '>':
      return next == '>' ? Tok::kShr : next == '=' ? Tok::kGe : Tok::kGt;
    case '=': return next == '=' ? Tok::kEq : Tok::kAssign;
    case '!': return next == '=' ? Tok::kNe : Tok::kNot;
    case '&': return next == '&' ? Tok::kAndAnd : Tok::kAmp;
    case '|': return next == '|' ? Tok::kOrOr : Tok::kPipe;
    case '+':
      return next == '=' ? Tok::kPlusAssign
             : next == '+' ? Tok::kInc : Tok::kPlus;
    case '-':
      return next == '=' ? Tok::kMinusAssign
             : next == '>' ? Tok::kArrow
             : next == '-' ? Tok::kDec : Tok::kMinus;
    default: {
      size_t at = kSingles.find(rest[0]);
      return at == std::string_view::npos
                 ? Tok::kNone
                 : static_cast<Tok>(static_cast<size_t>(Tok::kStar) + at);
    }
  }
}

bool IsIdentStart(char c) {
  return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c == '_';
}
bool IsIdentCont(char c) {
  return IsIdentStart(c) || (c >= '0' && c <= '9');
}
bool IsDigit(char c) { return c >= '0' && c <= '9'; }

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
    case 'n': return '\n';
    case 't': return '\t';
    case 'r': return '\r';
    case '0': return '\0';
    case '\\': return '\\';
    case '\'': return '\'';
    case '"': return '"';
    default:
      return ks::InvalidArgument(
          ks::StrPrintf("%s:%d: bad escape '\\%c'", file.c_str(), line, e));
  }
}

}  // namespace

std::string_view Spelling(Tok tok) {
  return kSpellings[static_cast<size_t>(tok)];
}

ks::Result<std::vector<Token>> Lex(std::string_view src,
                                   const std::string& file) {
  std::vector<Token> tokens;
  // Preprocessed corpus units run 3.7 to 5.1 characters per token, so a
  // third of the length is enough for one allocation.
  tokens.reserve(src.size() / 3 + 1);
  size_t i = 0;
  int line = 1;
  auto error = [&file, &line](const char* what) {
    return ks::InvalidArgument(
        ks::StrPrintf("%s:%d: %s", file.c_str(), line, what));
  };
  while (i < src.size()) {
    char c = src[i];
    if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
      line += c == '\n' ? 1 : 0;
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
        return error("unterminated comment");
      }
      i += 2;
      continue;
    }
    // Preprocessor lines reaching the lexer are a bug (see preprocess.cc).
    if (c == '#') {
      return error("unexpected '#' (unpreprocessed input?)");
    }

    Token& tok = tokens.emplace_back();
    tok.line = line;

    if (IsIdentStart(c)) {
      size_t j = i;
      while (j < src.size() && IsIdentCont(src[j])) {
        ++j;
      }
      tok.ident = src.substr(i, j - i);
      tok.tok = Keyword(tok.ident);
      tok.kind = tok.tok == Tok::kNone ? TokKind::kIdent : TokKind::kKeyword;
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
          return error("bad hex literal");
        }
      } else {
        while (j < src.size() && IsDigit(src[j])) {
          value = value * 10 + (src[j] - '0');
          ++j;
        }
      }
      if (j < src.size() && IsIdentStart(src[j])) {
        return error("bad numeric literal suffix");
      }
      tok.kind = TokKind::kIntLit;
      tok.int_value = value;
      i = j;
      continue;
    }

    if (c == '\'') {
      if (++i >= src.size()) {
        return error("unterminated char literal");
      }
      KS_ASSIGN_OR_RETURN(char value, UnescapeChar(src, i, file, line));
      if (i >= src.size() || src[i] != '\'') {
        return error("unterminated char literal");
      }
      ++i;
      tok.kind = TokKind::kCharLit;
      tok.int_value = static_cast<uint8_t>(value);
      continue;
    }

    if (c == '"') {
      ++i;
      std::string value;
      while (i < src.size() && src[i] != '"') {
        if (src[i] == '\n') {
          return error("newline in string literal");
        }
        KS_ASSIGN_OR_RETURN(char ch, UnescapeChar(src, i, file, line));
        value.push_back(ch);
      }
      if (i >= src.size()) {
        return error("unterminated string literal");
      }
      ++i;
      tok.kind = TokKind::kStrLit;
      tok.str_value = std::move(value);
      continue;
    }

    tok.tok = Punct(src.substr(i));
    if (tok.tok == Tok::kNone) {
      return ks::InvalidArgument(ks::StrPrintf(
          "%s:%d: unexpected character '%c'", file.c_str(), line, c));
    }
    tok.kind = TokKind::kPunct;
    i += Spelling(tok.tok).size();
  }
  tokens.emplace_back().line = line;  // kEof
  return tokens;
}

}  // namespace kcc
