// A strict RFC 8259 well-formedness checker for the tests, so schema tests
// validate real syntax instead of grepping for braces. Strings may not hold
// raw bytes below 0x20 and may use only the escapes \" \\ \/ \b \f \n \r \t
// and \uXXXX; numbers follow the RFC grammar (no leading zeros, no bare
// '.', no nan/inf). JsonNumberAt and JsonArrayLengthAt read one member of
// a top-level object back, so tests can round-trip values, not only syntax.

#ifndef KSPLICE_TESTS_JSON_CHECKER_H_
#define KSPLICE_TESTS_JSON_CHECKER_H_

#include <cctype>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>

namespace ks::test {

class JsonChecker {
 public:
  explicit JsonChecker(const std::string& text) : text_(text) {}

  bool Valid() {
    pos_ = 0;
    SkipWs();
    if (!Value()) {
      return false;
    }
    SkipWs();
    return pos_ == text_.size();
  }

  // The text of member `key` of a valid top-level object, or nullopt.
  // Keys are compared as written (escapes are not decoded).
  std::optional<std::string> Member(const std::string& key) {
    if (!Valid()) {
      return std::nullopt;
    }
    pos_ = 0;
    SkipWs();
    if (Peek() != '{') {
      return std::nullopt;
    }
    ++pos_;  // '{'
    SkipWs();
    while (Peek() == '"') {
      size_t name = pos_ + 1;
      String();
      bool match = text_.substr(name, pos_ - 1 - name) == key;
      SkipWs();
      ++pos_;  // ':'
      SkipWs();
      size_t value = pos_;
      Value();
      if (match) {
        return text_.substr(value, pos_ - value);
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        SkipWs();
      }
    }
    return std::nullopt;
  }

  // Elements of the outermost array the last Value() parsed.
  size_t array_length() const { return array_length_; }

 private:
  bool Value() {
    switch (Peek()) {
      case '{':
        return Object();
      case '[':
        return Array();
      case '"':
        return String();
      case 't':
        return Literal("true");
      case 'f':
        return Literal("false");
      case 'n':
        return Literal("null");
      default:
        return Number();
    }
  }

  bool Object() {
    ++pos_;  // '{'
    SkipWs();
    if (Peek() == '}') {
      ++pos_;
      return true;
    }
    while (true) {
      SkipWs();
      if (!String()) {
        return false;
      }
      SkipWs();
      if (Peek() != ':') {
        return false;
      }
      ++pos_;
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == '}') {
        ++pos_;
        return true;
      }
      return false;
    }
  }

  bool Array() {
    ++pos_;  // '['
    SkipWs();
    if (Peek() == ']') {
      ++pos_;
      array_length_ = 0;
      return true;
    }
    for (size_t length = 1;; ++length) {
      SkipWs();
      if (!Value()) {
        return false;
      }
      SkipWs();
      if (Peek() == ',') {
        ++pos_;
        continue;
      }
      if (Peek() == ']') {
        ++pos_;
        array_length_ = length;  // after any nested array's own
        return true;
      }
      return false;
    }
  }

  bool String() {
    if (Peek() != '"') {
      return false;
    }
    ++pos_;
    while (pos_ < text_.size() && text_[pos_] != '"') {
      unsigned char c = static_cast<unsigned char>(text_[pos_++]);
      if (c < 0x20) {
        return false;  // raw control byte: must be escaped
      }
      if (c != '\\') {
        continue;
      }
      char escape = Peek();
      ++pos_;
      if (escape == 'u') {
        for (int i = 0; i < 4; ++i, ++pos_) {
          if (!std::isxdigit(static_cast<unsigned char>(Peek()))) {
            return false;
          }
        }
      } else if (escape == '\0' ||
                 std::strchr("\"\\/bfnrt", escape) == nullptr) {
        return false;
      }
    }
    if (pos_ >= text_.size()) {
      return false;
    }
    ++pos_;  // closing quote
    return true;
  }

  // -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
  bool Number() {
    if (Peek() == '-') {
      ++pos_;
    }
    if (Peek() == '0') {
      ++pos_;
    } else if (!Digits()) {
      return false;
    }
    if (Peek() == '.') {
      ++pos_;
      if (!Digits()) {
        return false;
      }
    }
    if (Peek() == 'e' || Peek() == 'E') {
      ++pos_;
      if (Peek() == '+' || Peek() == '-') {
        ++pos_;
      }
      if (!Digits()) {
        return false;
      }
    }
    return true;
  }

  bool Digits() {
    size_t start = pos_;
    while (std::isdigit(static_cast<unsigned char>(Peek()))) {
      ++pos_;
    }
    return pos_ > start;
  }

  bool Literal(const char* word) {
    size_t len = std::strlen(word);
    if (text_.compare(pos_, len, word) != 0) {
      return false;
    }
    pos_ += len;
    return true;
  }

  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }

  void SkipWs() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\n' ||
            text_[pos_] == '\t' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  const std::string& text_;
  size_t pos_ = 0;
  size_t array_length_ = 0;
};

inline bool ValidJson(const std::string& text) {
  return JsonChecker(text).Valid();
}

// The number at top-level member `key` of `text`, or nullopt when the
// member is missing or not a number.
inline std::optional<double> JsonNumberAt(const std::string& text,
                                          const std::string& key) {
  std::optional<std::string> member = JsonChecker(text).Member(key);
  if (!member.has_value() ||
      (!std::isdigit(static_cast<unsigned char>((*member)[0])) &&
       (*member)[0] != '-')) {
    return std::nullopt;
  }
  return std::strtod(member->c_str(), nullptr);
}

// The length of the array at top-level member `key` of `text`, or nullopt
// when the member is missing or not an array.
inline std::optional<size_t> JsonArrayLengthAt(const std::string& text,
                                               const std::string& key) {
  std::optional<std::string> member = JsonChecker(text).Member(key);
  if (!member.has_value() || (*member)[0] != '[') {
    return std::nullopt;
  }
  JsonChecker array(*member);
  array.Valid();
  return array.array_length();
}

}  // namespace ks::test

#endif  // KSPLICE_TESTS_JSON_CHECKER_H_
