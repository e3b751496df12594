#include "json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "base/strings.h"

namespace perfbench {

JsonValue JsonValue::Bool(bool value) {
  JsonValue v;
  v.kind_ = Kind::kBool;
  v.bool_ = value;
  return v;
}

JsonValue JsonValue::Number(double value) {
  JsonValue v;
  v.kind_ = Kind::kNumber;
  v.number_ = value;
  return v;
}

JsonValue JsonValue::String(std::string value) {
  JsonValue v;
  v.kind_ = Kind::kString;
  v.string_ = std::move(value);
  return v;
}

JsonValue JsonValue::Array() {
  JsonValue v;
  v.kind_ = Kind::kArray;
  return v;
}

JsonValue JsonValue::Object() {
  JsonValue v;
  v.kind_ = Kind::kObject;
  return v;
}

JsonValue& JsonValue::Push(JsonValue value) {
  items_.push_back(std::move(value));
  return items_.back();
}

JsonValue& JsonValue::Set(std::string key, JsonValue value) {
  members_.emplace_back(std::move(key), std::move(value));
  return members_.back().second;
}

bool JsonValue::operator==(const JsonValue& other) const {
  if (kind_ != other.kind_) {
    return false;
  }
  switch (kind_) {
    case Kind::kNull:
      return true;
    case Kind::kBool:
      return bool_ == other.bool_;
    case Kind::kNumber:
      return number_ == other.number_;
    case Kind::kString:
      return string_ == other.string_;
    case Kind::kArray:
      return items_ == other.items_;
    case Kind::kObject:
      return members_ == other.members_;
  }
  return false;
}

namespace {

void AppendString(const std::string& text, std::string* out) {
  out->push_back('"');
  for (char c : text) {
    switch (c) {
      case '"':
        *out += "\\\"";
        break;
      case '\\':
        *out += "\\\\";
        break;
      case '\n':
        *out += "\\n";
        break;
      case '\r':
        *out += "\\r";
        break;
      case '\t':
        *out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          *out += ks::StrPrintf("\\u%04x", static_cast<unsigned>(c));
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

void AppendNumber(double value, std::string* out) {
  if (!std::isfinite(value)) {
    *out += "null";
    return;
  }
  if (value == std::floor(value) && std::fabs(value) <= 9007199254740992.0) {
    *out += ks::StrPrintf("%.0f", value);
    return;
  }
  // Shortest %.Ng that reads back to the same double.
  for (int digits = 6; digits <= 17; ++digits) {
    std::string text = ks::StrPrintf("%.*g", digits, value);
    if (std::strtod(text.c_str(), nullptr) == value) {
      *out += text;
      return;
    }
  }
  *out += ks::StrPrintf("%.17g", value);
}

void AppendValue(const JsonValue& value, std::string* out) {
  switch (value.kind()) {
    case JsonValue::Kind::kNull:
      *out += "null";
      return;
    case JsonValue::Kind::kBool:
      *out += value.bool_value() ? "true" : "false";
      return;
    case JsonValue::Kind::kNumber:
      AppendNumber(value.number(), out);
      return;
    case JsonValue::Kind::kString:
      AppendString(value.string(), out);
      return;
    case JsonValue::Kind::kArray: {
      out->push_back('[');
      bool first = true;
      for (const JsonValue& item : value.items()) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendValue(item, out);
      }
      out->push_back(']');
      return;
    }
    case JsonValue::Kind::kObject: {
      out->push_back('{');
      bool first = true;
      for (const JsonValue::Member& member : value.members()) {
        if (!first) {
          out->push_back(',');
        }
        first = false;
        AppendString(member.first, out);
        out->push_back(':');
        AppendValue(member.second, out);
      }
      out->push_back('}');
      return;
    }
  }
}

// Recursive-descent parser over the whole text; `pos_` is the next byte.
class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  ks::Result<JsonValue> ParseDocument() {
    KS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(0));
    SkipSpace();
    if (pos_ != text_.size()) {
      return Error("trailing bytes after the top-level value");
    }
    return value;
  }

 private:
  static constexpr int kMaxDepth = 64;

  ks::Status Error(const std::string& what) const {
    return ks::InvalidArgument(
        ks::StrPrintf("json: %s at offset %zu", what.c_str(), pos_));
  }

  void SkipSpace() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' ||
            text_[pos_] == '\n' || text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool Consume(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) == literal) {
      pos_ += literal.size();
      return true;
    }
    return false;
  }

  ks::Result<JsonValue> ParseValue(int depth) {
    if (depth > kMaxDepth) {
      return Error("nesting too deep");
    }
    SkipSpace();
    if (pos_ >= text_.size()) {
      return Error("unexpected end of input");
    }
    char c = text_[pos_];
    if (c == '{') {
      return ParseObject(depth);
    }
    if (c == '[') {
      return ParseArray(depth);
    }
    if (c == '"') {
      KS_ASSIGN_OR_RETURN(std::string s, ParseString());
      return JsonValue::String(std::move(s));
    }
    if (Consume("true")) {
      return JsonValue::Bool(true);
    }
    if (Consume("false")) {
      return JsonValue::Bool(false);
    }
    if (Consume("null")) {
      return JsonValue();
    }
    return ParseNumber();
  }

  ks::Result<JsonValue> ParseObject(int depth) {
    ++pos_;  // '{'
    JsonValue object = JsonValue::Object();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      return object;
    }
    while (true) {
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != '"') {
        return Error("expected a member name");
      }
      KS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipSpace();
      if (pos_ >= text_.size() || text_[pos_] != ':') {
        return Error("expected ':'");
      }
      ++pos_;
      KS_ASSIGN_OR_RETURN(JsonValue value, ParseValue(depth + 1));
      object.Set(std::move(key), std::move(value));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == '}') {
        ++pos_;
        return object;
      }
      return Error("expected ',' or '}'");
    }
  }

  ks::Result<JsonValue> ParseArray(int depth) {
    ++pos_;  // '['
    JsonValue array = JsonValue::Array();
    SkipSpace();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      return array;
    }
    while (true) {
      KS_ASSIGN_OR_RETURN(JsonValue item, ParseValue(depth + 1));
      array.Push(std::move(item));
      SkipSpace();
      if (pos_ < text_.size() && text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (pos_ < text_.size() && text_[pos_] == ']') {
        ++pos_;
        return array;
      }
      return Error("expected ',' or ']'");
    }
  }

  ks::Result<uint32_t> ParseHex4() {
    if (pos_ + 4 > text_.size()) {
      return Error("truncated \\u escape");
    }
    uint32_t code = 0;
    for (int i = 0; i < 4; ++i) {
      char h = text_[pos_++];
      code <<= 4;
      if (h >= '0' && h <= '9') {
        code |= static_cast<uint32_t>(h - '0');
      } else if (h >= 'a' && h <= 'f') {
        code |= static_cast<uint32_t>(h - 'a' + 10);
      } else if (h >= 'A' && h <= 'F') {
        code |= static_cast<uint32_t>(h - 'A' + 10);
      } else {
        return Error("bad hex digit in \\u escape");
      }
    }
    return code;
  }

  static void AppendUtf8(uint32_t code, std::string* out) {
    if (code < 0x80) {
      out->push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out->push_back(static_cast<char>(0xc0 | (code >> 6)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else if (code < 0x10000) {
      out->push_back(static_cast<char>(0xe0 | (code >> 12)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    } else {
      out->push_back(static_cast<char>(0xf0 | (code >> 18)));
      out->push_back(static_cast<char>(0x80 | ((code >> 12) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3f)));
      out->push_back(static_cast<char>(0x80 | (code & 0x3f)));
    }
  }

  ks::Result<std::string> ParseString() {
    ++pos_;  // opening quote
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) {
        return Error("unterminated string");
      }
      char c = text_[pos_++];
      if (c == '"') {
        return out;
      }
      if (static_cast<unsigned char>(c) < 0x20) {
        return Error("control byte inside a string");
      }
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) {
        return Error("truncated escape");
      }
      char e = text_[pos_++];
      switch (e) {
        case '"':
        case '\\':
        case '/':
          out.push_back(e);
          break;
        case 'b':
          out.push_back('\b');
          break;
        case 'f':
          out.push_back('\f');
          break;
        case 'n':
          out.push_back('\n');
          break;
        case 'r':
          out.push_back('\r');
          break;
        case 't':
          out.push_back('\t');
          break;
        case 'u': {
          KS_ASSIGN_OR_RETURN(uint32_t code, ParseHex4());
          if (code >= 0xdc00 && code <= 0xdfff) {
            return Error("unpaired low surrogate");
          }
          if (code >= 0xd800 && code <= 0xdbff) {
            if (!Consume("\\u")) {
              return Error("unpaired high surrogate");
            }
            KS_ASSIGN_OR_RETURN(uint32_t low, ParseHex4());
            if (low < 0xdc00 || low > 0xdfff) {
              return Error("bad low surrogate");
            }
            code = 0x10000 + ((code - 0xd800) << 10) + (low - 0xdc00);
          }
          AppendUtf8(code, &out);
          break;
        }
        default:
          return Error("unknown escape");
      }
    }
  }

  ks::Result<JsonValue> ParseNumber() {
    size_t start = pos_;
    auto digit = [&] {
      return pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9';
    };
    if (pos_ < text_.size() && text_[pos_] == '-') {
      ++pos_;
    }
    if (!digit()) {
      return Error("expected a value");
    }
    if (text_[pos_] == '0') {
      ++pos_;
      if (digit()) {
        return Error("leading zero in a number");
      }
    } else {
      while (digit()) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (!digit()) {
        return Error("expected a digit after '.'");
      }
      while (digit()) {
        ++pos_;
      }
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-')) {
        ++pos_;
      }
      if (!digit()) {
        return Error("expected an exponent digit");
      }
      while (digit()) {
        ++pos_;
      }
    }
    std::string literal(text_.substr(start, pos_ - start));
    double value = std::strtod(literal.c_str(), nullptr);
    if (!std::isfinite(value)) {
      return Error("number out of range");
    }
    return JsonValue::Number(value);
  }

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

std::string Serialize(const JsonValue& value) {
  std::string out;
  AppendValue(value, &out);
  return out;
}

ks::Result<JsonValue> ParseJson(std::string_view text) {
  return Parser(text).ParseDocument();
}

}  // namespace perfbench
