// The one JSON writer. Every machine-readable output — the ksplice reports,
// the metrics registry, the trace export, the corpus evaluation — is built
// through it, so there is one string escaper and one set of number formats:
//
//   ks::JsonWriter().BeginObject().Field("id", id).Field("n", n)
//       .EndObject().Take()                    // {"id":"...","n":3}
//
// Output is compact (no whitespace); the writer places every ',' and ':'.
// Strings escape '"', '\\', '\n', '\t' and every other byte below 0x20 as
// \u00xx, so any std::string round-trips through a strict parser. Integers
// print in decimal, doubles as "%.3f", bools as true/false. A value with a
// ToJson() member embeds that JSON; a vector writes an array of its
// elements.

#ifndef KSPLICE_BASE_JSON_H_
#define KSPLICE_BASE_JSON_H_

#include <concepts>
#include <string>
#include <string_view>
#include <vector>

namespace ks {

class JsonWriter {
 public:
  JsonWriter& BeginObject() { return Open("{"); }
  JsonWriter& EndObject() { return Close('}'); }
  JsonWriter& BeginArray() { return Open("["); }
  JsonWriter& EndArray() { return Close(']'); }
  JsonWriter& Key(std::string_view key) {
    Value(key).out_ += ':';
    need_comma_ = false;
    return *this;
  }

  JsonWriter& Value(std::string_view text);
  JsonWriter& Value(const char* text) { return Value(std::string_view(text)); }
  JsonWriter& Value(bool value) { return Raw(value ? "true" : "false"); }
  JsonWriter& Value(double value);  // "%.3f"
  template <std::integral T>
  JsonWriter& Value(T value) {
    return Raw(std::to_string(value));
  }
  template <typename T>
    requires requires(const T& report) { report.ToJson(); }
  JsonWriter& Value(const T& report) {
    return Raw(report.ToJson());
  }
  template <typename T>
  JsonWriter& Value(const std::vector<T>& items) {
    BeginArray();
    for (const T& item : items) {
      Value(item);
    }
    return EndArray();
  }

  template <typename T>
  JsonWriter& Field(std::string_view key, const T& value) {
    return Key(key).Value(value);
  }

  std::string Take() { return std::move(out_); }

 private:
  // Writes `json`, which must already be one serialized JSON value.
  JsonWriter& Raw(std::string_view json) {
    if (need_comma_) {
      out_ += ',';
    }
    out_ += json;
    need_comma_ = true;
    return *this;
  }

  JsonWriter& Open(std::string_view bracket) {
    Raw(bracket);
    need_comma_ = false;
    return *this;
  }
  JsonWriter& Close(char bracket) {
    out_ += bracket;
    need_comma_ = true;
    return *this;
  }

  std::string out_;
  bool need_comma_ = false;  // a value precedes the next key or element
};

}  // namespace ks

#endif  // KSPLICE_BASE_JSON_H_
