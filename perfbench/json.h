// A small JSON document model for the benchmark's reports: one value type,
// one serializer, and one strict parser (RFC 8259: no trailing commas, no
// leading zeros, no NaN/Infinity, no control bytes inside strings, nothing
// after the top-level value). The benchmark builds every report as a
// JsonValue, serializes it, and parses the text back before printing it, so
// an output that would not parse back fails the run instead of reaching a
// reader.

#ifndef PERFBENCH_JSON_H_
#define PERFBENCH_JSON_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "base/status.h"

namespace perfbench {

class JsonValue {
 public:
  enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };
  using Member = std::pair<std::string, JsonValue>;

  JsonValue() = default;
  static JsonValue Bool(bool value);
  static JsonValue Number(double value);
  static JsonValue String(std::string value);
  static JsonValue Array();
  static JsonValue Object();

  Kind kind() const { return kind_; }
  bool bool_value() const { return bool_; }
  double number() const { return number_; }
  const std::string& string() const { return string_; }
  const std::vector<JsonValue>& items() const { return items_; }
  const std::vector<Member>& members() const { return members_; }

  // Appends to an array.
  JsonValue& Push(JsonValue value);
  // Appends a member to an object (insertion order is kept on output).
  JsonValue& Set(std::string key, JsonValue value);

  bool operator==(const JsonValue& other) const;

 private:
  Kind kind_ = Kind::kNull;
  bool bool_ = false;
  double number_ = 0.0;
  std::string string_;
  std::vector<JsonValue> items_;
  std::vector<Member> members_;
};

// Compact single-line serialization. Numbers print with enough digits to
// read back to the same double (integral values up to 2^53 print without
// an exponent or fraction). Non-finite numbers are not representable in
// JSON and serialize as null.
std::string Serialize(const JsonValue& value);

// Strict parse of one complete JSON text.
ks::Result<JsonValue> ParseJson(std::string_view text);

}  // namespace perfbench

#endif  // PERFBENCH_JSON_H_
