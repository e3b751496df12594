#include "base/json.h"

#include "base/strings.h"

namespace ks {

JsonWriter& JsonWriter::Value(std::string_view text) {
  Raw("\"");
  for (char c : text) {
    if (c == '"' || c == '\\') {
      out_ += '\\';
      out_ += c;
    } else if (c == '\n') {
      out_ += "\\n";
    } else if (c == '\t') {
      out_ += "\\t";
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out_ += StrPrintf("\\u%04x", c);
    } else {
      out_ += c;
    }
  }
  out_ += '"';
  return *this;
}

JsonWriter& JsonWriter::Value(double value) {
  return Raw(StrPrintf("%.3f", value));
}

}  // namespace ks
