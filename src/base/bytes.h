// The byte codec behind every binary format in the project: kelf objects,
// .kspl update packages and cached kanalyze summaries. Words are
// little-endian; strings and blobs are a u32 length followed by the bytes.
//
// ByteReader never reads past its input: each length or count taken from
// the (possibly corrupt) bytes is checked against the bytes *remaining*,
// written so that an attacker-controlled value cannot overflow the check
// itself. Errors name the format given at construction ("kelf: truncated
// u32", "package: truncated string").

#ifndef KSPLICE_BASE_BYTES_H_
#define KSPLICE_BASE_BYTES_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "base/endian.h"
#include "base/status.h"
#include "base/strings.h"

namespace ks {

// Appends encoded values to a byte vector the caller owns.
class ByteWriter {
 public:
  explicit ByteWriter(std::vector<uint8_t>& out) : out_(out) {}

  void U8(uint8_t v) { out_.push_back(v); }
  void U32(uint32_t v) {
    size_t at = out_.size();
    out_.resize(at + 4);
    WriteLe32(out_.data() + at, v);
  }
  void I32(int32_t v) { U32(static_cast<uint32_t>(v)); }
  void U64(uint64_t v) {
    size_t at = out_.size();
    out_.resize(at + 8);
    WriteLe64(out_.data() + at, v);
  }
  void Str(const std::string& s) {
    U32(static_cast<uint32_t>(s.size()));
    out_.insert(out_.end(), s.begin(), s.end());
  }
  void Blob(std::span<const uint8_t> b) {
    U32(static_cast<uint32_t>(b.size()));
    out_.insert(out_.end(), b.begin(), b.end());
  }

 private:
  std::vector<uint8_t>& out_;
};

// Decodes values from a byte span the caller keeps alive.
class ByteReader {
 public:
  // `format` prefixes every error message.
  ByteReader(std::span<const uint8_t> in, const char* format)
      : in_(in), format_(format) {}

  size_t Remaining() const { return in_.size() - pos_; }
  bool AtEnd() const { return pos_ == in_.size(); }

  Result<uint8_t> U8() {
    if (Remaining() < 1) {
      return Truncated("u8");
    }
    return in_[pos_++];
  }
  Result<uint32_t> U32() {
    if (Remaining() < 4) {
      return Truncated("u32");
    }
    uint32_t v = ReadLe32(in_.data() + pos_);
    pos_ += 4;
    return v;
  }
  Result<int32_t> I32() {
    KS_ASSIGN_OR_RETURN(uint32_t v, U32());
    return static_cast<int32_t>(v);
  }
  Result<uint64_t> U64() {
    if (Remaining() < 8) {
      return Truncated("u64");
    }
    uint64_t v = ReadLe64(in_.data() + pos_);
    pos_ += 8;
    return v;
  }
  Result<std::string> Str() {
    KS_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > Remaining()) {
      return Truncated("string");
    }
    std::string s(reinterpret_cast<const char*>(in_.data() + pos_), n);
    pos_ += n;
    return s;
  }
  // A view into the input, valid as long as the input is.
  Result<std::span<const uint8_t>> Blob() {
    KS_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > Remaining()) {
      return Truncated("blob");
    }
    std::span<const uint8_t> b = in_.subspan(pos_, n);
    pos_ += n;
    return b;
  }

  // Validates an element count against the bytes left, given the minimum
  // encoded size of one element. Rejecting count > remaining/min_size
  // keeps a corrupt count from driving a multi-gigabyte reserve() before
  // the per-element reads would catch the truncation.
  Status CheckCount(uint32_t count, size_t min_element_size,
                    const char* what) const {
    if (count > Remaining() / min_element_size) {
      return InvalidArgument(StrPrintf("%s: %s count %u exceeds buffer",
                                       format_, what, count));
    }
    return OkStatus();
  }

 private:
  Status Truncated(const char* what) const {
    return InvalidArgument(StrPrintf("%s: truncated %s", format_, what));
  }

  std::span<const uint8_t> in_;
  const char* format_;
  size_t pos_ = 0;
};

}  // namespace ks

#endif  // KSPLICE_BASE_BYTES_H_
