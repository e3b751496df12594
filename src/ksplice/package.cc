#include "ksplice/package.h"

#include "base/faultinject.h"

#include "base/endian.h"
#include "base/hash.h"
#include "base/strings.h"

namespace ksplice {

const std::array<HookStageBinding, 6>& HookStageBindings() {
  static const std::array<HookStageBinding, 6> kBindings = {{
      {"pre_apply", ".ksplice.pre_apply", &HookSet::pre_apply},
      {"apply", ".ksplice.apply", &HookSet::apply},
      {"post_apply", ".ksplice.post_apply", &HookSet::post_apply},
      {"pre_reverse", ".ksplice.pre_reverse", &HookSet::pre_reverse},
      {"reverse", ".ksplice.reverse", &HookSet::reverse},
      {"post_reverse", ".ksplice.post_reverse", &HookSet::post_reverse},
  }};
  return kBindings;
}

namespace {

constexpr uint32_t kMagic = 0x4b535055;  // "KSPU"
constexpr uint32_t kVersion = 2;         // v2: payload checksum after magic

void PutU32(std::vector<uint8_t>& out, uint32_t v) {
  size_t at = out.size();
  out.resize(at + 4);
  ks::WriteLe32(out.data() + at, v);
}

void PutStr(std::vector<uint8_t>& out, const std::string& s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.insert(out.end(), s.begin(), s.end());
}

void PutBlob(std::vector<uint8_t>& out, const std::vector<uint8_t>& b) {
  PutU32(out, static_cast<uint32_t>(b.size()));
  out.insert(out.end(), b.begin(), b.end());
}

struct Cursor {
  const std::vector<uint8_t>& in;
  size_t pos = 0;

  ks::Result<uint32_t> U32() {
    if (pos + 4 > in.size()) {
      return ks::InvalidArgument("package: truncated");
    }
    uint32_t v = ks::ReadLe32(in.data() + pos);
    pos += 4;
    return v;
  }
  ks::Result<std::string> Str() {
    KS_ASSIGN_OR_RETURN(uint32_t n, U32());
    // `n > remaining` rather than `pos + n > size`: the length is read
    // from the (possibly corrupt) file and must not overflow the check.
    if (n > in.size() - pos) {
      return ks::InvalidArgument("package: truncated string");
    }
    std::string s(reinterpret_cast<const char*>(in.data() + pos), n);
    pos += n;
    return s;
  }
  ks::Result<std::vector<uint8_t>> Blob() {
    KS_ASSIGN_OR_RETURN(uint32_t n, U32());
    if (n > in.size() - pos) {
      return ks::InvalidArgument("package: truncated blob");
    }
    std::vector<uint8_t> b(in.begin() + static_cast<long>(pos),
                           in.begin() + static_cast<long>(pos + n));
    pos += n;
    return b;
  }
};

}  // namespace

std::string ScopedName(const std::string& unit, const std::string& symbol) {
  return unit + std::string(kScopeSeparator) + symbol;
}

ScopedSymbol SplitScopedName(const std::string& name) {
  size_t sep = name.find(kScopeSeparator);
  if (sep == std::string::npos) {
    return ScopedSymbol{"", name};
  }
  return ScopedSymbol{name.substr(0, sep),
                      name.substr(sep + kScopeSeparator.size())};
}

std::vector<uint8_t> UpdatePackage::Serialize() const {
  std::vector<uint8_t> out;
  PutU32(out, kMagic);
  PutU32(out, kVersion);
  PutU32(out, 0);  // checksum placeholder, filled below
  PutStr(out, id);
  PutU32(out, static_cast<uint32_t>(helper_objects.size()));
  for (const kelf::ObjectFile& obj : helper_objects) {
    PutBlob(out, obj.Serialize());
  }
  PutU32(out, static_cast<uint32_t>(primary_objects.size()));
  for (const kelf::ObjectFile& obj : primary_objects) {
    PutBlob(out, obj.Serialize());
  }
  PutU32(out, static_cast<uint32_t>(targets.size()));
  for (const Target& target : targets) {
    PutStr(out, target.unit);
    PutStr(out, target.symbol);
    PutStr(out, target.section);
  }
  // Integrity checksum over everything after the checksum field, so a
  // corrupted download is rejected before any of it is interpreted.
  ks::WriteLe32(out.data() + 8, ks::Fnv1a32(std::span(out).subspan(12)));
  return out;
}

ks::Result<UpdatePackage> UpdatePackage::Parse(
    const std::vector<uint8_t>& bytes) {
  KS_FAULT_POINT("ksplice.package.parse");
  Cursor cursor{bytes};
  KS_ASSIGN_OR_RETURN(uint32_t magic, cursor.U32());
  if (magic != kMagic) {
    return ks::InvalidArgument("package: bad magic");
  }
  KS_ASSIGN_OR_RETURN(uint32_t version, cursor.U32());
  if (version != kVersion) {
    return ks::InvalidArgument(
        ks::StrPrintf("package: unsupported version %u", version));
  }
  KS_ASSIGN_OR_RETURN(uint32_t checksum, cursor.U32());
  if (bytes.size() < 12 ||
      checksum != ks::Fnv1a32(std::span(bytes).subspan(12))) {
    return ks::InvalidArgument("package: checksum mismatch (corrupt file)");
  }
  UpdatePackage pkg;
  KS_ASSIGN_OR_RETURN(pkg.id, cursor.Str());
  KS_ASSIGN_OR_RETURN(uint32_t num_helpers, cursor.U32());
  for (uint32_t i = 0; i < num_helpers; ++i) {
    KS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, cursor.Blob());
    KS_ASSIGN_OR_RETURN(kelf::ObjectFile obj, kelf::ObjectFile::Parse(blob));
    pkg.helper_objects.push_back(std::move(obj));
  }
  KS_ASSIGN_OR_RETURN(uint32_t num_primaries, cursor.U32());
  for (uint32_t i = 0; i < num_primaries; ++i) {
    KS_ASSIGN_OR_RETURN(std::vector<uint8_t> blob, cursor.Blob());
    KS_ASSIGN_OR_RETURN(kelf::ObjectFile obj, kelf::ObjectFile::Parse(blob));
    pkg.primary_objects.push_back(std::move(obj));
  }
  KS_ASSIGN_OR_RETURN(uint32_t num_targets, cursor.U32());
  for (uint32_t i = 0; i < num_targets; ++i) {
    Target target;
    KS_ASSIGN_OR_RETURN(target.unit, cursor.Str());
    KS_ASSIGN_OR_RETURN(target.symbol, cursor.Str());
    KS_ASSIGN_OR_RETURN(target.section, cursor.Str());
    pkg.targets.push_back(std::move(target));
  }
  if (cursor.pos != bytes.size()) {
    return ks::InvalidArgument("package: trailing bytes");
  }
  return pkg;
}

}  // namespace ksplice
