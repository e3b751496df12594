#include "ksplice/package.h"

#include "base/bytes.h"
#include "base/faultinject.h"
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

}  // namespace

std::vector<uint8_t> UpdatePackage::Serialize() const {
  std::vector<uint8_t> out;
  ks::ByteWriter w(out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.U32(0);  // checksum placeholder, filled below
  w.Str(id);
  for (const auto* objects : {&helper_objects, &primary_objects}) {
    w.U32(static_cast<uint32_t>(objects->size()));
    for (const kelf::ObjectFile& obj : *objects) {
      w.Blob(obj.Serialize());
    }
  }
  w.U32(static_cast<uint32_t>(targets.size()));
  for (const Target& target : targets) {
    w.Str(target.unit);
    w.Str(target.symbol);
    w.Str(target.section);
  }
  // Integrity checksum over everything after the checksum field, so a
  // corrupted download is rejected before any of it is interpreted.
  ks::WriteLe32(out.data() + 8, ks::Fnv1a32(std::span(out).subspan(12)));
  return out;
}

ks::Result<UpdatePackage> UpdatePackage::Parse(
    const std::vector<uint8_t>& bytes) {
  KS_FAULT_POINT("ksplice.package.parse");
  ks::ByteReader r(bytes, "package");
  KS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) {
    return ks::InvalidArgument("package: bad magic");
  }
  KS_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version != kVersion) {
    return ks::InvalidArgument(
        ks::StrPrintf("package: unsupported version %u", version));
  }
  KS_ASSIGN_OR_RETURN(uint32_t checksum, r.U32());
  if (checksum != ks::Fnv1a32(std::span(bytes).subspan(12))) {
    return ks::InvalidArgument("package: checksum mismatch (corrupt file)");
  }
  UpdatePackage pkg;
  KS_ASSIGN_OR_RETURN(pkg.id, r.Str());
  for (auto* objects : {&pkg.helper_objects, &pkg.primary_objects}) {
    KS_ASSIGN_OR_RETURN(uint32_t num_objects, r.U32());
    for (uint32_t i = 0; i < num_objects; ++i) {
      KS_ASSIGN_OR_RETURN(std::span<const uint8_t> blob, r.Blob());
      KS_ASSIGN_OR_RETURN(kelf::ObjectFile obj, kelf::ObjectFile::Parse(blob));
      objects->push_back(std::move(obj));
    }
  }
  KS_ASSIGN_OR_RETURN(uint32_t num_targets, r.U32());
  for (uint32_t i = 0; i < num_targets; ++i) {
    Target target;
    KS_ASSIGN_OR_RETURN(target.unit, r.Str());
    KS_ASSIGN_OR_RETURN(target.symbol, r.Str());
    KS_ASSIGN_OR_RETURN(target.section, r.Str());
    pkg.targets.push_back(std::move(target));
  }
  if (!r.AtEnd()) {
    return ks::InvalidArgument("package: trailing bytes");
  }
  return pkg;
}

}  // namespace ksplice
