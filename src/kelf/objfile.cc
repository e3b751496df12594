#include "kelf/objfile.h"

#include "base/bytes.h"
#include "base/faultinject.h"
#include "base/strings.h"

namespace kelf {

namespace {

constexpr uint32_t kMagic = 0x4b454c46;  // "KELF"
// Version 2 added the per-section howto tag (one u8 after the section
// kind). Version-1 objects still parse; their howto is derived from the
// section-name convention so pre-howto objects mean the same thing.
constexpr uint32_t kVersion = 2;
constexpr uint32_t kMinVersion = 1;

}  // namespace

Howto HowtoForSectionName(std::string_view name) {
  auto has_prefix = [&](std::string_view prefix) {
    return name.size() >= prefix.size() &&
           name.substr(0, prefix.size()) == prefix;
  };
  if (has_prefix(".extable")) {
    return Howto::kExtable;
  }
  if (has_prefix(".bug_table")) {
    return Howto::kBug;
  }
  if (has_prefix(".rodata.date")) {
    return Howto::kDate;
  }
  if (has_prefix(".rodata.time")) {
    return Howto::kTime;
  }
  return Howto::kNone;
}

const char* HowtoName(Howto howto) {
  switch (howto) {
    case Howto::kNone:
      return "none";
    case Howto::kExtable:
      return "extable";
    case Howto::kBug:
      return "bug";
    case Howto::kDate:
      return "date";
    case Howto::kTime:
      return "time";
  }
  return "none";
}

int ObjectFile::AddSection(Section section) {
  sections_.push_back(std::move(section));
  return static_cast<int>(sections_.size()) - 1;
}

std::optional<int> ObjectFile::FindSection(std::string_view name) const {
  for (size_t i = 0; i < sections_.size(); ++i) {
    if (sections_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

const Section* ObjectFile::SectionByName(std::string_view name) const {
  std::optional<int> idx = FindSection(name);
  return idx.has_value() ? &sections_[static_cast<size_t>(*idx)] : nullptr;
}

int ObjectFile::AddSymbol(Symbol symbol) {
  symbols_.push_back(std::move(symbol));
  return static_cast<int>(symbols_.size()) - 1;
}

int ObjectFile::InternUndefinedSymbol(const std::string& name) {
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (!symbols_[i].defined() && symbols_[i].name == name) {
      return static_cast<int>(i);
    }
  }
  Symbol sym;
  sym.name = name;
  sym.binding = SymbolBinding::kGlobal;  // imports resolve globally
  sym.section = kUndefSection;
  return AddSymbol(std::move(sym));
}

ks::Result<int> ObjectFile::FindUniqueSymbol(std::string_view name) const {
  std::vector<int> hits = FindSymbols(name);
  if (hits.empty()) {
    return ks::NotFound(ks::StrPrintf("kelf: no symbol named '%.*s' in %s",
                                      static_cast<int>(name.size()),
                                      name.data(), source_name_.c_str()));
  }
  if (hits.size() > 1) {
    return ks::InvalidArgument(
        ks::StrPrintf("kelf: symbol '%.*s' is ambiguous in %s (%zu hits)",
                      static_cast<int>(name.size()), name.data(),
                      source_name_.c_str(), hits.size()));
  }
  return hits[0];
}

std::vector<int> ObjectFile::FindSymbols(std::string_view name) const {
  std::vector<int> hits;
  for (size_t i = 0; i < symbols_.size(); ++i) {
    if (symbols_[i].name == name) {
      hits.push_back(static_cast<int>(i));
    }
  }
  return hits;
}

std::optional<int> ObjectFile::DefiningSymbolForSection(int section) const {
  for (size_t i = 0; i < symbols_.size(); ++i) {
    const Symbol& sym = symbols_[i];
    if (sym.section == section && sym.value == 0 &&
        sym.kind != SymbolKind::kNone) {
      return static_cast<int>(i);
    }
  }
  return std::nullopt;
}

std::vector<uint8_t> ObjectFile::Serialize() const {
  std::vector<uint8_t> out;
  ks::ByteWriter w(out);
  w.U32(kMagic);
  w.U32(kVersion);
  w.Str(source_name_);

  w.U32(static_cast<uint32_t>(sections_.size()));
  for (const Section& sec : sections_) {
    w.Str(sec.name);
    w.U8(static_cast<uint8_t>(sec.kind));
    w.U8(static_cast<uint8_t>(sec.howto));
    w.U32(sec.align);
    w.Blob(sec.bytes);
    w.U32(sec.bss_size);
    w.U32(static_cast<uint32_t>(sec.relocs.size()));
    for (const Relocation& rel : sec.relocs) {
      w.U32(rel.offset);
      w.U8(static_cast<uint8_t>(rel.type));
      w.I32(rel.symbol);
      w.I32(rel.addend);
    }
  }

  w.U32(static_cast<uint32_t>(symbols_.size()));
  for (const Symbol& sym : symbols_) {
    w.Str(sym.name);
    w.U8(static_cast<uint8_t>(sym.binding));
    w.U8(static_cast<uint8_t>(sym.kind));
    w.I32(sym.section);
    w.U32(sym.value);
    w.U32(sym.size);
  }
  return out;
}

ks::Result<ObjectFile> ObjectFile::Parse(std::span<const uint8_t> bytes) {
  KS_FAULT_POINT("kelf.objfile.parse");
  ks::ByteReader r(bytes, "kelf");
  KS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kMagic) {
    return ks::InvalidArgument("kelf: bad magic");
  }
  KS_ASSIGN_OR_RETURN(uint32_t version, r.U32());
  if (version < kMinVersion || version > kVersion) {
    return ks::InvalidArgument(
        ks::StrPrintf("kelf: unsupported version %u", version));
  }
  ObjectFile obj;
  KS_ASSIGN_OR_RETURN(obj.source_name_, r.Str());

  KS_ASSIGN_OR_RETURN(uint32_t num_sections, r.U32());
  KS_RETURN_IF_ERROR(
      r.CheckCount(num_sections, version >= 2 ? 22 : 21, "section"));
  obj.sections_.reserve(num_sections);
  for (uint32_t i = 0; i < num_sections; ++i) {
    Section sec;
    KS_ASSIGN_OR_RETURN(sec.name, r.Str());
    KS_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(SectionKind::kNote)) {
      return ks::InvalidArgument("kelf: bad section kind");
    }
    sec.kind = static_cast<SectionKind>(kind);
    if (version >= 2) {
      KS_ASSIGN_OR_RETURN(uint8_t howto, r.U8());
      if (howto > static_cast<uint8_t>(Howto::kTime)) {
        return ks::InvalidArgument("kelf: bad section howto");
      }
      sec.howto = static_cast<Howto>(howto);
    } else {
      sec.howto = HowtoForSectionName(sec.name);
    }
    KS_ASSIGN_OR_RETURN(sec.align, r.U32());
    KS_ASSIGN_OR_RETURN(std::span<const uint8_t> payload, r.Blob());
    sec.bytes.assign(payload.begin(), payload.end());
    KS_ASSIGN_OR_RETURN(sec.bss_size, r.U32());
    KS_ASSIGN_OR_RETURN(uint32_t num_relocs, r.U32());
    KS_RETURN_IF_ERROR(r.CheckCount(num_relocs, 13, "relocation"));
    sec.relocs.reserve(num_relocs);
    for (uint32_t j = 0; j < num_relocs; ++j) {
      Relocation rel;
      KS_ASSIGN_OR_RETURN(rel.offset, r.U32());
      KS_ASSIGN_OR_RETURN(uint8_t type, r.U8());
      if (type > static_cast<uint8_t>(RelocType::kPcrel32)) {
        return ks::InvalidArgument("kelf: bad relocation type");
      }
      rel.type = static_cast<RelocType>(type);
      KS_ASSIGN_OR_RETURN(rel.symbol, r.I32());
      KS_ASSIGN_OR_RETURN(rel.addend, r.I32());
      sec.relocs.push_back(rel);
    }
    obj.sections_.push_back(std::move(sec));
  }

  KS_ASSIGN_OR_RETURN(uint32_t num_symbols, r.U32());
  KS_RETURN_IF_ERROR(r.CheckCount(num_symbols, 18, "symbol"));
  obj.symbols_.reserve(num_symbols);
  for (uint32_t i = 0; i < num_symbols; ++i) {
    Symbol sym;
    KS_ASSIGN_OR_RETURN(sym.name, r.Str());
    KS_ASSIGN_OR_RETURN(uint8_t binding, r.U8());
    if (binding > static_cast<uint8_t>(SymbolBinding::kGlobal)) {
      return ks::InvalidArgument("kelf: bad symbol binding");
    }
    sym.binding = static_cast<SymbolBinding>(binding);
    KS_ASSIGN_OR_RETURN(uint8_t kind, r.U8());
    if (kind > static_cast<uint8_t>(SymbolKind::kObject)) {
      return ks::InvalidArgument("kelf: bad symbol kind");
    }
    sym.kind = static_cast<SymbolKind>(kind);
    KS_ASSIGN_OR_RETURN(sym.section, r.I32());
    KS_ASSIGN_OR_RETURN(sym.value, r.U32());
    KS_ASSIGN_OR_RETURN(sym.size, r.U32());
    obj.symbols_.push_back(std::move(sym));
  }

  if (!r.AtEnd()) {
    return ks::InvalidArgument("kelf: trailing bytes after object");
  }
  KS_RETURN_IF_ERROR(obj.Validate());
  return obj;
}

ks::Status ObjectFile::Validate() const {
  int num_sections = static_cast<int>(sections_.size());
  for (size_t si = 0; si < sections_.size(); ++si) {
    const Section& sec = sections_[si];
    if (sec.kind == SectionKind::kBss && !sec.bytes.empty()) {
      return ks::InvalidArgument(ks::StrPrintf(
          "kelf: bss section '%s' carries bytes", sec.name.c_str()));
    }
    if (sec.kind != SectionKind::kBss && sec.bss_size != 0) {
      return ks::InvalidArgument(ks::StrPrintf(
          "kelf: non-bss section '%s' has bss_size", sec.name.c_str()));
    }
    if (sec.align == 0 || (sec.align & (sec.align - 1)) != 0) {
      return ks::InvalidArgument(ks::StrPrintf(
          "kelf: section '%s' alignment %u is not a power of two",
          sec.name.c_str(), sec.align));
    }
    if (sec.howto != Howto::kNone && sec.kind != SectionKind::kData) {
      return ks::InvalidArgument(ks::StrPrintf(
          "kelf: howto section '%s' must be data (kind %u)",
          sec.name.c_str(), static_cast<unsigned>(sec.kind)));
    }
    if (sec.howto == Howto::kExtable || sec.howto == Howto::kBug) {
      if (sec.size() % kHowtoEntrySize != 0) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: %s section '%s' size %u is not a multiple of %u",
            HowtoName(sec.howto), sec.name.c_str(), sec.size(),
            kHowtoEntrySize));
      }
      for (const Relocation& rel : sec.relocs) {
        if (rel.type != RelocType::kAbs32 || rel.offset % 4 != 0) {
          return ks::InvalidArgument(ks::StrPrintf(
              "kelf: %s section '%s' has a non-abs32 or misaligned "
              "relocation at %u",
              HowtoName(sec.howto), sec.name.c_str(), rel.offset));
        }
      }
    }
    for (const Relocation& rel : sec.relocs) {
      if (rel.symbol < 0 || rel.symbol >= static_cast<int>(symbols_.size())) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: relocation in '%s' names symbol %d out of range",
            sec.name.c_str(), rel.symbol));
      }
      // Written overflow-safe: `rel.offset + 4` would wrap to a small
      // value for offsets near UINT32_MAX and pass the check.
      if (sec.size() < 4 || rel.offset > sec.size() - 4) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: relocation at %u overruns section '%s' (size %u)",
            rel.offset, sec.name.c_str(), sec.size()));
      }
      if (sec.kind == SectionKind::kBss) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: bss section '%s' has relocations", sec.name.c_str()));
      }
    }
  }
  for (const Symbol& sym : symbols_) {
    if (sym.defined()) {
      if (sym.section < 0 || sym.section >= num_sections) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: symbol '%s' names section %d out of range",
            sym.name.c_str(), sym.section));
      }
      const Section& sec = sections_[static_cast<size_t>(sym.section)];
      if (sym.value > sec.size()) {
        return ks::InvalidArgument(ks::StrPrintf(
            "kelf: symbol '%s' offset %u beyond section '%s' (size %u)",
            sym.name.c_str(), sym.value, sec.name.c_str(), sec.size()));
      }
    }
    if (sym.name.empty()) {
      return ks::InvalidArgument("kelf: symbol with empty name");
    }
  }
  return ks::OkStatus();
}

}  // namespace kelf
