#include "kelf/link.h"

#include "base/faultinject.h"

#include <map>

#include "base/endian.h"
#include "base/strings.h"

namespace kelf {

namespace {

uint32_t AlignUp(uint32_t value, uint32_t align) {
  return (value + align - 1) & ~(align - 1);
}

// Layout pass ordering: code first, then initialized data and note metadata,
// then zero-initialized data. Mirrors a conventional kernel image layout.
int LayoutPass(SectionKind kind) {
  switch (kind) {
    case SectionKind::kText:
      return 0;
    case SectionKind::kData:
    case SectionKind::kNote:
      return 1;
    case SectionKind::kBss:
      return 2;
  }
  return 3;
}

}  // namespace

uint32_t LayOut(std::span<const ObjectFile> objects, uint32_t base,
                const std::function<void(size_t, size_t, uint32_t)>& place) {
  uint32_t cursor = base;
  for (int pass = 0; pass <= 2; ++pass) {
    for (size_t oi = 0; oi < objects.size(); ++oi) {
      const std::vector<Section>& sections = objects[oi].sections();
      for (size_t si = 0; si < sections.size(); ++si) {
        if (LayoutPass(sections[si].kind) != pass) {
          continue;
        }
        cursor = AlignUp(cursor, sections[si].align);
        if (place) {
          place(oi, si, cursor);
        }
        cursor += sections[si].size();
      }
    }
  }
  return cursor;
}

ks::Result<LinkedImage> Link(std::span<const ObjectFile> objects,
                             uint32_t base, const ExternalResolver& resolver) {
  KS_FAULT_POINT("kelf.link");
  for (const ObjectFile& obj : objects) {
    ks::Status st = obj.Validate();
    if (!st.ok()) {
      return st.WithContext(
          ks::StrPrintf("linking %s", obj.source_name().c_str()));
    }
  }

  // Section addresses, indexed [object][section].
  std::vector<std::vector<uint32_t>> section_addr(objects.size());
  for (size_t oi = 0; oi < objects.size(); ++oi) {
    section_addr[oi].assign(objects[oi].sections().size(), 0);
  }

  LinkedImage image;
  image.base = base;
  const uint32_t end =
      LayOut(objects, base, [&](size_t oi, size_t si, uint32_t address) {
        const ObjectFile& obj = objects[oi];
        const Section& sec = obj.sections()[si];
        section_addr[oi][si] = address;
        image.placements.push_back(PlacedSection{
            .unit = obj.source_name(),
            .name = sec.name,
            .kind = sec.kind,
            .howto = sec.howto,
            .address = address,
            .size = sec.size(),
        });
      });
  image.bytes.assign(end - base, 0);

  // Copy section payloads (bss stays zero).
  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjectFile& obj = objects[oi];
    for (size_t si = 0; si < obj.sections().size(); ++si) {
      const Section& sec = obj.sections()[si];
      std::copy(sec.bytes.begin(), sec.bytes.end(),
                image.bytes.begin() + (section_addr[oi][si] - base));
    }
  }

  // Global symbol table: name -> address. Duplicate globals are an error.
  std::map<std::string, uint32_t> globals;
  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjectFile& obj = objects[oi];
    for (const Symbol& sym : obj.symbols()) {
      if (!sym.defined() || sym.binding != SymbolBinding::kGlobal) {
        continue;
      }
      uint32_t addr =
          section_addr[oi][static_cast<size_t>(sym.section)] + sym.value;
      auto [it, inserted] = globals.emplace(sym.name, addr);
      if (!inserted) {
        return ks::AlreadyExists(ks::StrPrintf(
            "link: multiple definitions of global '%s' (second in %s)",
            sym.name.c_str(), obj.source_name().c_str()));
      }
    }
  }

  // Emit the kallsyms-like table: every defined symbol, locals included.
  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjectFile& obj = objects[oi];
    for (const Symbol& sym : obj.symbols()) {
      if (!sym.defined()) {
        continue;
      }
      image.symbols.push_back(LinkedSymbol{
          .name = sym.name,
          .address =
              section_addr[oi][static_cast<size_t>(sym.section)] + sym.value,
          .size = sym.size,
          .binding = sym.binding,
          .kind = sym.kind,
          .unit = obj.source_name(),
      });
    }
  }

  // Resolve relocations.
  for (size_t oi = 0; oi < objects.size(); ++oi) {
    const ObjectFile& obj = objects[oi];
    for (size_t si = 0; si < obj.sections().size(); ++si) {
      const Section& sec = obj.sections()[si];
      uint32_t sec_addr = section_addr[oi][si];
      for (const Relocation& rel : sec.relocs) {
        const Symbol& sym = obj.symbols()[static_cast<size_t>(rel.symbol)];
        uint32_t s_value = 0;
        if (sym.defined()) {
          s_value =
              section_addr[oi][static_cast<size_t>(sym.section)] + sym.value;
        } else {
          auto it = globals.find(sym.name);
          if (it != globals.end()) {
            s_value = it->second;
          } else {
            std::optional<uint32_t> ext;
            if (resolver) {
              ext = resolver(sym.name);
            }
            if (!ext.has_value()) {
              return ks::NotFound(ks::StrPrintf(
                  "link: undefined symbol '%s' referenced from %s",
                  sym.name.c_str(), obj.source_name().c_str()));
            }
            s_value = *ext;
          }
        }
        uint32_t p = sec_addr + rel.offset;
        ks::WriteLe32(image.bytes.data() + (p - base),
                      RelocWord(rel.type, s_value, rel.addend, p));
      }
    }
  }

  return image;
}

}  // namespace kelf
