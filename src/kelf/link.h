// The kelf static linker: lays out object sections at image addresses and
// resolves relocations. Used both to produce the boot kernel image and, by
// the simulated kernel's module loader, to link modules against the live
// kernel's exported symbols.

#ifndef KSPLICE_KELF_LINK_H_
#define KSPLICE_KELF_LINK_H_

#include <functional>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"

namespace kelf {

// One kallsyms-like entry of the linked image. Local symbols from different
// units may share names; the table preserves all of them.
struct LinkedSymbol {
  std::string name;
  uint32_t address = 0;
  uint32_t size = 0;
  SymbolBinding binding = SymbolBinding::kLocal;
  SymbolKind kind = SymbolKind::kNone;
  std::string unit;  // source_name of the defining object file
};

// Placement of one input section in the linked image.
struct PlacedSection {
  std::string unit;
  std::string name;
  SectionKind kind = SectionKind::kText;
  Howto howto = Howto::kNone;
  uint32_t address = 0;
  uint32_t size = 0;
};

// Result of a link: a flat byte image covering [base, base + bytes.size()),
// with bss materialized as zeroes, plus the symbol table and placements.
struct LinkedImage {
  uint32_t base = 0;
  std::vector<uint8_t> bytes;
  std::vector<LinkedSymbol> symbols;
  std::vector<PlacedSection> placements;

  uint32_t end() const {
    return base + static_cast<uint32_t>(bytes.size());
  }
};

// Resolves imports that no linked object defines (e.g. kernel exports when
// linking a module). Returns the symbol's address, or nullopt if unknown.
using ExternalResolver =
    std::function<std::optional<uint32_t>(const std::string&)>;

// Lays out `objects` from `base` without linking them: text, then
// initialized data and notes, then bss, each section at its alignment.
// Calls `place` (when set) with each section's (object, section) index and
// address in that order, and returns the image end. No fault site.
uint32_t LayOut(
    std::span<const ObjectFile> objects, uint32_t base,
    const std::function<void(size_t, size_t, uint32_t)>& place = nullptr);

// Lays out `objects` at `base` (LayOut), resolves every relocation, and
// returns the image. The objects are borrowed, not copied.
// Errors: malformed objects, duplicate global definitions, unresolvable
// imports.
ks::Result<LinkedImage> Link(std::span<const ObjectFile> objects,
                             uint32_t base,
                             const ExternalResolver& resolver = nullptr);

}  // namespace kelf

#endif  // KSPLICE_KELF_LINK_H_
