// kelf: the object-file format of the Ksplice reproduction.
//
// kelf models the slice of ELF semantics that Ksplice's techniques operate
// on: named sections carrying bytes, a symbol table with local and global
// bindings, and relocations with explicit addends (RELA-style). The
// compiler (kcc) and assembler (kvx) emit kelf objects; the linker in this
// directory lays them out and resolves relocations; the Ksplice core reads
// pre/post kelf objects and the run image.
//
// Faithfulness notes (vs. ELF as used in the paper):
//  - Section-per-function and section-per-datum naming follows gcc's
//    -ffunction-sections convention: ".text.<func>", ".data.<var>",
//    ".bss.<var>". A monolithic build emits a single ".text"/".data"/".bss".
//  - Local symbols may share names across compilation units (the paper's
//    "notesize"/"debug" ambiguity); nothing in kelf deduplicates them.
//  - Relocation value algebra matches ELF: ABS32 stores S+A, PCREL32 stores
//    S+A-P, where P is the address of the to-be-relocated word.

#ifndef KSPLICE_KELF_OBJFILE_H_
#define KSPLICE_KELF_OBJFILE_H_

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"

namespace kelf {

inline constexpr int kUndefSection = -1;

enum class SymbolBinding : uint8_t { kLocal = 0, kGlobal = 1 };
enum class SymbolKind : uint8_t { kNone = 0, kFunction = 1, kObject = 2 };

// One entry in an object file's symbol table. Defined symbols name an
// (section, offset) pair; undefined symbols (section == kUndefSection) are
// imports to be resolved at link time.
struct Symbol {
  std::string name;
  SymbolBinding binding = SymbolBinding::kLocal;
  SymbolKind kind = SymbolKind::kNone;
  int section = kUndefSection;  // index into ObjectFile::sections
  uint32_t value = 0;           // offset within the section
  uint32_t size = 0;            // bytes covered (0 if unknown)

  bool defined() const { return section != kUndefSection; }
};

enum class RelocType : uint8_t {
  kAbs32 = 0,    // word = S + A
  kPcrel32 = 1,  // word = S + A - P
};

// The relocation equation, written once. RelocWord is the 32-bit word a
// relocation stores at address P for symbol value S and addend A (the
// linker's direction); RelocSymbol inverts it, recovering S from a word
// already relocated in memory (run-pre's direction). Arithmetic wraps
// modulo 2^32, so a PC-relative word with P > S round-trips too.
inline uint32_t RelocWord(RelocType type, uint32_t s, int32_t a, uint32_t p) {
  return s + static_cast<uint32_t>(a) - (type == RelocType::kPcrel32 ? p : 0);
}
inline uint32_t RelocSymbol(RelocType type, uint32_t word, int32_t a,
                            uint32_t p) {
  return word - static_cast<uint32_t>(a) +
         (type == RelocType::kPcrel32 ? p : 0);
}

// RELA-style relocation: patches the 32-bit word at `offset` within the
// owning section using symbol `symbol` (index into the symbol table) and
// explicit addend.
struct Relocation {
  uint32_t offset = 0;
  RelocType type = RelocType::kAbs32;
  int symbol = -1;
  int32_t addend = 0;
};

enum class SectionKind : uint8_t {
  kText = 0,  // executable code
  kData = 1,  // initialized data
  kBss = 2,   // zero-initialized data (bytes empty; size in bss_size)
  kNote = 3,  // metadata consumed by tooling (.ksplice.* hook tables)
};

// Howto tag: how a section's contents must be compared and patched. Text
// and ordinary data stay kNone (byte-wise semantics). The special kinds
// mirror Ksplice's KSPLICE_HOWTO_{EXTABLE,BUG,DATE,TIME}: table sections
// are sequences of 8-byte entries matched structurally under relocation,
// and build-timestamp strings legitimately differ between builds, so
// run-pre matching ignores their content entirely.
enum class Howto : uint8_t {
  kNone = 0,     // ordinary bytes: compare literally
  kExtable = 1,  // exception table: 8-byte (insn addr, fixup addr) entries
  kBug = 2,      // bug table: 8-byte (trap addr, source line) entries
  kDate = 3,     // __DATE__ string: content-ignoring match
  kTime = 4,     // __TIME__ string: content-ignoring match
};

// Maps a section name to its howto tag by prefix convention:
// ".extable*" -> kExtable, ".bug_table*" -> kBug, ".rodata.date*" ->
// kDate, ".rodata.time*" -> kTime, anything else -> kNone.
Howto HowtoForSectionName(std::string_view name);

// Human-readable tag name ("extable", "bug", "date", "time", "none").
const char* HowtoName(Howto howto);

// Size in bytes of one table entry for kExtable/kBug sections.
inline constexpr uint32_t kHowtoEntrySize = 8;

struct Section {
  std::string name;
  SectionKind kind = SectionKind::kText;
  Howto howto = Howto::kNone;
  uint32_t align = 1;
  std::vector<uint8_t> bytes;  // empty for kBss
  uint32_t bss_size = 0;       // only meaningful for kBss
  std::vector<Relocation> relocs;

  uint32_t size() const {
    return kind == SectionKind::kBss ? bss_size
                                     : static_cast<uint32_t>(bytes.size());
  }
};

// A relocatable object file: the unit of pre/post comparison.
class ObjectFile {
 public:
  ObjectFile() = default;
  explicit ObjectFile(std::string source_name)
      : source_name_(std::move(source_name)) {}

  const std::string& source_name() const { return source_name_; }
  void set_source_name(std::string name) { source_name_ = std::move(name); }

  // Sections -----------------------------------------------------------
  int AddSection(Section section);
  const std::vector<Section>& sections() const { return sections_; }
  std::vector<Section>& sections() { return sections_; }

  // Returns the index of the section named `name`, or nullopt.
  std::optional<int> FindSection(std::string_view name) const;
  const Section* SectionByName(std::string_view name) const;

  // Symbols ------------------------------------------------------------
  // Appends a symbol and returns its index. Duplicate names are permitted
  // (local symbols legitimately collide; duplicate globals are a link-time
  // error, not an object-construction error).
  int AddSymbol(Symbol symbol);
  const std::vector<Symbol>& symbols() const { return symbols_; }
  std::vector<Symbol>& symbols() { return symbols_; }

  // Returns the index of an existing undefined-import symbol named `name`
  // with matching binding, or creates one. Used by code generators.
  int InternUndefinedSymbol(const std::string& name);

  // Finds the unique symbol with `name`; error if absent or ambiguous.
  ks::Result<int> FindUniqueSymbol(std::string_view name) const;

  // All symbol indices with the given name (any binding).
  std::vector<int> FindSymbols(std::string_view name) const;

  // Returns the index of the symbol that labels offset 0 of `section` with
  // kind kFunction/kObject, if any. Used to name extracted sections.
  std::optional<int> DefiningSymbolForSection(int section) const;

  // Serialization ------------------------------------------------------
  std::vector<uint8_t> Serialize() const;
  // Copies what it keeps, so `bytes` may be a view into a larger buffer.
  static ks::Result<ObjectFile> Parse(std::span<const uint8_t> bytes);

  // Structural validation: relocation symbol/offset ranges, symbol section
  // ranges, bss invariants. Called by Parse; available to generators.
  ks::Status Validate() const;

 private:
  std::string source_name_;
  std::vector<Section> sections_;
  std::vector<Symbol> symbols_;
};

}  // namespace kelf

#endif  // KSPLICE_KELF_OBJFILE_H_
