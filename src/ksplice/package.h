// The Ksplice update package: the artifact ksplice-create writes and
// ksplice-apply consumes (the paper's ksplice-xxxxxx.tar.gz, §5).
//
// A package carries:
//  - helper objects: the complete pre-build object of every rebuilt
//    compilation unit. The helper "must contain the entire optimization
//    unit corresponding to each patched function" (§5.1) because run-pre
//    matching recovers local symbol values from *unchanged* neighbours.
//  - primary objects (one per rebuilt unit): the extracted post sections
//    (changed functions, new data, .ksplice.* hook tables) with their
//    relocations intact. Imports that must resolve through run-pre
//    recovered values are scoped "unit::name"; plain names resolve through
//    exported kernel symbols or package-internal new globals.
//  - targets: the functions to splice (unit, symbol), i.e. changed
//    sections that exist in the running kernel.

#ifndef KSPLICE_KSPLICE_PACKAGE_H_
#define KSPLICE_KSPLICE_PACKAGE_H_

#include <array>
#include <string>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"

namespace ksplice {

// Separator between the unit scope and symbol name in scoped imports.
inline constexpr std::string_view kScopeSeparator = "::";

// Builds/splits scoped import names. Inline so kanalyze, which uses this
// header without linking ks_ksplice, shares them.
inline std::string ScopedName(const std::string& unit,
                              const std::string& symbol) {
  return unit + std::string(kScopeSeparator) + symbol;
}

struct ScopedSymbol {
  std::string unit;    // empty => unscoped
  std::string symbol;
};

// Splits at the first separator; an unscoped `name` gives an empty unit.
inline ScopedSymbol SplitScopedName(const std::string& name) {
  size_t sep = name.find(kScopeSeparator);
  if (sep == std::string::npos) {
    return ScopedSymbol{"", name};
  }
  return ScopedSymbol{name.substr(0, sep),
                      name.substr(sep + kScopeSeparator.size())};
}

struct Target {
  std::string unit;
  std::string symbol;
  std::string section;  // post section name, e.g. ".text.foo"
};

// The six ksplice hook stages (§5.3) as one struct. A package's primary
// module declares hooks in note sections (".ksplice.pre_apply" etc.); the
// apply engine reads them into a HookSet and runs each stage at the right
// point of the transaction. Layout mirrors the lifecycle: the *_apply
// stages run around the splice, the *_reverse stages around the undo.
struct HookSet {
  std::vector<uint32_t> pre_apply;    // machine running, before rendezvous
  std::vector<uint32_t> apply;        // inside stop_machine, before splice
  std::vector<uint32_t> post_apply;   // machine running, after splice
  std::vector<uint32_t> pre_reverse;  // machine running, before undo
  std::vector<uint32_t> reverse;      // inside stop_machine, before restore
  std::vector<uint32_t> post_reverse; // machine running, after restore
};

// One hook stage's name and the note section it is declared in, bound to
// the HookSet member that stores it. HookStageBindings() is the single
// source of truth for the stage/section naming shared by the package
// layer and the apply engine.
struct HookStageBinding {
  const char* stage;    // "pre_apply"
  const char* section;  // ".ksplice.pre_apply"
  std::vector<uint32_t> HookSet::*table;
};
const std::array<HookStageBinding, 6>& HookStageBindings();

struct UpdatePackage {
  std::string id;  // e.g. "ksplice-8c4o6u"
  std::vector<kelf::ObjectFile> helper_objects;
  std::vector<kelf::ObjectFile> primary_objects;
  std::vector<Target> targets;

  std::vector<uint8_t> Serialize() const;
  static ks::Result<UpdatePackage> Parse(const std::vector<uint8_t>& bytes);
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_PACKAGE_H_
