// Pre-post differencing (paper §3): build the kernel source twice — before
// and after the patch — with -ffunction-sections/-fdata-sections, and
// compare object code (bytes *and* relocation metadata) section by section
// to find what the patch really changed.
//
// The comparison is deliberately at the object layer: a patch that only
// touches a header still changes the callers' object code (implicit
// conversions), a patch that changes an inline-eligible callee changes
// every section it was expanded into, and extraneous recompilation
// differences are harmless (§3.2 — replacing an identical-source function
// with a different binary rendering of it is safe).

#ifndef KSPLICE_KSPLICE_PREPOST_H_
#define KSPLICE_KSPLICE_PREPOST_H_

#include <optional>
#include <string>
#include <vector>

#include "base/status.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kelf/objfile.h"
#include "ksplice/report.h"

namespace ksplice {

enum class SectionChange {
  kModified,  // exists in both, object code differs
  kAdded,     // exists only in post (new function/data)
  kRemoved,   // exists only in pre (deleted function/data)
};

struct ChangedSection {
  std::string unit;
  std::string name;          // section name, e.g. ".text.do_coredump"
  kelf::SectionKind kind = kelf::SectionKind::kText;
  SectionChange change = SectionChange::kModified;
  std::string symbol;        // defining symbol, if the section has one
};

struct PrePostResult {
  // Units whose include closure intersects the patch (rebuilt on both
  // sides), in deterministic order.
  std::vector<std::string> rebuilt_units;
  // Pre/post objects for the rebuilt units, parallel to rebuilt_units.
  std::vector<kelf::ObjectFile> pre_objects;
  std::vector<kelf::ObjectFile> post_objects;
  std::vector<ChangedSection> changed;
  // Per-unit build/diff statistics, parallel to rebuilt_units (cache hits
  // are attributed only when options.cache is set).
  std::vector<UnitReport> unit_reports;

  // Modified (not added) non-text sections: the paper's "changes the
  // semantics of persistent data structures" signal — such a patch cannot
  // be applied without custom code (Table 1).
  std::vector<ChangedSection> DataSemanticChanges() const;
};

// Compares two sections structurally: payload bytes, bss size, kind,
// alignment, and relocations (offset, type, addend, and *referenced symbol
// name*). Symbol table indices are not compared — only identities.
bool SectionsEquivalent(const kelf::ObjectFile& pre_obj,
                        const kelf::Section& pre_sec,
                        const kelf::ObjectFile& post_obj,
                        const kelf::Section& post_sec);

// A unit the pre-post build rebuilds, with its include closure on each
// side where it exists (kcc::IncludeGraph::Closure). The closures key the
// object cache.
struct RebuildUnit {
  using Closure = ks::Result<std::vector<std::string>>;
  std::string unit;
  std::optional<Closure> pre, post;  // unset where the unit is absent
};

// The units a patch from `pre_tree` to `post_tree` affects, where the two
// trees differ only at `touched`: every compilation unit whose include
// closure on either side contains a touched path (a created or deleted
// unit contains itself) or fails, in path order. A failed closure sends
// the unit to the build, whose error names the problem. Closures are built
// only for the units returned.
std::vector<RebuildUnit> SelectRebuildSet(
    const kdiff::SourceTree& pre_tree, const kdiff::SourceTree& post_tree,
    const std::vector<std::string>& touched);

// Builds pre and post objects for every unit affected by `patch` and
// diffs them. `options.function_sections`/`data_sections` are forced on.
ks::Result<PrePostResult> RunPrePost(const kdiff::SourceTree& pre_tree,
                                     const kdiff::Patch& patch,
                                     kcc::CompileOptions options);

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_PREPOST_H_
