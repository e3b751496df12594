// ABI/layout differ (kanalyze pass 3): compares each primary object's
// data/bss sections against the same-named sections of its unit's helper
// (pre) object. With -fdata-sections every variable is its own
// ".data.<var>"/".bss.<var>" section, so a section-level size or content
// difference is the object-code shadow of a struct-layout or initializer
// semantics change — exactly what the paper's Table 1 says cannot be hot-
// applied without custom code. A package that carries ksplice hook tables
// (.ksplice.apply and friends) has declared that custom code, so the same
// evidence downgrades from an error to a §3.4 "human must review" note.

#include <cstdint>
#include <string>

#include "base/strings.h"
#include "kanalyze/kanalyze.h"
#include "kanalyze/rules.h"

namespace kanalyze {

namespace {

bool IsDataKind(kelf::SectionKind kind) {
  return kind == kelf::SectionKind::kData || kind == kelf::SectionKind::kBss;
}

}  // namespace

const kelf::ObjectFile* HelperForUnit(const ksplice::UpdatePackage& package,
                                      const std::string& unit) {
  for (const kelf::ObjectFile& helper : package.helper_objects) {
    if (helper.source_name() == unit) {
      return &helper;
    }
  }
  return nullptr;
}

// Any .ksplice.* hook table anywhere in the package counts: hooks are the
// package-level declaration that apply-time custom code handles state.
// Shared with the semantic-diff pass (KSA502/KSA504 downgrade/gate on it).
bool PackageHasHooks(const ksplice::UpdatePackage& package) {
  for (const kelf::ObjectFile& primary : package.primary_objects) {
    for (const kelf::Section& section : primary.sections()) {
      if (section.kind == kelf::SectionKind::kNote &&
          ks::StartsWith(section.name, ".ksplice.")) {
        return true;
      }
    }
  }
  return false;
}

void RunAbiPass(const ksplice::UpdatePackage& package,
                ksplice::LintReport* report) {
  const bool hooks = PackageHasHooks(package);
  const char* no_hooks_hint =
      "a data semantics change needs apply-time custom code: revise the "
      "patch to keep the layout and initialize state in a ksplice_apply "
      "hook (shadow data structures, §5.3)";
  const char* hooks_hint =
      "hooks claim to handle this change; a programmer must still confirm "
      "they initialize every live instance (§3.4)";

  for (const kelf::ObjectFile& primary : package.primary_objects) {
    const kelf::ObjectFile* helper =
        HelperForUnit(package, primary.source_name());
    if (helper == nullptr) {
      continue;  // callgraph pass reports missing helpers via targets
    }
    for (const kelf::Section& post : primary.sections()) {
      // Howto-tagged sections are code metadata (exception/bug tables,
      // build timestamps), not persistent state; the howto pass (KSA6xx)
      // owns their invariants.
      if (!IsDataKind(post.kind) || post.howto != kelf::Howto::kNone) {
        continue;
      }
      const kelf::Section* pre = helper->SectionByName(post.name);
      if (pre == nullptr || !IsDataKind(pre->kind)) {
        continue;  // new variable: new state is always safe to add
      }
      ++report->data_sections_compared;

      if (pre->size() != post.size() || pre->align != post.align) {
        AddFinding(report, hooks ? RuleId("KSA303") : RuleId("KSA301"),
                   primary.source_name(), post.name,
                   ks::StrPrintf("persistent data layout changes: %u -> %u "
                                 "bytes, align %u -> %u%s",
                                 pre->size(), post.size(), pre->align,
                                 post.align,
                                 hooks ? " (gated by ksplice hooks)" : ""),
                   hooks ? hooks_hint : no_hooks_hint);
        continue;
      }
      bool bytes_differ =
          pre->kind != kelf::SectionKind::kBss && pre->bytes != post.bytes;
      if (bytes_differ) {
        AddFinding(report, hooks ? RuleId("KSA303") : RuleId("KSA302"),
                   primary.source_name(), post.name,
                   ks::StrPrintf("persistent data contents change (%u "
                                 "bytes)%s",
                                 post.size(),
                                 hooks ? " (gated by ksplice hooks)" : ""),
                   hooks ? hooks_hint : no_hooks_hint);
      }
    }
  }
}

}  // namespace kanalyze
