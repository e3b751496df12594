#include "ksplice/create.h"

#include <map>
#include <set>

#include "base/hash.h"
#include "base/strings.h"
#include "base/trace.h"
#include "kanalyze/kanalyze.h"

namespace ksplice {

namespace {

// The size of a named section's payload, or 0 when absent.
uint32_t SectionSize(const kelf::ObjectFile& obj, const std::string& name) {
  std::optional<int> idx = obj.FindSection(name);
  if (!idx.has_value()) {
    return 0;
  }
  return static_cast<uint32_t>(
      obj.sections()[static_cast<size_t>(*idx)].bytes.size());
}

// Extracts the primary object for one rebuilt unit: the changed/new
// sections with relocations rewritten for in-kernel resolution.
ks::Result<std::optional<kelf::ObjectFile>> ExtractPrimary(
    const std::string& unit, const kelf::ObjectFile& pre_obj,
    const kelf::ObjectFile& post_obj,
    const std::vector<ChangedSection>& changed) {
  // Which post sections are included?
  std::set<std::string> included_names;
  for (const ChangedSection& change : changed) {
    if (change.unit != unit || change.change == SectionChange::kRemoved) {
      continue;
    }
    included_names.insert(change.name);
  }
  // Hook tables ride along only when this patch introduced or changed
  // them (they are in `changed` then). Hooks already present in the pre
  // source belong to a previously-applied update and must not re-run.
  if (included_names.empty()) {
    return std::optional<kelf::ObjectFile>();
  }
  // Companion exception/bug tables ride with their function even when
  // unchanged: the replacement code runs at module addresses, so the
  // kernel's own tables (which name the old text) cannot cover it. The
  // module loader registers these as howto regions at load time.
  // Build-timestamp sections are deliberately NOT extracted — replacement
  // code resolves kbuild.date/time through run-pre recovered values, i.e.
  // the running kernel's string (per the DATE/TIME howto semantics).
  std::set<std::string> companions;
  for (const std::string& name : included_names) {
    if (name.rfind(".text.", 0) == 0) {
      std::string fn = name.substr(6);
      companions.insert(".extable." + fn);
      companions.insert(".bug_table." + fn);
    }
  }
  for (const kelf::Section& section : post_obj.sections()) {
    if (companions.count(section.name) != 0) {
      included_names.insert(section.name);
    }
  }

  // Pre-existing exported globals must not be re-exported by the primary
  // module (the old definition stays live); demote them to local binding.
  std::set<std::string> pre_globals;
  for (const kelf::Symbol& sym : pre_obj.symbols()) {
    if (sym.defined() && sym.binding == kelf::SymbolBinding::kGlobal) {
      pre_globals.insert(sym.name);
    }
  }

  kelf::ObjectFile primary(unit);
  std::map<int, int> section_map;  // post section index -> primary index
  for (size_t si = 0; si < post_obj.sections().size(); ++si) {
    const kelf::Section& section = post_obj.sections()[si];
    if (included_names.count(section.name) == 0) {
      continue;
    }
    kelf::Section copy = section;
    copy.relocs.clear();  // rewritten below
    section_map[static_cast<int>(si)] = primary.AddSection(std::move(copy));
  }

  // Defined symbols of included sections carry over.
  std::map<int, int> symbol_map;  // post symbol index -> primary index
  for (size_t yi = 0; yi < post_obj.symbols().size(); ++yi) {
    const kelf::Symbol& sym = post_obj.symbols()[yi];
    if (!sym.defined() || section_map.count(sym.section) == 0) {
      continue;
    }
    kelf::Symbol copy = sym;
    copy.section = section_map[sym.section];
    if (pre_globals.count(copy.name) != 0) {
      copy.binding = kelf::SymbolBinding::kLocal;
    }
    symbol_map[static_cast<int>(yi)] = primary.AddSymbol(std::move(copy));
  }

  // Imports, deduplicated by final (possibly scoped) name.
  std::map<std::string, int> imports;
  auto import_symbol = [&](const std::string& name) {
    auto it = imports.find(name);
    if (it != imports.end()) {
      return it->second;
    }
    kelf::Symbol sym;
    sym.name = name;
    sym.binding = kelf::SymbolBinding::kGlobal;
    sym.section = kelf::kUndefSection;
    int idx = primary.AddSymbol(std::move(sym));
    imports.emplace(name, idx);
    return idx;
  };

  // Rewrite relocations.
  for (const auto& [post_idx, primary_idx] : section_map) {
    const kelf::Section& post_sec =
        post_obj.sections()[static_cast<size_t>(post_idx)];
    kelf::Section& primary_sec =
        primary.sections()[static_cast<size_t>(primary_idx)];
    for (const kelf::Relocation& rel : post_sec.relocs) {
      const kelf::Symbol& sym =
          post_obj.symbols()[static_cast<size_t>(rel.symbol)];
      kelf::Relocation copy = rel;
      if (sym.defined() && symbol_map.count(rel.symbol) != 0) {
        // Reference to another extracted section: package-internal.
        copy.symbol = symbol_map[rel.symbol];
      } else if (sym.defined()) {
        // Reference to a non-extracted part of this unit: the replacement
        // code must use the *running* kernel's copy. Exported globals
        // resolve through kallsyms; unit-local symbols need run-pre
        // recovered values, so scope them.
        if (sym.binding == kelf::SymbolBinding::kGlobal) {
          copy.symbol = import_symbol(sym.name);
        } else {
          copy.symbol = import_symbol(ScopedName(unit, sym.name));
        }
        if (sym.value != 0) {
          // A mid-section symbol would need value adjustment; kcc emits
          // exactly one symbol per section at offset zero.
          return ks::Unimplemented(ks::StrPrintf(
              "extraction: reference to mid-section symbol '%s'",
              sym.name.c_str()));
        }
      } else {
        // Already an import (cross-unit / kernel export / new package
        // global defined by another unit's primary object).
        copy.symbol = import_symbol(sym.name);
      }
      primary_sec.relocs.push_back(copy);
    }
  }

  KS_RETURN_IF_ERROR(primary.Validate());
  return std::optional<kelf::ObjectFile>(std::move(primary));
}

}  // namespace

ks::Result<CreateResult> CreateUpdate(const kdiff::SourceTree& pre_tree,
                                      std::string_view patch_text,
                                      const CreateOptions& options) {
  ks::TraceSpan span("create.update");
  uint64_t create_begin = ks::NowNs();
  ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(patch_text);
  if (!patch.ok()) {
    return ks::Status(patch.status()).WithContext("ksplice-create");
  }
  uint64_t prepost_begin = ks::NowNs();
  KS_ASSIGN_OR_RETURN(PrePostResult prepost,
                      RunPrePost(pre_tree, *patch, options.compile));
  uint64_t prepost_wall_ns = ks::NowNs() - prepost_begin;

  // Data-semantics gate (paper §2, Table 1).
  std::vector<ChangedSection> data_changes = prepost.DataSemanticChanges();
  if (!data_changes.empty()) {
    std::string names;
    for (const ChangedSection& change : data_changes) {
      if (!names.empty()) {
        names += ", ";
      }
      names += change.unit + ":" + change.name;
    }
    return ks::FailedPrecondition(ks::StrPrintf(
        "patch changes the semantics of persistent data (%s); revise the "
        "patch to initialize at apply time with ksplice_apply custom code",
        names.c_str()));
  }

  CreateResult result;
  result.prepost = prepost;
  result.package.id =
      !options.id.empty()
          ? options.id
          : ks::StrPrintf("ksplice-%08x",
                          ks::Fnv1a32(patch_text));

  bool any_code_change = false;
  for (size_t ui = 0; ui < prepost.rebuilt_units.size(); ++ui) {
    const std::string& unit = prepost.rebuilt_units[ui];
    KS_ASSIGN_OR_RETURN(
        std::optional<kelf::ObjectFile> primary,
        ExtractPrimary(unit, prepost.pre_objects[ui],
                       prepost.post_objects[ui], prepost.changed));
    if (!primary.has_value()) {
      continue;
    }
    any_code_change = true;
    result.package.primary_objects.push_back(std::move(*primary));
    result.package.helper_objects.push_back(prepost.pre_objects[ui]);
  }
  if (!any_code_change) {
    return ks::FailedPrecondition(
        "patch produces no object code differences — nothing to update");
  }

  for (const ChangedSection& change : prepost.changed) {
    if (change.kind != kelf::SectionKind::kText ||
        change.change != SectionChange::kModified) {
      continue;
    }
    if (change.symbol.empty()) {
      return ks::Internal(ks::StrPrintf(
          "changed text section %s has no defining symbol",
          change.name.c_str()));
    }
    result.package.targets.push_back(
        Target{change.unit, change.symbol, change.name});
  }
  if (result.package.targets.empty()) {
    // A package with no function replacements is still meaningful when it
    // carries custom-code hooks (a pure data fix applied under
    // stop_machine, §5.3). Anything else is an empty update.
    bool has_hooks = false;
    for (const kelf::ObjectFile& primary : result.package.primary_objects) {
      for (const kelf::Section& section : primary.sections()) {
        if (section.kind == kelf::SectionKind::kNote) {
          has_hooks = true;
        }
      }
    }
    if (!has_hooks) {
      return ks::FailedPrecondition(
          "patch adds code but modifies no existing function — nothing to "
          "splice");
    }
  }

  // ------------------------------------------------------------------
  // Fill the typed report (satellite view of everything above).
  CreateReport& report = result.report;
  report.id = result.package.id;
  report.units_rebuilt =
      static_cast<uint32_t>(result.prepost.rebuilt_units.size());
  report.units = result.prepost.unit_reports;
  for (const UnitReport& unit : report.units) {
    report.cache_hits += (unit.pre_cache_hit ? 1 : 0) +
                         (unit.post_cache_hit ? 1 : 0);
  }
  report.cache_misses =
      2ull * report.units_rebuilt - report.cache_hits;
  report.targets = static_cast<uint32_t>(result.package.targets.size());
  std::map<std::string, size_t> unit_index;
  for (size_t ui = 0; ui < result.prepost.rebuilt_units.size(); ++ui) {
    unit_index[result.prepost.rebuilt_units[ui]] = ui;
  }
  for (const ChangedSection& change : result.prepost.changed) {
    if (change.kind != kelf::SectionKind::kText || change.symbol.empty()) {
      continue;
    }
    ChangedFunction fn;
    fn.unit = change.unit;
    fn.symbol = change.symbol;
    fn.change = change.change == SectionChange::kModified ? "modified"
                : change.change == SectionChange::kAdded  ? "added"
                                                          : "removed";
    auto idx = unit_index.find(change.unit);
    if (idx != unit_index.end()) {
      fn.pre_size =
          SectionSize(result.prepost.pre_objects[idx->second], change.name);
      fn.post_size =
          SectionSize(result.prepost.post_objects[idx->second], change.name);
    }
    report.changed_functions.push_back(std::move(fn));
  }
  // Static patch-safety analysis (kanalyze). The lint runs on the exact
  // package a user would ship, so the report travels with the package via
  // the .report.json sidecar and `ksplice_tool lint` can reproduce it.
  if (options.lint != LintMode::kOff) {
    kanalyze::AnalyzeOptions lint_options;
    lint_options.cache = options.compile.cache;
    KS_ASSIGN_OR_RETURN(
        report.lint, kanalyze::AnalyzePackage(result.package, lint_options));
    if (options.lint == LintMode::kError && report.lint.errors() > 0) {
      std::string details;
      for (const LintFinding& finding : report.lint.findings) {
        if (finding.severity != LintSeverity::kError) {
          continue;
        }
        details += "\n  " + finding.ToString();
      }
      return ks::FailedPrecondition(ks::StrPrintf(
          "lint gate: package has %zu error finding(s) (--lint=error):%s",
          report.lint.errors(), details.c_str()));
    }
  }

  report.prepost_wall_ns = prepost_wall_ns;
  report.create_wall_ns = ks::NowNs() - create_begin;
  span.Annotate("id", report.id);
  span.Annotate("units", static_cast<uint64_t>(report.units_rebuilt));
  span.Annotate("targets", static_cast<uint64_t>(report.targets));
  return result;
}

}  // namespace ksplice
