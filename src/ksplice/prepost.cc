#include "ksplice/prepost.h"

#include <algorithm>
#include <optional>
#include <set>
#include <string_view>

#include "base/metrics.h"
#include "base/strings.h"
#include "base/threadpool.h"
#include "base/trace.h"
#include "kcc/objcache.h"
#include "kcc/preprocess.h"

namespace ksplice {

namespace {

// The defining symbol name for a section, if any.
std::string DefiningSymbol(const kelf::ObjectFile& obj, int section_idx) {
  std::optional<int> sym = obj.DefiningSymbolForSection(section_idx);
  if (!sym.has_value()) {
    return "";
  }
  return obj.symbols()[static_cast<size_t>(*sym)].name;
}

uint32_t TextBytes(const kelf::ObjectFile& obj) {
  uint32_t bytes = 0;
  for (const kelf::Section& section : obj.sections()) {
    if (section.kind == kelf::SectionKind::kText) {
      bytes += static_cast<uint32_t>(section.bytes.size());
    }
  }
  return bytes;
}

}  // namespace

std::vector<ChangedSection> PrePostResult::DataSemanticChanges() const {
  std::vector<ChangedSection> out;
  for (const ChangedSection& section : changed) {
    if (section.kind != kelf::SectionKind::kText &&
        section.kind != kelf::SectionKind::kNote &&
        // Howto-tagged sections (exception/bug tables, build timestamps)
        // are code metadata, not persistent state: a patch that moves a
        // fixup target or rebuilds a timestamp is routine, and the tables
        // ship with the replacement code rather than mutating live data.
        kelf::HowtoForSectionName(section.name) == kelf::Howto::kNone &&
        section.change == SectionChange::kModified) {
      out.push_back(section);
    }
  }
  return out;
}

bool SectionsEquivalent(const kelf::ObjectFile& pre_obj,
                        const kelf::Section& pre_sec,
                        const kelf::ObjectFile& post_obj,
                        const kelf::Section& post_sec) {
  if (pre_sec.kind != post_sec.kind || pre_sec.align != post_sec.align ||
      pre_sec.bytes != post_sec.bytes ||
      pre_sec.bss_size != post_sec.bss_size ||
      pre_sec.relocs.size() != post_sec.relocs.size()) {
    return false;
  }
  for (size_t i = 0; i < pre_sec.relocs.size(); ++i) {
    const kelf::Relocation& a = pre_sec.relocs[i];
    const kelf::Relocation& b = post_sec.relocs[i];
    if (a.offset != b.offset || a.type != b.type || a.addend != b.addend) {
      return false;
    }
    const kelf::Symbol& sa = pre_obj.symbols()[static_cast<size_t>(a.symbol)];
    const kelf::Symbol& sb =
        post_obj.symbols()[static_cast<size_t>(b.symbol)];
    if (sa.name != sb.name) {
      return false;
    }
  }
  return true;
}

std::vector<RebuildUnit> SelectRebuildSet(
    const kdiff::SourceTree& pre_tree, const kdiff::SourceTree& post_tree,
    const std::vector<std::string>& touched) {
  // One include graph serves both sides. The pre side decides: a closure
  // that reaches no touched path is the same after the patch, and a unit
  // only the post tree has is itself touched.
  kcc::IncludeGraph graph(pre_tree);
  std::vector<std::string_view> units = graph.UnitsReaching(touched);
  for (const std::string& path : touched) {
    if (kcc::IsCompilationUnit(path) &&
        (pre_tree.Exists(path) || post_tree.Exists(path))) {
      units.push_back(path);
    }
  }
  std::sort(units.begin(), units.end());
  units.erase(std::unique(units.begin(), units.end()), units.end());
  graph.AddPost(post_tree, touched);

  std::vector<RebuildUnit> rebuild(units.size());
  for (size_t i = 0; i < units.size(); ++i) {
    RebuildUnit& out = rebuild[i];
    out.unit = std::string(units[i]);
    if (pre_tree.Exists(out.unit)) {
      out.pre = graph.Closure(out.unit, kcc::IncludeGraph::Side::kPre);
    }
    if (post_tree.Exists(out.unit)) {
      out.post = graph.Closure(out.unit, kcc::IncludeGraph::Side::kPost);
    }
  }
  return rebuild;
}

ks::Result<PrePostResult> RunPrePost(const kdiff::SourceTree& pre_tree,
                                     const kdiff::Patch& patch,
                                     kcc::CompileOptions options) {
  ks::TraceSpan span("prepost.run");
  // Ksplice's builds always use section-per-function/datum (§3.2).
  options.function_sections = true;
  options.data_sections = true;

  ks::Result<kdiff::SourceTree> post_tree = kdiff::ApplyPatch(pre_tree, patch);
  if (!post_tree.ok()) {
    return ks::Status(post_tree.status()).WithContext("pre-post: patch");
  }

  std::vector<RebuildUnit> rebuild;
  {
    ks::TraceSpan select("prepost.rebuild_set");
    rebuild = SelectRebuildSet(pre_tree, *post_tree, patch.TouchedPaths());
  }

  PrePostResult result;
  for (const RebuildUnit& unit : rebuild) {
    result.rebuilt_units.push_back(unit.unit);
  }

  // Every unit's double build and section diff is independent of every
  // other unit's, so fan out per unit (options.jobs workers). Workers
  // write only their own slot; the reduce below runs in unit order, so
  // the result — including which error is reported on failure — does not
  // depend on completion order.
  struct UnitOutcome {
    kelf::ObjectFile pre_obj;
    kelf::ObjectFile post_obj;
    std::vector<ChangedSection> changed;
    UnitReport report;
  };
  // Compiles one side of the double build, attributing the cache hit when
  // a cache is in play.
  auto compile_side = [&options](const kdiff::SourceTree& tree,
                                 const std::string& unit,
                                 const RebuildUnit::Closure& closure,
                                 const char* side, bool* was_hit)
      -> ks::Result<kelf::ObjectFile> {
    ks::Result<kelf::ObjectFile> built =
        options.cache != nullptr
            ? options.cache->GetOrCompile(tree, unit, closure, options,
                                          was_hit)
            : kcc::CompileUnit(tree, unit, options);
    if (!built.ok()) {
      return ks::Status(built.status()).WithContext(side);
    }
    return built;
  };
  auto build_and_diff =
      [&](const RebuildUnit& sides) -> ks::Result<UnitOutcome> {
    const std::string& unit = sides.unit;
    ks::TraceSpan unit_span("prepost.build_and_diff");
    unit_span.Annotate("unit", unit);
    UnitOutcome out{kelf::ObjectFile(unit), kelf::ObjectFile(unit), {}, {}};
    out.report.unit = unit;
    if (sides.pre.has_value()) {
      KS_ASSIGN_OR_RETURN(out.pre_obj,
                          compile_side(pre_tree, unit, *sides.pre, "pre build",
                                       &out.report.pre_cache_hit));
    }
    if (sides.post.has_value()) {
      KS_ASSIGN_OR_RETURN(out.post_obj,
                          compile_side(*post_tree, unit, *sides.post,
                                       "post build",
                                       &out.report.post_cache_hit));
    }
    out.report.pre_text_bytes = TextBytes(out.pre_obj);
    out.report.post_text_bytes = TextBytes(out.post_obj);

    // Diff post against pre.
    const kelf::ObjectFile& pre_obj = out.pre_obj;
    const kelf::ObjectFile& post_obj = out.post_obj;
    std::set<std::string> section_names;
    for (const kelf::Section& section : pre_obj.sections()) {
      section_names.insert(section.name);
    }
    for (const kelf::Section& section : post_obj.sections()) {
      section_names.insert(section.name);
    }
    out.report.sections_compared =
        static_cast<uint32_t>(section_names.size());
    for (size_t si = 0; si < post_obj.sections().size(); ++si) {
      const kelf::Section& post_sec = post_obj.sections()[si];
      std::optional<int> pre_idx = pre_obj.FindSection(post_sec.name);
      ChangedSection change;
      change.unit = unit;
      change.name = post_sec.name;
      change.kind = post_sec.kind;
      change.symbol = DefiningSymbol(post_obj, static_cast<int>(si));
      if (!pre_idx.has_value()) {
        change.change = SectionChange::kAdded;
        out.changed.push_back(std::move(change));
        continue;
      }
      const kelf::Section& pre_sec =
          pre_obj.sections()[static_cast<size_t>(*pre_idx)];
      if (!SectionsEquivalent(pre_obj, pre_sec, post_obj, post_sec)) {
        change.change = SectionChange::kModified;
        out.changed.push_back(std::move(change));
      }
    }
    for (size_t si = 0; si < pre_obj.sections().size(); ++si) {
      const kelf::Section& pre_sec = pre_obj.sections()[si];
      if (!post_obj.FindSection(pre_sec.name).has_value()) {
        ChangedSection change;
        change.unit = unit;
        change.name = pre_sec.name;
        change.kind = pre_sec.kind;
        change.change = SectionChange::kRemoved;
        change.symbol = DefiningSymbol(pre_obj, static_cast<int>(si));
        out.changed.push_back(std::move(change));
      }
    }
    out.report.sections_changed = static_cast<uint32_t>(out.changed.size());
    for (const ChangedSection& change : out.changed) {
      if (change.kind == kelf::SectionKind::kText) {
        out.report.text_changed += 1;
      } else if (change.kind != kelf::SectionKind::kNote) {
        out.report.data_changed += 1;
      }
    }
    return out;
  };

  std::vector<std::optional<ks::Result<UnitOutcome>>> slots(
      result.rebuilt_units.size());
  ks::ParallelFor(options.jobs, result.rebuilt_units.size(), [&](size_t i) {
    slots[i] = build_and_diff(rebuild[i]);
  });

  for (std::optional<ks::Result<UnitOutcome>>& slot : slots) {
    if (!slot->ok()) {
      return slot->status();
    }
    UnitOutcome out = std::move(*slot).value();
    for (ChangedSection& change : out.changed) {
      result.changed.push_back(std::move(change));
    }
    result.pre_objects.push_back(std::move(out.pre_obj));
    result.post_objects.push_back(std::move(out.post_obj));
    result.unit_reports.push_back(std::move(out.report));
  }

  static ks::Counter& units =
      ks::Metrics().GetCounter("prepost.units_rebuilt");
  static ks::Counter& compared =
      ks::Metrics().GetCounter("prepost.sections_compared");
  static ks::Counter& changed_counter =
      ks::Metrics().GetCounter("prepost.sections_changed");
  units.Add(result.rebuilt_units.size());
  for (const UnitReport& report : result.unit_reports) {
    compared.Add(report.sections_compared);
    changed_counter.Add(report.sections_changed);
  }
  return result;
}

}  // namespace ksplice
