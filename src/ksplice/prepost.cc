#include "ksplice/prepost.h"

#include <map>
#include <optional>
#include <set>

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

  const std::vector<std::string> touched = patch.TouchedPaths();
  const std::set<std::string> touched_set(touched.begin(), touched.end());

  // A unit is rebuilt when its include closure on either side contains a
  // touched path (a created or deleted unit contains itself), or when its
  // closure fails on a side: that side's build below then reports the
  // better error. The closures are kept: they key the cached compiles.
  using Closure = ks::Result<std::vector<std::string>>;
  struct Sides {
    std::optional<Closure> pre, post;  // unset where the unit is absent
  };
  std::map<std::string, Sides> rebuild;
  {
    ks::TraceSpan select("prepost.rebuild_set");
    // One include graph per side. The post tree differs from the pre tree
    // only at the touched paths, so the post graph is the pre graph with
    // just those rescanned.
    kcc::IncludeGraph pre_graph(pre_tree);
    kcc::IncludeGraph post_graph = pre_graph;
    post_graph.Rescan(*post_tree, touched);
    auto affected = [&touched_set](const std::optional<Closure>& closure) {
      if (!closure.has_value()) {
        return false;
      }
      if (!closure->ok()) {
        return true;
      }
      for (const std::string& dep : **closure) {
        if (touched_set.count(dep) != 0) {
          return true;
        }
      }
      return false;
    };
    std::set<std::string> units;
    for (const kdiff::SourceTree* tree :
         {&pre_tree, static_cast<const kdiff::SourceTree*>(&*post_tree)}) {
      for (const std::string& path : tree->Paths()) {
        if (kcc::IsCompilationUnit(path)) {
          units.insert(path);
        }
      }
    }
    for (const std::string& unit : units) {
      Sides sides;
      if (pre_tree.Exists(unit)) {
        sides.pre = pre_graph.Closure(unit);
      }
      if (post_tree->Exists(unit)) {
        sides.post = post_graph.Closure(unit);
      }
      if (affected(sides.pre) || affected(sides.post)) {
        rebuild.emplace(unit, std::move(sides));
      }
    }
  }

  PrePostResult result;
  for (const auto& [unit, sides] : rebuild) {
    result.rebuilt_units.push_back(unit);
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
                                 const Closure& closure, const char* side,
                                 bool* was_hit)
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
      [&](const std::string& unit) -> ks::Result<UnitOutcome> {
    ks::TraceSpan unit_span("prepost.build_and_diff");
    unit_span.Annotate("unit", unit);
    const Sides& sides = rebuild.at(unit);
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
    slots[i] = build_and_diff(result.rebuilt_units[i]);
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
