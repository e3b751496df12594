// Semantic-diff pass (kanalyze pass 5): compares the pre and post
// side-effect summaries of every patched function and flags behavioral
// changes that layout diffing (the abi pass) cannot see. The paper's §3.4
// punts exactly these to a human: a patch whose code now writes data it
// never touched, writes the same field with a different width, or returns
// holding the big kernel lock is semantically suspect even when every
// data section compares byte-identical.
//
// Rules KSA501-KSA504 (rules.h); KSA502 drops to a note when the package
// declares hooks.

#include <map>
#include <set>
#include <string>

#include "base/strings.h"
#include "kanalyze/kanalyze.h"
#include "kanalyze/rules.h"
#include "kanalyze/summary.h"

namespace kanalyze {

namespace {

// Every named datum the helper (pre) objects define: state that outlives
// any one call and persists across the splice. A write-set that grows into
// this set is a semantic change to shared state.
std::set<std::string> PersistentDataSymbols(
    const ksplice::UpdatePackage& package) {
  std::set<std::string> persistent;
  for (const kelf::ObjectFile& helper : package.helper_objects) {
    for (const kelf::Symbol& sym : helper.symbols()) {
      if (sym.defined() && sym.kind == kelf::SymbolKind::kObject) {
        persistent.insert(NormalizeEffectSymbol(sym.name));
      }
    }
  }
  return persistent;
}

// Data whose pre and post images differ — exactly the state the package's
// .ksplice.* hooks exist to transform at apply time (§5.3). A *new* code
// path reaching it sidesteps whatever invariant the hook establishes.
std::set<std::string> HookGatedDataSymbols(
    const ksplice::UpdatePackage& package) {
  std::set<std::string> gated;
  for (const kelf::ObjectFile& primary : package.primary_objects) {
    const kelf::ObjectFile* helper =
        HelperForUnit(package, primary.source_name());
    if (helper == nullptr) {
      continue;
    }
    for (size_t si = 0; si < primary.sections().size(); ++si) {
      const kelf::Section& post = primary.sections()[si];
      if (post.kind != kelf::SectionKind::kData &&
          post.kind != kelf::SectionKind::kBss) {
        continue;
      }
      const kelf::Section* pre = helper->SectionByName(post.name);
      if (pre == nullptr) {
        continue;
      }
      bool differs = pre->size() != post.size() || pre->align != post.align ||
                     pre->bytes != post.bytes;
      if (!differs) {
        continue;
      }
      std::string name = post.name;
      std::optional<int> def =
          primary.DefiningSymbolForSection(static_cast<int>(si));
      if (def.has_value()) {
        name = primary.symbols()[static_cast<size_t>(*def)].name;
      }
      gated.insert(NormalizeEffectSymbol(name));
    }
  }
  return gated;
}

std::set<std::string> WriteRegions(const std::vector<MemEffect>& writes) {
  std::set<std::string> regions;
  for (const MemEffect& e : writes) {
    regions.insert(e.symbol);
  }
  return regions;
}

}  // namespace

void RunSemanticDiffPass(const ksplice::UpdatePackage& package,
                         const CallGraph& graph,
                         const PackageSummaries& summaries,
                         ksplice::LintReport* report) {
  const bool hooks = PackageHasHooks(package);
  const std::set<std::string> persistent = PersistentDataSymbols(package);
  const std::set<std::string> gated =
      hooks ? HookGatedDataSymbols(package) : std::set<std::string>();

  // One finding per (rule, function, subject): two call paths to the same
  // grown write land on one diagnostic.
  std::set<std::string> emitted;
  auto emit_once = [&emitted](const char* rule, const ksplice::Target& target,
                              const std::string& subject) {
    return emitted
        .insert(ks::StrPrintf("%s\x1f%s\x1f%s\x1f%s", rule,
                              target.unit.c_str(), target.symbol.c_str(),
                              subject.c_str()))
        .second;
  };

  for (const ksplice::Target& target : package.targets) {
    int pre_node = graph.FindHelperNode(target.unit, target.symbol);
    int post_node = graph.FindPrimaryNode(target.unit, target.symbol);
    if (pre_node < 0 || post_node < 0) {
      continue;  // callgraph pass reports the inconsistency (KSA104)
    }
    const FunctionSummary& pre =
        summaries.functions[static_cast<size_t>(pre_node)];
    const FunctionSummary& post =
        summaries.functions[static_cast<size_t>(post_node)];

    // KSA501: the post write-set (direct + via calls) grew into persistent
    // data the pre function never wrote.
    std::set<std::string> pre_regions = WriteRegions(pre.transitive_writes);
    for (const std::string& region :
         WriteRegions(post.transitive_writes)) {
      if (pre_regions.count(region) != 0 || persistent.count(region) == 0) {
        continue;
      }
      if (emit_once("KSA501", target, region)) {
        AddFinding(report, "KSA501", target.unit, target.symbol,
                   ks::StrPrintf("write-set grew: patched code writes "
                                 "persistent data '%s' that the pre "
                                 "function never wrote",
                                 region.c_str()),
                   "a new write to shared state is a semantic change "
                   "(§3.4); confirm every reader tolerates the new "
                   "protocol");
      }
    }

    // KSA502: the same (symbol, offset) field is stored with a different
    // width — a layout-compatible but semantics-changing access (e.g. a
    // field narrowed from word to byte). Data sections compare equal, so
    // the abi pass is blind to it.
    std::map<std::pair<std::string, int32_t>, std::set<uint8_t>> pre_widths;
    for (const MemEffect& e : pre.writes) {
      if (e.offset_known) {
        pre_widths[{e.symbol, e.offset}].insert(e.width);
      }
    }
    for (const MemEffect& e : post.writes) {
      if (!e.offset_known) {
        continue;
      }
      auto it = pre_widths.find({e.symbol, e.offset});
      if (it == pre_widths.end() || it->second.count(e.width) != 0) {
        continue;  // new field (KSA501's job) or same-width store
      }
      if (emit_once("KSA502", target, e.ToString())) {
        ksplice::LintFinding& finding = AddFinding(
            report, "KSA502", target.unit, target.symbol,
            ks::StrPrintf("store width changed at shared field %s+%d: pre "
                          "wrote %u byte(s), post writes %u",
                          e.symbol.c_str(), e.offset,
                          static_cast<unsigned>(*it->second.begin()),
                          static_cast<unsigned>(e.width)),
            hooks ? "hooks declared: verify the apply-time transformer "
                    "covers this field's representation"
                  : "a width change reinterprets the field for every "
                    "other reader; gate it with .ksplice hooks (§5.3)",
            static_cast<uint32_t>(e.offset));
        if (hooks) {
          finding.severity = ksplice::LintSeverity::kNote;
        }
      }
    }

    // KSA503: the pre function provably restored the lock depth on every
    // return and the post function provably does not.
    if (pre.ProvablyLockBalanced() && post.lock_imbalance &&
        emit_once("KSA503", target, "lock")) {
      AddFinding(report, "KSA503", target.unit, target.symbol,
                 ks::StrPrintf("lock imbalance introduced: post function "
                               "returns with lock depth %+d (pre was "
                               "balanced; %u acquire(s), %u release(s) in "
                               "post)",
                               post.lock_imbalance_depth, post.lock_acquires,
                               post.lock_releases),
                 "a caller of the patched function would inherit or lose "
                 "the big kernel lock; pair every lock_kernel with "
                 "unlock_kernel");
    }

    // KSA504: hooks gate a data transformation, and the patch adds a call
    // path that writes that very data — code the hook's invariant never
    // accounted for.
    if (hooks && !gated.empty()) {
      std::set<std::string> post_regions =
          WriteRegions(post.transitive_writes);
      for (const std::string& region : gated) {
        if (post_regions.count(region) == 0 ||
            pre_regions.count(region) != 0) {
          continue;
        }
        if (emit_once("KSA504", target, region)) {
          AddFinding(report, "KSA504", target.unit, target.symbol,
                     ks::StrPrintf("new call path writes hook-gated data "
                                   "'%s' (its pre/post images differ and "
                                   "the pre function never reached it)",
                                   region.c_str()),
                     "review the apply-time hooks: a write from new code "
                     "may race or undo the hook's transformation");
        }
      }
    }
  }
}

}  // namespace kanalyze
