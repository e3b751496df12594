// kanalyze summary layer and the semantic-diff pass.
//
//   - direct summaries by abstract interpretation (SummarizeSection):
//     attributed reads/writes with offset and width, frame invisibility,
//     unresolved stores, lock acquire/release pairing, blocking
//     primitives, and the deterministic serialization round-trip
//   - package summaries (ComputeSummaries through AnalyzePackage): exact
//     kanalyze.summary.cache_{hits,misses} counts cold vs warm, and
//     byte-identical reports at -j 1 vs -j 8 and cold vs warm cache
//   - semdiff rules over crafted packages: write-set growth into
//     persistent data (KSA501), store width change at a shared field
//     (KSA502), introduced lock imbalance (KSA503), and a new call path
//     into hook-gated data (KSA504)

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "base/metrics.h"
#include "kanalyze/callgraph.h"
#include "kanalyze/kanalyze.h"
#include "kanalyze/summary.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/create.h"
#include "ksplice/package.h"

namespace kanalyze {
namespace {

using kdiff::SourceTree;
using ksplice::LintReport;
using ksplice::LintSeverity;

kcc::CompileOptions Monolithic() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

ks::Result<ksplice::CreateResult> Create(
    const SourceTree& tree, const std::string& patch,
    ksplice::LintMode lint = ksplice::LintMode::kWarn) {
  ksplice::CreateOptions options;
  options.compile = Monolithic();
  options.id = "summary-test";
  options.lint = lint;
  return ksplice::CreateUpdate(tree, patch, options);
}

std::string EditPatch(const SourceTree& tree, const std::string& path,
                      const std::string& from, const std::string& to) {
  SourceTree post = tree;
  std::string contents = *tree.Read(path);
  size_t at = contents.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  contents.replace(at, from.size(), to);
  post.Write(path, contents);
  return kdiff::MakeUnifiedDiff(tree, post);
}

std::vector<ksplice::LintFinding> WithRule(const LintReport& report,
                                           const std::string& rule) {
  std::vector<ksplice::LintFinding> out;
  for (const ksplice::LintFinding& finding : report.findings) {
    if (finding.rule == rule) {
      out.push_back(finding);
    }
  }
  return out;
}

// Assembles one unit (monolithic sections: ".text", ".data").
kelf::ObjectFile CompileAsm(const std::string& path,
                            const std::string& source) {
  SourceTree tree;
  tree.Write(path, source);
  ks::Result<kelf::ObjectFile> obj =
      kcc::CompileUnit(tree, path, Monolithic());
  EXPECT_TRUE(obj.ok()) << obj.status().ToString();
  return obj.ok() ? *obj : kelf::ObjectFile(path);
}

const kelf::Section* TextSection(const kelf::ObjectFile& obj) {
  for (const kelf::Section& section : obj.sections()) {
    if (section.kind == kelf::SectionKind::kText && !section.bytes.empty()) {
      return &section;
    }
  }
  return nullptr;
}

FunctionSummary Summarize(const std::string& source) {
  kelf::ObjectFile obj = CompileAsm("m.kvs", source);
  const kelf::Section* text = TextSection(obj);
  EXPECT_NE(text, nullptr);
  return text != nullptr ? SummarizeSection(obj, *text) : FunctionSummary();
}

// ------------------------------------------------------------------------
// Direct summaries.

TEST(SummaryDirect, GlobalReadModifyWriteIsAttributed) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    mov r0, =counter
    load r1, [r0]
    add r1, 1
    store [r0], r1
    ret
.data
.global counter
.align 4
counter:
    .word 0
)");
  ASSERT_EQ(s.writes.size(), 1u);
  EXPECT_EQ(s.writes[0].symbol, "counter");
  EXPECT_EQ(s.writes[0].offset, 0);
  EXPECT_EQ(s.writes[0].width, 4u);
  EXPECT_TRUE(s.writes[0].offset_known);
  ASSERT_EQ(s.reads.size(), 1u);
  EXPECT_EQ(s.reads[0].symbol, "counter");
  EXPECT_FALSE(s.writes_unresolved);
  EXPECT_FALSE(s.reads_unresolved);
  EXPECT_FALSE(s.blocks);
}

TEST(SummaryDirect, ByteStoreHasWidthOne) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    mov r0, =flag
    mov r1, 1
    storeb [r0], r1
    ret
.data
.global flag
flag:
    .byte 0
)");
  ASSERT_EQ(s.writes.size(), 1u);
  EXPECT_EQ(s.writes[0].width, 1u);
}

TEST(SummaryDirect, ProvableRegisterArithmeticFeedsOffset) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    mov r0, =table
    add r0, 8
    mov r1, 5
    store [r0], r1
    ret
.data
.global table
.align 4
table:
    .word 0, 0, 0, 0
)");
  ASSERT_EQ(s.writes.size(), 1u);
  EXPECT_EQ(s.writes[0].symbol, "table");
  EXPECT_EQ(s.writes[0].offset, 8);
  EXPECT_TRUE(s.writes[0].offset_known);
}

TEST(SummaryDirect, FrameAccessesAreInvisible) {
  // Locals (fp/sp-relative) never escape the activation: no effects, no
  // unresolved marker.
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    push fp
    mov fp, sp
    mov r1, 9
    store [fp], r1
    load r2, [fp]
    pop fp
    ret
)");
  EXPECT_TRUE(s.writes.empty());
  EXPECT_TRUE(s.reads.empty());
  EXPECT_FALSE(s.writes_unresolved);
  EXPECT_FALSE(s.reads_unresolved);
}

TEST(SummaryDirect, UnattributableStoreIsUnresolved) {
  // r3 was never defined in this block: the store's target is unknown.
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    mov r1, 2
    store [r3], r1
    ret
)");
  EXPECT_TRUE(s.writes.empty());
  EXPECT_TRUE(s.writes_unresolved);
}

TEST(SummaryDirect, PairedLockIsProvablyBalanced) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    sys 9
    mov r1, 1
    sys 10
    ret
)");
  EXPECT_EQ(s.lock_acquires, 1u);
  EXPECT_EQ(s.lock_releases, 1u);
  EXPECT_TRUE(s.ProvablyLockBalanced());
  EXPECT_TRUE(s.blocks);  // lock_kernel can block
  EXPECT_EQ(s.blocking_primitives.count("lock_kernel"), 1u);
}

TEST(SummaryDirect, MissingReleaseIsProvableImbalance) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    sys 9
    ret
)");
  EXPECT_EQ(s.lock_acquires, 1u);
  EXPECT_EQ(s.lock_releases, 0u);
  EXPECT_FALSE(s.ProvablyLockBalanced());
  EXPECT_TRUE(s.lock_imbalance);
  EXPECT_EQ(s.lock_imbalance_depth, 1);
}

TEST(SummaryDirect, SerializeRoundTrips) {
  FunctionSummary s = Summarize(R"(
.text
.global f
f:
    mov r0, =counter
    load r1, [r0]
    add r1, 1
    store [r0], r1
    sys 3
    call helper
    ret
.data
.global counter
.align 4
counter:
    .word 0
)");
  std::vector<uint8_t> blob = s.Serialize();
  ks::Result<FunctionSummary> back = FunctionSummary::Deserialize(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->Serialize(), blob);
  EXPECT_EQ(back->writes, s.writes);
  EXPECT_EQ(back->reads, s.reads);
  EXPECT_EQ(back->blocking_primitives, s.blocking_primitives);
  EXPECT_EQ(back->callees, s.callees);
  EXPECT_EQ(back->insns, s.insns);
}

TEST(SummaryDirect, NormalizeStripsUnitScope) {
  EXPECT_EQ(NormalizeEffectSymbol("m.kc::counter"), "counter");
  EXPECT_EQ(NormalizeEffectSymbol("counter"), "counter");
}

// ------------------------------------------------------------------------
// Package summaries: cache accounting and determinism.

TEST(SummaryPackage, ColdThenWarmCacheCountsAreExact) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int pick(int x) {
  sleep(1);
  return x + 1;
}
)");
  std::string patch = EditPatch(tree, "m.kc", "x + 1", "x + 2");
  ks::Result<ksplice::CreateResult> created =
      Create(tree, patch, ksplice::LintMode::kOff);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  ks::Counter& hits =
      ks::Metrics().GetCounter("kanalyze.summary.cache_hits");
  ks::Counter& misses =
      ks::Metrics().GetCounter("kanalyze.summary.cache_misses");
  ks::Counter& computed =
      ks::Metrics().GetCounter("kanalyze.summary.computed");

  kcc::ObjectCache cache;
  AnalyzeOptions options;
  options.cache = &cache;

  // Cold: every distinct function body is a miss (pre and post bodies of
  // `pick` differ, so two entries).
  uint64_t hits0 = hits.value();
  uint64_t misses0 = misses.value();
  uint64_t computed0 = computed.value();
  ks::Result<LintReport> cold = AnalyzePackage(created->package, options);
  ASSERT_TRUE(cold.ok()) << cold.status().ToString();
  EXPECT_EQ(cold->functions_summarized, 2u);
  EXPECT_EQ(hits.value() - hits0, 0u);
  EXPECT_EQ(misses.value() - misses0, 2u);
  EXPECT_EQ(computed.value() - computed0, 2u);
  EXPECT_EQ(cache.blob_hits(), 0u);
  EXPECT_EQ(cache.blob_misses(), 2u);

  // Warm: every summary is served from the blob store, and the report is
  // byte-identical (the report never encodes cache state).
  uint64_t hits1 = hits.value();
  uint64_t misses1 = misses.value();
  uint64_t computed1 = computed.value();
  ks::Result<LintReport> warm = AnalyzePackage(created->package, options);
  ASSERT_TRUE(warm.ok()) << warm.status().ToString();
  EXPECT_EQ(hits.value() - hits1, 2u);
  EXPECT_EQ(misses.value() - misses1, 0u);
  EXPECT_EQ(computed.value() - computed1, 0u);
  EXPECT_EQ(cache.blob_hits(), 2u);
  EXPECT_EQ(cold->ToJson(), warm->ToJson());
}

TEST(SummaryPackage, ReportIsByteIdenticalAcrossJobsAndCache) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int st_a; int st_b; int st_c; int st_d;
int park_a(int n) {
  st_a += 1; st_b += 2; st_c += 3; st_d += 4;
  st_a += st_b; st_c += st_d;
  sleep(n);
  st_b += st_c;
  return st_a;
}
int park_b(int n) {
  st_a += 4; st_b += 3; st_c += 2; st_d += 1;
  st_d += st_c; st_b += st_a;
  sleep(n);
  st_c += st_b;
  return st_b;
}
int lock_c(int n) {
  lock_kernel();
  st_a += n; st_b += n; st_c += n; st_d += n;
  st_a += st_d; st_b += st_c;
  unlock_kernel();
  return st_c;
}
int outer(int n) {
  return park_a(n) + park_b(n) + lock_c(n);
}
)");
  std::string patch = EditPatch(tree, "m.kc", "park_a(n) + park_b(n)",
                                "park_b(n) + park_a(n)");
  ks::Result<ksplice::CreateResult> created =
      Create(tree, patch, ksplice::LintMode::kOff);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // No cache, a cold cache and a warm cache give the same report.
  ks::Result<LintReport> baseline = AnalyzePackage(created->package);
  ASSERT_TRUE(baseline.ok());

  kcc::ObjectCache cache;
  AnalyzeOptions cached;
  cached.cache = &cache;
  ks::Result<LintReport> cold = AnalyzePackage(created->package, cached);
  ks::Result<LintReport> warm = AnalyzePackage(created->package, cached);
  ASSERT_TRUE(cold.ok());
  ASSERT_TRUE(warm.ok());
  EXPECT_EQ(baseline->ToJson(), cold->ToJson());
  EXPECT_EQ(baseline->ToJson(), warm->ToJson());
}

// ------------------------------------------------------------------------
// Semantic diff: KSA501 (write-set growth into persistent data).

TEST(Semdiff, GrownWriteSetIntoPersistentDataWarns) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int counter; int aux;
int tick(int n) {
  counter += n;
  return counter;
}
)");
  std::string patch =
      EditPatch(tree, "m.kc", "counter += n;", "counter += n; aux = n;");
  ks::Result<ksplice::CreateResult> created = Create(tree, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::vector<ksplice::LintFinding> findings =
      WithRule(created->report.lint, "KSA501");
  ASSERT_EQ(findings.size(), 1u) << created->report.lint.ToJson();
  EXPECT_EQ(findings[0].severity, LintSeverity::kWarning);
  EXPECT_EQ(findings[0].symbol, "tick");
  EXPECT_NE(findings[0].message.find("aux"), std::string::npos)
      << findings[0].message;
  EXPECT_EQ(created->report.lint.errors(), 0u);
}

// ------------------------------------------------------------------------
// KSA502 (store width changed at a shared field). Crafted at the object
// level: the data section is byte-identical pre/post, so the abi pass is
// blind and only the summary diff can see the narrowed store.

TEST(Semdiff, StoreWidthChangeAtSharedFieldIsError) {
  ksplice::UpdatePackage package;
  package.id = "crafted-width";
  package.helper_objects.push_back(CompileAsm("m.kvs", R"(
.text
.global f
f:
    mov r0, =cell
    mov r1, 7
    store [r0], r1
    ret
.data
.global cell
.align 4
cell:
    .word 0
)"));
  package.primary_objects.push_back(CompileAsm("m.kvs", R"(
.text
.global f
f:
    mov r0, =cell
    mov r1, 7
    storeb [r0], r1
    ret
)"));
  package.targets.push_back(ksplice::Target{"m.kvs", "f", ".text"});

  ks::Result<LintReport> report = AnalyzePackage(package);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<ksplice::LintFinding> findings = WithRule(*report, "KSA502");
  ASSERT_EQ(findings.size(), 1u) << report->ToJson();
  EXPECT_EQ(findings[0].severity, LintSeverity::kError);
  EXPECT_EQ(findings[0].symbol, "f");
  EXPECT_TRUE(findings[0].has_offset);
  EXPECT_EQ(findings[0].offset, 0u);
  EXPECT_NE(findings[0].message.find("cell"), std::string::npos);
}

// ------------------------------------------------------------------------
// KSA503 (lock imbalance introduced by the patch).

TEST(Semdiff, IntroducedLockImbalanceIsError) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int st;
int guarded(int n) {
  lock_kernel();
  st += n;
  unlock_kernel();
  return st;
}
)");
  std::string patch = EditPatch(tree, "m.kc", "unlock_kernel();", "");
  ks::Result<ksplice::CreateResult> created = Create(tree, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::vector<ksplice::LintFinding> findings =
      WithRule(created->report.lint, "KSA503");
  ASSERT_EQ(findings.size(), 1u) << created->report.lint.ToJson();
  EXPECT_EQ(findings[0].severity, LintSeverity::kError);
  EXPECT_EQ(findings[0].symbol, "guarded");
}

TEST(Semdiff, BalancedLockEditStaysClean) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int st;
int guarded(int n) {
  lock_kernel();
  st += n;
  unlock_kernel();
  return st;
}
)");
  std::string patch = EditPatch(tree, "m.kc", "st += n;", "st += n + 1;");
  ks::Result<ksplice::CreateResult> created = Create(tree, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  EXPECT_TRUE(WithRule(created->report.lint, "KSA503").empty())
      << created->report.lint.ToJson();
}

// ------------------------------------------------------------------------
// KSA504 (new call path writes hook-gated data). Crafted: unit a's
// patched `f` gains a call into unit b's `g`, which writes the very datum
// the package's apply hook transforms.

TEST(Semdiff, NewCallPathIntoHookGatedDataIsNoted) {
  ksplice::UpdatePackage package;
  package.id = "crafted-gated";

  package.helper_objects.push_back(CompileAsm("a.kvs", R"(
.text
.global f
f:
    ret
)"));
  package.helper_objects.push_back(CompileAsm("b.kvs", R"(
.text
.global g
g:
    mov r0, =x
    mov r1, 1
    store [r0], r1
    ret
.data
.global x
.align 4
x:
    .word 1
)"));

  kelf::ObjectFile primary_a = CompileAsm("a.kvs", R"(
.text
.global f
f:
    call g
    ret
)");
  kelf::Section hook;
  hook.name = ".ksplice.apply";
  hook.kind = kelf::SectionKind::kNote;
  hook.bytes = {0, 0, 0, 0};
  primary_a.AddSection(std::move(hook));
  package.primary_objects.push_back(std::move(primary_a));

  // Unit b's primary ships the transformed image of `x` (what the hook
  // installs), making `x` hook-gated data.
  kelf::ObjectFile primary_b("b.kvs");
  kelf::Section data;
  data.name = ".data";
  data.kind = kelf::SectionKind::kData;
  data.align = 4;
  data.bytes = {2, 0, 0, 0};
  int dsi = primary_b.AddSection(std::move(data));
  kelf::Symbol xsym;
  xsym.name = "x";
  xsym.binding = kelf::SymbolBinding::kGlobal;
  xsym.kind = kelf::SymbolKind::kObject;
  xsym.section = dsi;
  primary_b.AddSymbol(std::move(xsym));
  package.primary_objects.push_back(std::move(primary_b));

  package.targets.push_back(ksplice::Target{"a.kvs", "f", ".text"});

  ks::Result<LintReport> report = AnalyzePackage(package);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  std::vector<ksplice::LintFinding> findings = WithRule(*report, "KSA504");
  ASSERT_EQ(findings.size(), 1u) << report->ToJson();
  EXPECT_EQ(findings[0].severity, LintSeverity::kNote);
  EXPECT_EQ(findings[0].symbol, "f");
  EXPECT_NE(findings[0].message.find("'x'"), std::string::npos);
  // The grown write-set also fires (x is persistent pre-state), and the
  // hooks keep everything below error severity.
  EXPECT_EQ(WithRule(*report, "KSA501").size(), 1u);
  EXPECT_EQ(report->errors(), 0u);
}

}  // namespace
}  // namespace kanalyze
