// Special-section howtos (§4.3 "special sections"): faulting loads
// recover through exception tables, BUG traps map the trap pc back to a
// source line via the bug table, and run-pre matching applies per-howto
// strategies — byte-wise for text, entry-structural for
// .extable/.bug_table (match (insn, fixup) pairs under relocation, not
// raw bytes), content-ignoring for .rodata.date/.rodata.time — with
// decisions identical in the decode-once matcher and its linear oracle.

#include <gtest/gtest.h>

#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kelf/objfile.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"
#include "runpre_oracle.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

constexpr char kUnit[] = "kern/howto.kc";

// One unit exercising all four howto kinds: an exception-table guarded
// raw load (the __get_user pattern), a BUG trap, and both build
// timestamps.
SourceTree HowtoTree() {
  SourceTree tree;
  tree.Write(kUnit, R"(
int scratch[4];
char *kernel_banner(int pick) {
  if (pick == 1) {
    return __TIME__;
  }
  return __DATE__;
}
int guarded_read(int addr) {
  if (addr >= 0 && addr < 4) {
    return scratch[addr];
  }
  return try_load(addr, 4095);
}
int raw_read(char *p) {
  return p[0];
}
int do_bug(int x) {
  if (x == 9) {
    BUG();
  }
  return x + 1;
}
)");
  return tree;
}

// Far beyond any test machine's image.
constexpr uint32_t kWildAddr = 536870912;  // 0x20000000

ks::Result<std::unique_ptr<kvm::Machine>> BootTree(
    const SourceTree& tree, const kcc::CompileOptions& options) {
  KS_ASSIGN_OR_RETURN(std::vector<kelf::ObjectFile> objects,
                      kcc::BuildTree(tree, options));
  kvm::MachineConfig config;
  return kvm::Machine::Boot(std::move(objects), config);
}

kelf::ObjectFile CompilePre(const SourceTree& tree,
                            kcc::CompileOptions options) {
  options.function_sections = true;
  options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre = kcc::CompileUnit(tree, kUnit, options);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  return pre.ok() ? std::move(pre).value() : kelf::ObjectFile();
}

uint32_t AddressOf(const kvm::Machine& machine, const std::string& name) {
  std::vector<kelf::LinkedSymbol> syms = machine.SymbolsNamed(name);
  EXPECT_EQ(syms.size(), 1u) << name;
  return syms.empty() ? 0 : syms[0].address;
}

// ---------------------------------------------------------------- kvm

TEST(HowtoDispatch, FaultingLoadRecoversThroughExtable) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      BootTree(HowtoTree(), {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  uint32_t guarded = AddressOf(**machine, "guarded_read");
  ASSERT_NE(guarded, 0u);

  // The kernel image registered its exception table at boot.
  bool kernel_extable = false;
  for (const kvm::HowtoRegion& region : (*machine)->HowtoRegions()) {
    if (region.howto == kelf::Howto::kExtable && region.module_id == -1) {
      kernel_extable = true;
    }
  }
  EXPECT_TRUE(kernel_extable);

  // Wild address: the load faults; the fixup substitutes the fallback.
  ks::Result<uint32_t> wild = (*machine)->CallFunction(guarded, kWildAddr);
  ASSERT_TRUE(wild.ok()) << wild.status().ToString();
  EXPECT_EQ(*wild, 4095u);
  EXPECT_EQ((*machine)->ExtableFixups(), 1u);

  // Valid raw address: loadf behaves like a plain load, no fixup taken.
  uint32_t scratch = AddressOf(**machine, "scratch");
  ASSERT_TRUE((*machine)->WriteWord(scratch, 77).ok());
  ks::Result<uint32_t> valid = (*machine)->CallFunction(guarded, scratch);
  ASSERT_TRUE(valid.ok()) << valid.status().ToString();
  EXPECT_EQ(*valid, 77u);
  EXPECT_EQ((*machine)->ExtableFixups(), 1u);
  EXPECT_TRUE((*machine)->Faults().empty());
}

TEST(HowtoDispatch, PlainWildLoadStillFaults) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      BootTree(HowtoTree(), {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  uint32_t raw = AddressOf(**machine, "raw_read");
  ASSERT_NE(raw, 0u);
  // No extable entry covers an ordinary load: the thread faults.
  ks::Result<uint32_t> wild = (*machine)->CallFunction(raw, kWildAddr);
  EXPECT_FALSE(wild.ok());
  EXPECT_EQ((*machine)->ExtableFixups(), 0u);
}

TEST(HowtoDispatch, BugTrapReportsSourceLine) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      BootTree(HowtoTree(), {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  uint32_t bug_fn = AddressOf(**machine, "do_bug");
  ASSERT_NE(bug_fn, 0u);

  ks::Result<uint32_t> fine = (*machine)->CallFunction(bug_fn, 3);
  ASSERT_TRUE(fine.ok()) << fine.status().ToString();
  EXPECT_EQ(*fine, 4u);

  ks::Result<uint32_t> trapped = (*machine)->CallFunction(bug_fn, 9);
  EXPECT_FALSE(trapped.ok());
  bool reported = false;
  for (const std::string& fault : (*machine)->Faults()) {
    if (fault.find("kernel BUG at") != std::string::npos) {
      reported = true;
    }
  }
  EXPECT_TRUE(reported) << "BUG trap must decode through the bug table";
}

// ------------------------------------------------------------- matcher

TEST(HowtoMatch, DateDriftMatchesContentIgnoring) {
  SourceTree tree = HowtoTree();
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootTree(tree, {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();

  // The pre objects were built later than the running kernel: the
  // timestamps differ, the code does not (§4.3's date/time howto).
  kcc::CompileOptions drifted;
  drifted.build_date = "Feb 22 2026";
  drifted.build_time = "12:34:56";
  kelf::ObjectFile pre = CompilePre(tree, drifted);

  RunPreMatcher matcher(**machine);
  MatchStats stats;
  ks::Result<UnitMatch> match = matcher.MatchUnit(pre, &stats);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(stats.date_time_sections_matched, 2u);  // .date and .time
  EXPECT_GE(stats.extable_sections_matched, 1u);
  EXPECT_GE(stats.bug_table_sections_matched, 1u);

  // The drift was real: matched run bytes differ from the pre bytes.
  const kelf::Section* pre_date = pre.SectionByName(".rodata.date");
  ASSERT_NE(pre_date, nullptr);
  ASSERT_TRUE(match->sections.count(".rodata.date"));
  ks::Result<std::vector<uint8_t>> run_bytes = (*machine)->ReadBytes(
      match->sections[".rodata.date"].run_address, pre_date->size());
  ASSERT_TRUE(run_bytes.ok());
  EXPECT_NE(*run_bytes, pre_date->bytes)
      << "run and pre timestamps should differ for this test to bite";
}

TEST(HowtoMatch, ChangedExtableFixupRefusesNamingEntry) {
  SourceTree tree = HowtoTree();
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootTree(tree, {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  kelf::ObjectFile pre = CompilePre(tree, {});

  // Redirect the run image's fixup word: the table still parses, but the
  // (insn, fixup) pair no longer corresponds to the pre entry.
  uint32_t table = AddressOf(**machine, "__extable_guarded_read");
  ASSERT_NE(table, 0u);
  ks::Result<uint32_t> fixup = (*machine)->ReadWord(table + 4);
  ASSERT_TRUE(fixup.ok());
  ASSERT_TRUE((*machine)->WriteWord(table + 4, *fixup + 2).ok());

  std::string first_message;
  for (bool walk_only : {false, true}) {
    RunPreMatcher matcher(**machine);
    ks::Result<UnitMatch> match =
        walk_only ? MatchWalkOnly(matcher, pre) : matcher.MatchUnit(pre);
    ASSERT_FALSE(match.ok());
    EXPECT_EQ(match.status().code(), ks::ErrorCode::kAborted);
    // The per-entry diagnostic names the failing entry index.
    EXPECT_NE(match.status().message().find("entry 0"), std::string::npos)
        << match.status().message();
    if (first_message.empty()) {
      first_message = match.status().message();
    } else {
      EXPECT_EQ(first_message, match.status().message())
          << "refusals must be byte-identical on both plans";
    }
  }
}

TEST(HowtoMatch, DecisionsIdenticalAcrossJobsAndIndex) {
  SourceTree tree = HowtoTree();
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootTree(tree, {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  kcc::CompileOptions drifted;
  drifted.build_date = "Feb 22 2026";
  drifted.build_time = "12:34:56";
  kelf::ObjectFile pre = CompilePre(tree, drifted);

  std::optional<UnitMatch> baseline;
  std::optional<MatchStats> baseline_stats;
  for (bool walk_only : {false, true}) {
    RunPreMatcher matcher(**machine);
    MatchStats stats;
    ks::Result<UnitMatch> match = walk_only
                                      ? MatchWalkOnly(matcher, pre, &stats)
                                      : matcher.MatchUnit(pre, &stats);
    ASSERT_TRUE(match.ok())
        << "walk_only=" << walk_only << ": " << match.status().ToString();
    if (!baseline.has_value()) {
      baseline = *match;
      baseline_stats = stats;
      continue;
    }
    EXPECT_EQ(match->symbol_values, baseline->symbol_values);
    ASSERT_EQ(match->sections.size(), baseline->sections.size());
    for (const auto& [name, section] : match->sections) {
      ASSERT_TRUE(baseline->sections.count(name)) << name;
      EXPECT_EQ(section.run_address, baseline->sections[name].run_address)
          << name;
      EXPECT_EQ(section.run_size, baseline->sections[name].run_size)
          << name;
    }
    EXPECT_EQ(stats.sections_matched, baseline_stats->sections_matched);
    EXPECT_EQ(stats.extable_sections_matched,
              baseline_stats->extable_sections_matched);
    EXPECT_EQ(stats.bug_table_sections_matched,
              baseline_stats->bug_table_sections_matched);
    EXPECT_EQ(stats.date_time_sections_matched,
              baseline_stats->date_time_sections_matched);
  }
}

// ---------------------------------------------------------------- e2e

// A package built from date-drifted source applies where byte-wise
// matching would have refused, and the spliced code serves the module's
// own timestamp strings afterwards.
TEST(HowtoEndToEnd, DateDriftedPackageApplies) {
  SourceTree tree = HowtoTree();
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootTree(tree, {});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();

  uint32_t banner = AddressOf(**machine, "kernel_banner");
  ASSERT_NE(banner, 0u);
  ks::Result<uint32_t> before = (*machine)->CallFunction(banner, 2);
  ASSERT_TRUE(before.ok());
  ks::Result<std::vector<uint8_t>> before_str =
      (*machine)->ReadBytes(*before, 11);
  ASSERT_TRUE(before_str.ok());
  EXPECT_EQ(std::string(before_str->begin(), before_str->end()),
            "Jan  1 2026");

  SourceTree post = tree;
  std::string contents = *post.Read(kUnit);
  size_t at = contents.find("if (pick == 1) {");
  ASSERT_NE(at, std::string::npos);
  contents.replace(at, std::string("if (pick == 1) {").size(),
                   "if (pick != 0) {");
  post.Write(kUnit, contents);

  CreateOptions options;
  options.id = "howto-date-drift";
  options.compile.build_date = "Feb 22 2026";
  options.compile.build_time = "12:34:56";
  ks::Result<CreateResult> created =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  KspliceCore core(machine->get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok())
      << "content-ignoring matching must tolerate timestamp drift: "
      << applied.status().ToString();

  // The patched banner now takes the != branch and returns a time
  // string. Content-ignoring matching resolved the module's timestamp
  // reference to the *run kernel's* existing .rodata.time — the whole
  // point of the date/time howto is that the drifted copy is never
  // spliced in as if it were changed data.
  ks::Result<uint32_t> after = (*machine)->CallFunction(banner, 2);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  ks::Result<std::vector<uint8_t>> after_str =
      (*machine)->ReadBytes(*after, 8);
  ASSERT_TRUE(after_str.ok());
  EXPECT_EQ(std::string(after_str->begin(), after_str->end()), "00:00:00");

  // The module's tables are live: a wild read through the spliced
  // guarded_read still recovers.
  uint32_t guarded = AddressOf(**machine, "guarded_read");
  uint64_t fixups = (*machine)->ExtableFixups();
  ks::Result<uint32_t> wild = (*machine)->CallFunction(guarded, kWildAddr);
  ASSERT_TRUE(wild.ok());
  EXPECT_EQ(*wild, 4095u);
  EXPECT_GT((*machine)->ExtableFixups(), fixups);
}

}  // namespace
}  // namespace ksplice
