// Corpus self-checks: the simulated kernel boots and survives stress, every
// one of the 64 vulnerability entries generates a working patch, every
// exploit demonstrably works on the unpatched kernel, and full §6-style
// evaluation succeeds for representative entries (the complete sweep over
// all 64 is bench_headline_eval's job).

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "base/hash.h"
#include "corpus/corpus.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kvx/isa.h"
#include "runpre_oracle.h"

namespace corpus {
namespace {

TEST(CorpusTest, ExactlySixtyFourVulnerabilities) {
  EXPECT_EQ(Vulnerabilities().size(), 64u);
  // CVE ids are unique.
  std::set<std::string> ids;
  for (const Vulnerability& vuln : Vulnerabilities()) {
    EXPECT_TRUE(ids.insert(vuln.cve).second) << vuln.cve;
    EXPECT_FALSE(vuln.edits.empty()) << vuln.cve;
    EXPECT_FALSE(vuln.exploit_entry.empty()) << vuln.cve;
  }
}

TEST(CorpusTest, PaperCharacteristicCountsMatch) {
  int custom = 0;
  int custom_lines = 0;
  int public_exploits = 0;
  int assembly = 0;
  int declared_inline = 0;
  int signature = 0;
  int static_local = 0;
  int escalation = 0;
  int shadow = 0;
  for (const Vulnerability& vuln : Vulnerabilities()) {
    custom += vuln.needs_custom_code ? 1 : 0;
    custom_lines += vuln.custom_code_lines;
    public_exploits += vuln.public_exploit ? 1 : 0;
    assembly += vuln.touches_assembly ? 1 : 0;
    declared_inline += vuln.declared_inline ? 1 : 0;
    signature += vuln.changes_signature ? 1 : 0;
    static_local += vuln.has_static_local ? 1 : 0;
    escalation += vuln.vuln_class == VulnClass::kPrivilegeEscalation ? 1 : 0;
    shadow += vuln.adds_struct_field ? 1 : 0;
  }
  EXPECT_EQ(custom, 8);             // Table 1 rows
  EXPECT_EQ(custom_lines, 132);     // 34+10+1+1+14+4+20+48, mean ~17 (§6.3)
  EXPECT_EQ(public_exploits, 4);    // §6.3 exploit list
  EXPECT_EQ(assembly, 1);           // CVE-2007-4573
  EXPECT_EQ(declared_inline, 4);    // §6.3: "only 4 ... explicitly inline"
  EXPECT_EQ(signature + static_local, 9);  // §6.3's 8, measured here as 9
  EXPECT_EQ(shadow, 1);             // CVE-2005-2709
  // About two-thirds privilege escalation (§6.1).
  EXPECT_GE(escalation, 38);
  EXPECT_LE(escalation, 48);
}

TEST(CorpusTest, KernelBootsAndPassesStress) {
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ks::Status stress = RunStress(**machine, 2);
  EXPECT_TRUE(stress.ok()) << stress.ToString();
  EXPECT_TRUE((*machine)->Faults().empty());
}

// The cached release-0 image boots the same machine as BootKernel() and as
// linking a fresh uncached build of the pristine tree: after kernel_init,
// all of guest memory, the symbol table and the howto regions agree.
TEST(CorpusTest, BootKernelEqualsReleaseZeroBoot) {
  ks::Result<std::unique_ptr<kvm::Machine>> pristine = BootKernel();
  ASSERT_TRUE(pristine.ok()) << pristine.status().ToString();
  ks::Result<std::unique_ptr<kvm::Machine>> release0 = BootKernelVersion(0);
  ASSERT_TRUE(release0.ok()) << release0.status().ToString();
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(KernelSource(), RunBuildOptions());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ks::Result<std::unique_ptr<kvm::Machine>> relinked = kvm::Machine::Boot(
      std::move(objects).value(), (*pristine)->config());
  ASSERT_TRUE(relinked.ok()) << relinked.status().ToString();
  ks::Result<uint32_t> init = (*relinked)->GlobalSymbol("kernel_init");
  ASSERT_TRUE(init.ok()) << init.status().ToString();
  ASSERT_TRUE((*relinked)->CallFunction(*init, 0).ok());

  auto memory = [](const kvm::Machine& machine) {
    ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
        0x1000, machine.config().memory_bytes - 0x1000);
    EXPECT_TRUE(bytes.ok());
    return bytes.ok() ? *bytes : std::vector<uint8_t>();
  };
  auto symbols = [](const kvm::Machine& machine) {
    std::vector<std::tuple<std::string, uint32_t, std::string>> out;
    for (const kelf::LinkedSymbol& sym : machine.Kallsyms()) {
      out.emplace_back(sym.name, sym.address, sym.unit);
    }
    return out;
  };
  auto regions = [](const kvm::Machine& machine) {
    std::vector<std::tuple<std::string, uint32_t, uint32_t>> out;
    for (const kvm::HowtoRegion& region : machine.HowtoRegions()) {
      out.emplace_back(region.name, region.base, region.size);
    }
    return out;
  };
  const kvm::Machine& a = **pristine;
  for (const kvm::Machine* other : {release0->get(), relinked->get()}) {
    EXPECT_EQ(a.config().memory_bytes, other->config().memory_bytes);
    EXPECT_EQ(a.kernel_end(), other->kernel_end());
    EXPECT_TRUE(memory(a) == memory(*other));
    EXPECT_EQ(symbols(a), symbols(*other));
    EXPECT_EQ(regions(a), regions(*other));
    EXPECT_EQ(a.Records(), other->Records());
    EXPECT_EQ(a.Ticks(), other->Ticks());
  }
}

TEST(CorpusTest, SymbolCensusShowsAmbiguity) {
  ks::Result<SymbolCensus> census = CensusKernelSymbols();
  ASSERT_TRUE(census.ok()) << census.status().ToString();
  EXPECT_GT(census->total_symbols, 150);
  // debug/dst_state/mode/state collide across units (§6.3's 7.9%).
  EXPECT_GE(census->ambiguous_symbols, 8);
  EXPECT_GE(census->units_with_ambiguous, 6);
  EXPECT_LT(census->ambiguous_symbols, census->total_symbols / 4);
}

// kdiff::ApplyPatch applies each file section to the tree the earlier
// sections produced. Every corpus patch has one section per file, so its
// post tree must be exactly what applying each section on its own to the
// pristine tree gives.
TEST(CorpusTest, AmendedPatchPostTreesMatchPerSectionApply) {
  const kdiff::SourceTree& pre = KernelSource();
  for (const Vulnerability& vuln : Vulnerabilities()) {
    SCOPED_TRACE(vuln.cve);
    ks::Result<std::string> text = AmendedPatchFor(vuln);
    ASSERT_TRUE(text.ok()) << text.status().ToString();
    ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(*text);
    ASSERT_TRUE(patch.ok()) << patch.status().ToString();
    ASSERT_EQ(patch->TouchedPaths().size(), patch->files.size());
    ks::Result<kdiff::SourceTree> post = kdiff::ApplyPatch(pre, *patch);
    ASSERT_TRUE(post.ok()) << post.status().ToString();

    kdiff::SourceTree expected = pre;
    for (const kdiff::FilePatch& file : patch->files) {
      ks::Result<kdiff::SourceTree> alone =
          kdiff::ApplyPatch(pre, kdiff::Patch{{file}});
      ASSERT_TRUE(alone.ok()) << alone.status().ToString();
      if (alone->Exists(file.path)) {
        expected.Write(file.path, *alone->Read(file.path));
      } else {
        expected.Remove(file.path);
      }
    }
    EXPECT_TRUE(*post == expected);
  }
}

// Per-vulnerability self-check: the patch generates, applies to the source
// tree, and the exploit works on the unpatched kernel.
class VulnerabilityCheck : public ::testing::TestWithParam<int> {};

TEST_P(VulnerabilityCheck, PatchGeneratesAndExploitWorks) {
  const Vulnerability& vuln =
      Vulnerabilities()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(vuln.cve);

  ks::Result<std::string> patch = PatchFor(vuln);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  ks::Result<kdiff::SourceTree> post =
      kdiff::ApplyUnifiedDiff(KernelSource(), *patch);
  ASSERT_TRUE(post.ok()) << post.status().ToString();

  if (vuln.needs_custom_code) {
    ks::Result<std::string> amended = AmendedPatchFor(vuln);
    ASSERT_TRUE(amended.ok()) << amended.status().ToString();
  }

  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ks::Result<bool> exploited = RunExploit(**machine, vuln);
  ASSERT_TRUE(exploited.ok()) << exploited.status().ToString();
  EXPECT_TRUE(*exploited) << vuln.cve
                          << ": exploit must succeed on unpatched kernel";
  for (const std::string& fault : (*machine)->Faults()) {
    ADD_FAILURE() << vuln.cve << " fault: " << fault;
  }
}

INSTANTIATE_TEST_SUITE_P(All64, VulnerabilityCheck, ::testing::Range(0, 64));

// Full evaluation for the four CVEs with public exploit code (§6.3) and
// the eight Table-1 custom-code entries.
class FullEvaluation : public ::testing::TestWithParam<const char*> {};

TEST_P(FullEvaluation, Succeeds) {
  const Vulnerability* vuln = nullptr;
  for (const Vulnerability& candidate : Vulnerabilities()) {
    if (candidate.cve == GetParam()) {
      vuln = &candidate;
    }
  }
  ASSERT_NE(vuln, nullptr);
  EvalOptions options;
  options.run_undo_check = true;
  ks::Result<EvalOutcome> outcome = Evaluate(*vuln, options);
  ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
  EXPECT_TRUE(outcome->exploit_before) << vuln->cve;
  EXPECT_TRUE(outcome->create_ok) << vuln->cve;
  EXPECT_TRUE(outcome->apply_ok) << vuln->cve;
  EXPECT_FALSE(outcome->exploit_after)
      << vuln->cve << ": exploit must stop working after the update";
  EXPECT_TRUE(outcome->stress_ok) << vuln->cve;
  EXPECT_TRUE(outcome->undo_ok) << vuln->cve;
  EXPECT_EQ(outcome->needed_custom_code, vuln->needs_custom_code)
      << vuln->cve;
  EXPECT_TRUE(outcome->Success());
}

INSTANTIATE_TEST_SUITE_P(
    PublicExploitsAndTable1, FullEvaluation,
    ::testing::Values("CVE-2006-2451", "CVE-2006-3626", "CVE-2007-4573",
                      "CVE-2008-0600",  // the four with public exploits
                      "CVE-2008-0007", "CVE-2007-4571", "CVE-2007-3851",
                      "CVE-2006-5753", "CVE-2006-2071", "CVE-2006-1056",
                      "CVE-2005-3179", "CVE-2005-2709"));  // Table 1

// The complete §6 evaluation over all 64 entries, asserting the paper's
// headline numbers exactly (56 with no new code, 8 custom, 64/64 success).
TEST(CorpusSweep, AllSixtyFourSucceedWithPaperSplit) {
  int success = 0;
  int no_new_code = 0;
  int custom = 0;
  for (const Vulnerability& vuln : Vulnerabilities()) {
    EvalOptions options;
    options.stress_rounds = 1;
    ks::Result<EvalOutcome> outcome = Evaluate(vuln, options);
    ASSERT_TRUE(outcome.ok()) << vuln.cve << ": "
                              << outcome.status().ToString();
    EXPECT_TRUE(outcome->Success()) << vuln.cve;
    EXPECT_TRUE(outcome->exploit_before) << vuln.cve;
    EXPECT_FALSE(outcome->exploit_after) << vuln.cve;
    if (outcome->Success()) {
      ++success;
    }
    if (outcome->apply_ok && !outcome->needed_custom_code) {
      ++no_new_code;
    }
    if (outcome->needed_custom_code) {
      ++custom;
    }
  }
  EXPECT_EQ(success, 64);
  EXPECT_EQ(no_new_code, 56);  // the paper's 56-of-64
  EXPECT_EQ(custom, 8);        // Table 1
}

// §5.4 at corpus scale: three CVEs patching the same compilation unit
// (fs/coredump.kc) applied in sequence, each created against the
// previously-patched source, then unwound LIFO.
TEST(CorpusStacking, ThreeUpdatesInOneUnit) {
  const char* sequence[] = {"CVE-2005-1263", "CVE-2007-0958",
                            "CVE-2007-6206"};
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ksplice::KspliceCore core(machine->get());

  kdiff::SourceTree current = KernelSource();
  for (const char* cve : sequence) {
    const Vulnerability* vuln = nullptr;
    for (const Vulnerability& candidate : Vulnerabilities()) {
      if (candidate.cve == cve) {
        vuln = &candidate;
      }
    }
    ASSERT_NE(vuln, nullptr);
    ks::Result<bool> before = RunExploit(**machine, *vuln);
    ASSERT_TRUE(before.ok()) << before.status().ToString();
    EXPECT_TRUE(*before) << cve;

    // Port the fix onto the previously-patched source.
    kdiff::SourceTree next = current;
    for (const Edit& edit : vuln->edits) {
      std::string contents = *next.Read(edit.path);
      size_t at = contents.find(edit.from);
      ASSERT_NE(at, std::string::npos) << cve << " " << edit.path;
      contents.replace(at, edit.from.size(), edit.to);
      next.Write(edit.path, contents);
    }
    std::string patch = kdiff::MakeUnifiedDiff(current, next);

    ksplice::CreateOptions options;
    options.compile = RunBuildOptions();
    options.id = cve;
    ks::Result<ksplice::CreateResult> created =
        ksplice::CreateUpdate(current, patch, options);
    ASSERT_TRUE(created.ok()) << cve << ": "
                              << created.status().ToString();
    ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
    ASSERT_TRUE(applied.ok()) << cve << ": "
                              << applied.status().ToString();
    ks::Result<bool> after = RunExploit(**machine, *vuln);
    ASSERT_TRUE(after.ok());
    EXPECT_FALSE(*after) << cve;
    current = next;
  }
  EXPECT_EQ(core.applied().size(), 3u);
  // All three fixes active simultaneously.
  for (const char* cve : sequence) {
    const Vulnerability* vuln = nullptr;
    for (const Vulnerability& candidate : Vulnerabilities()) {
      if (candidate.cve == cve) {
        vuln = &candidate;
      }
    }
    ks::Result<bool> exploited = RunExploit(**machine, *vuln);
    ASSERT_TRUE(exploited.ok());
    EXPECT_FALSE(*exploited) << cve << " after full stack";
  }
  // Unwind LIFO; the earliest vulnerability reappears at the end.
  ASSERT_TRUE(core.Undo("CVE-2007-6206").ok());
  ASSERT_TRUE(core.Undo("CVE-2007-0958").ok());
  ASSERT_TRUE(core.Undo("CVE-2005-1263").ok());
  const Vulnerability* first = nullptr;
  for (const Vulnerability& candidate : Vulnerabilities()) {
    if (candidate.cve == std::string("CVE-2005-1263")) {
      first = &candidate;
    }
  }
  ks::Result<bool> reopened = RunExploit(**machine, *first);
  ASSERT_TRUE(reopened.ok());
  EXPECT_TRUE(*reopened) << "undo restored the original vulnerable code";
  ks::Status stress = RunStress(**machine, 1);
  EXPECT_TRUE(stress.ok()) << stress.ToString();
}

// Safety sweep (§4.2): corrupt one byte of each target function in the
// run image; apply must abort for every corpus entry — never splice over
// code that does not match the pre objects.
class TamperSweep : public ::testing::TestWithParam<int> {};

TEST_P(TamperSweep, CorruptedRunCodeAbortsApply) {
  const Vulnerability& vuln =
      Vulnerabilities()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(vuln.cve);
  ks::Result<std::string> patch =
      vuln.needs_custom_code ? AmendedPatchFor(vuln) : PatchFor(vuln);
  ASSERT_TRUE(patch.ok());
  ksplice::CreateOptions options;
  options.compile = RunBuildOptions();
  options.id = vuln.cve;
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(KernelSource(), *patch, options);
  if (!created.ok() || created->package.targets.empty()) {
    GTEST_SKIP() << "no splice targets (hook-only update)";
  }
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok());

  // Corrupt a byte in the middle of the first target's run code.
  const ksplice::Target& target = created->package.targets[0];
  uint32_t addr = 0;
  for (const kelf::LinkedSymbol& sym :
       (*machine)->SymbolsNamed(target.symbol)) {
    if (sym.unit == target.unit) {
      addr = sym.address;
    }
  }
  ASSERT_NE(addr, 0u) << target.symbol;
  uint32_t mid = addr + 7 + static_cast<uint32_t>(GetParam() % 5);
  ASSERT_TRUE((*machine)
                  ->WriteByte(mid, static_cast<uint8_t>(
                                       *(*machine)->ReadByte(mid) ^ 0x3c))
                  .ok());

  ksplice::KspliceCore core(machine->get());
  ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
  ASSERT_FALSE(applied.ok()) << vuln.cve;
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kAborted);
  EXPECT_TRUE(core.applied().empty());
}

// The bytes run-pre does not compare are still verified: corrupt one byte
// inside the first relocation field of the first target's section, where
// matching recovers a symbol value instead of comparing bytes. A leaf
// target has no relocation, so the first target section that has one is
// taken, else the first helper text section that has one; a package whose
// helper code has none skips. Apply must abort and leave the registry
// empty and the kernel image byte-identical.
TEST_P(TamperSweep, CorruptedRelocationFieldAbortsApply) {
  const Vulnerability& vuln =
      Vulnerabilities()[static_cast<size_t>(GetParam())];
  SCOPED_TRACE(vuln.cve);
  ks::Result<std::string> patch =
      vuln.needs_custom_code ? AmendedPatchFor(vuln) : PatchFor(vuln);
  ASSERT_TRUE(patch.ok());
  ksplice::CreateOptions options;
  options.compile = RunBuildOptions();
  options.id = vuln.cve;
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(KernelSource(), *patch, options);
  if (!created.ok() || created->package.targets.empty()) {
    GTEST_SKIP() << "no splice targets (hook-only update)";
  }
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok());

  // Candidate sections in order of preference, with their unit and
  // defining symbol.
  struct Site {
    std::string unit;
    std::string symbol;
    const kelf::Section* section;
  };
  std::vector<Site> sites;
  for (const ksplice::Target& target : created->package.targets) {
    for (const kelf::ObjectFile& helper : created->package.helper_objects) {
      const kelf::Section* section = helper.SectionByName(target.section);
      if (helper.source_name() == target.unit && section != nullptr) {
        sites.push_back({target.unit, target.symbol, section});
      }
    }
  }
  for (const kelf::ObjectFile& helper : created->package.helper_objects) {
    for (size_t i = 0; i < helper.sections().size(); ++i) {
      std::optional<int> def =
          helper.DefiningSymbolForSection(static_cast<int>(i));
      if (helper.sections()[i].kind == kelf::SectionKind::kText &&
          def.has_value()) {
        sites.push_back({helper.source_name(),
                         helper.symbols()[static_cast<size_t>(*def)].name,
                         &helper.sections()[i]});
      }
    }
  }
  auto site = std::find_if(sites.begin(), sites.end(), [](const Site& s) {
    return !s.section->relocs.empty();
  });
  if (site == sites.end()) {
    GTEST_SKIP() << "no relocation field in the helper code";
  }
  const kelf::Section* section = site->section;
  uint32_t field = section->relocs[0].offset;
  for (const kelf::Relocation& rel : section->relocs) {
    field = std::min(field, rel.offset);
  }
  uint32_t addr = 0;
  for (const kelf::LinkedSymbol& sym :
       (*machine)->SymbolsNamed(site->symbol)) {
    if (sym.unit == site->unit) {
      addr = sym.address;
    }
  }
  ASSERT_NE(addr, 0u) << site->symbol;
  // The run code before the field is the pre code, so the field sits at
  // the same offset in both.
  ks::Result<std::vector<uint8_t>> before = (*machine)->ReadBytes(addr, field);
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(std::equal(before->begin(), before->end(),
                         section->bytes.begin()));
  uint32_t corrupt = addr + field + static_cast<uint32_t>(GetParam() % 4);
  ASSERT_TRUE((*machine)
                  ->WriteByte(corrupt, static_cast<uint8_t>(
                                           *(*machine)->ReadByte(corrupt) ^
                                           0x3c))
                  .ok());
  const uint32_t base = (*machine)->config().kernel_base;
  const uint32_t image_bytes = (*machine)->kernel_end() - base;
  ks::Result<std::vector<uint8_t>> image =
      (*machine)->ReadBytes(base, image_bytes);
  ASSERT_TRUE(image.ok());

  ksplice::KspliceCore core(machine->get());
  ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
  ASSERT_FALSE(applied.ok()) << vuln.cve;
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kAborted);
  EXPECT_TRUE(core.applied().empty());
  ks::Result<std::vector<uint8_t>> after =
      (*machine)->ReadBytes(base, image_bytes);
  ASSERT_TRUE(after.ok());
  EXPECT_TRUE(*after == *image) << "apply changed the kernel image";
}

INSTANTIATE_TEST_SUITE_P(All64, TamperSweep, ::testing::Range(0, 64));

// The slot matcher (each symbol interned into a plan slot and looked up
// once per match) against the linear oracle (the walk-only plan of
// runpre_oracle.h), on every helper unit of every corpus package and every
// release: same decision, same symbol_values and sections, and the same
// refusal text. Releases 1-4 each edit one unit, so units built from the
// pristine tree are refused as stale on the release that edits them.
TEST(CorpusRunPre, SlotMatcherAgreesWithLinearOracle) {
  std::vector<std::unique_ptr<kvm::Machine>> releases;
  for (size_t i = 0; i < KernelVersions().size(); ++i) {
    ks::Result<std::unique_ptr<kvm::Machine>> machine =
        BootKernelVersion(i, 4u << 20);
    ASSERT_TRUE(machine.ok()) << machine.status().ToString();
    releases.push_back(std::move(machine).value());
  }
  auto sections = [](const ksplice::UnitMatch& match) {
    std::vector<std::tuple<std::string, std::string, std::string, uint32_t,
                           uint32_t>>
        flat;
    for (const auto& [key, section] : match.sections) {
      flat.emplace_back(key, section.name, section.symbol,
                        section.run_address, section.run_size);
    }
    return flat;
  };
  size_t matched = 0;
  size_t refused = 0;
  for (const Vulnerability& vuln : Vulnerabilities()) {
    SCOPED_TRACE(vuln.cve);
    ks::Result<std::string> patch =
        vuln.needs_custom_code ? AmendedPatchFor(vuln) : PatchFor(vuln);
    ASSERT_TRUE(patch.ok());
    ksplice::CreateOptions options;
    options.compile = RunBuildOptions();
    options.id = vuln.cve;
    ks::Result<ksplice::CreateResult> created =
        ksplice::CreateUpdate(KernelSource(), *patch, options);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    for (size_t release = 0; release < releases.size(); ++release) {
      SCOPED_TRACE("release " + std::to_string(release));
      ksplice::RunPreMatcher slots(*releases[release]);
      for (const kelf::ObjectFile& unit : created->package.helper_objects) {
        ksplice::MatchStats got_stats;
        ksplice::MatchStats want_stats;
        ks::Result<ksplice::UnitMatch> got = slots.MatchUnit(unit, &got_stats);
        ks::Result<ksplice::UnitMatch> want =
            ksplice::MatchWalkOnly(slots, unit, &want_stats);
        ASSERT_EQ(got.ok(), want.ok()) << unit.source_name();
        EXPECT_EQ(got_stats.candidates_tried, want_stats.candidates_tried);
        if (!got.ok()) {
          EXPECT_EQ(got.status().ToString(), want.status().ToString());
          ++refused;
          continue;
        }
        EXPECT_EQ(got->symbol_values, want->symbol_values);
        EXPECT_EQ(sections(*got), sections(*want));
        ++matched;
      }
    }
  }
  EXPECT_GT(matched, 0u);
  EXPECT_GT(refused, 0u);
}

// Howto acceptance (§4.3 special sections): CVE-2005-4605's fix deletes
// the secret_peek branch ahead of proc_read_mem's faulting load, so the
// function's exception-table entry moves — the pre and run tables differ
// byte-wise but agree structurally under relocation. The entry-structural
// matcher must still match, the update must apply, and a post-apply wild
// kcore read must recover through the *patched* module's fixup.
TEST(CorpusExtable, PatchedFixupRecoversWildRead) {
  const Vulnerability* vuln = nullptr;
  for (const Vulnerability& candidate : Vulnerabilities()) {
    if (candidate.cve == std::string("CVE-2005-4605")) {
      vuln = &candidate;
    }
  }
  ASSERT_NE(vuln, nullptr);
  ks::Result<std::unique_ptr<kvm::Machine>> machine = BootKernel();
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();

  uint32_t read_mem = 0;
  for (const kelf::LinkedSymbol& sym :
       (*machine)->SymbolsNamed("proc_read_mem")) {
    read_mem = sym.address;
  }
  ASSERT_NE(read_mem, 0u);
  // 0x20000000 is far beyond the 24MB image: the load faults and the
  // kernel's boot-registered exception table substitutes the -1 fallback.
  const uint32_t kWild = 536870912;
  uint64_t fixups0 = (*machine)->ExtableFixups();
  ks::Result<uint32_t> pre_read = (*machine)->CallFunction(read_mem, kWild);
  ASSERT_TRUE(pre_read.ok()) << pre_read.status().ToString();
  EXPECT_EQ(*pre_read, 0xffffffffu);
  EXPECT_EQ((*machine)->ExtableFixups(), fixups0 + 1);

  ks::Result<bool> before = RunExploit(**machine, *vuln);
  ASSERT_TRUE(before.ok());
  EXPECT_TRUE(*before) << "offset -1 must leak the secret pre-update";

  ks::Result<std::string> patch = PatchFor(*vuln);
  ASSERT_TRUE(patch.ok());
  ksplice::CreateOptions options;
  options.compile = RunBuildOptions();
  options.id = vuln->cve;
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(KernelSource(), *patch, options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ksplice::KspliceCore core(machine->get());
  ks::Result<ksplice::ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // The patched primary module registered its own exception table.
  bool module_extable = false;
  for (const kvm::HowtoRegion& region : (*machine)->HowtoRegions()) {
    if (region.howto == kelf::Howto::kExtable && region.module_id != -1) {
      module_extable = true;
    }
  }
  EXPECT_TRUE(module_extable);

  ks::Result<bool> after = RunExploit(**machine, *vuln);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(*after) << "negative offsets must be rejected post-update";

  // The wild read now runs the spliced module text; its fault resolves
  // through the module's (patched) table, not a stale kernel entry.
  uint64_t fixups1 = (*machine)->ExtableFixups();
  ks::Result<uint32_t> post_read = (*machine)->CallFunction(read_mem, kWild);
  ASSERT_TRUE(post_read.ok()) << post_read.status().ToString();
  EXPECT_EQ(*post_read, 0xffffffffu);
  EXPECT_GT((*machine)->ExtableFixups(), fixups1);
  EXPECT_TRUE((*machine)->Faults().empty());
  ks::Status stress = RunStress(**machine, 1);
  EXPECT_TRUE(stress.ok()) << stress.ToString();
}

// Invariant run-pre matching depends on: every text section of every
// corpus unit, in both build modes, decodes as a clean instruction stream
// (lengths tile the section exactly; pc-relative targets stay inside it
// or at its end for monolithic cross-function jumps).
TEST(CorpusInvariants, AllTextSectionsDecodeCleanly) {
  for (bool sections : {false, true}) {
    kcc::CompileOptions options = RunBuildOptions();
    options.function_sections = sections;
    options.data_sections = sections;
    ks::Result<std::vector<kelf::ObjectFile>> objects =
        kcc::BuildTree(KernelSource(), options);
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    for (const kelf::ObjectFile& obj : *objects) {
      for (const kelf::Section& section : obj.sections()) {
        if (section.kind != kelf::SectionKind::kText) {
          continue;
        }
        size_t pos = 0;
        while (pos < section.bytes.size()) {
          ks::Result<kvx::Insn> insn = kvx::Decode(
              std::span<const uint8_t>(section.bytes).subspan(pos));
          ASSERT_TRUE(insn.ok())
              << obj.source_name() << " " << section.name << " at " << pos
              << ": " << insn.status().ToString();
          pos += insn->len;
        }
        EXPECT_EQ(pos, section.bytes.size())
            << obj.source_name() << " " << section.name;
      }
    }
  }
}


// The lint output over the whole corpus is a user-facing surface (`lint
// --json`, the .report.json sidecar): it must not move while the packages
// it describes do not. FNV-64 of every created package's
// LintReport::ToJson(), concatenated in corpus order (each fix, then the
// amended fix of each Table-1 entry), plus the patches CreateUpdate
// refuses outright.
TEST(FormatPin, CorpusLintReportsAreStable) {
  std::string reports;
  std::vector<std::string> refused;
  auto lint = [&](const std::string& id, ks::Result<std::string> patch) {
    ASSERT_TRUE(patch.ok()) << id << ": " << patch.status().ToString();
    ksplice::CreateOptions options;
    options.compile = RunBuildOptions();
    options.id = id;
    options.lint = ksplice::LintMode::kWarn;
    ks::Result<ksplice::CreateResult> created =
        ksplice::CreateUpdate(KernelSource(), *patch, options);
    if (!created.ok()) {
      refused.push_back(id);
      return;
    }
    reports += created->report.lint.ToJson();
  };
  for (const Vulnerability& vuln : Vulnerabilities()) {
    lint(vuln.cve, PatchFor(vuln));
    if (vuln.needs_custom_code) {
      lint(vuln.cve + "-amended", AmendedPatchFor(vuln));
    }
  }
  EXPECT_EQ(refused, (std::vector<std::string>{
                         "CVE-2007-3851", "CVE-2007-4571", "CVE-2006-2071",
                         "CVE-2006-5753", "CVE-2005-2709"}));
  EXPECT_EQ(ks::Fnv1a64(reports), 0x5f619abb6e9ff448ull)
      << reports.size() << " bytes";
}

}  // namespace
}  // namespace corpus
