// Focused tests for run-pre matching (§4): relocation-algebra recovery,
// no-op skipping, rel8/rel32 branch-form tolerance with byte skew,
// ambiguity resolution and its failure modes, and tamper detection.

#include <gtest/gtest.h>

#include <optional>

#include "base/strings.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"
#include "kvx/asm.h"
#include "kvx/isa.h"
#include "runpre_oracle.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

// Boots a machine from `tree` built monolithically and returns it plus the
// section-mode pre object for `unit`.
struct MatchSetup {
  std::unique_ptr<kvm::Machine> machine;
  kelf::ObjectFile pre;
};

MatchSetup MakeSetup(const SourceTree& tree, const std::string& unit,
                int inline_threshold = 24) {
  MatchSetup setup;
  kcc::CompileOptions run_options;
  run_options.inline_threshold = inline_threshold;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  if (!objects.ok()) {
    return setup;
  }
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  if (!machine.ok()) {
    return setup;
  }
  setup.machine = std::move(machine).value();

  kcc::CompileOptions pre_options = run_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, unit, pre_options);
  EXPECT_TRUE(pre.ok()) << pre.status().ToString();
  if (pre.ok()) {
    setup.pre = std::move(pre).value();
  }
  return setup;
}

TEST(RunPreTest, MatchesOwnBuildAndRecoversSymbols) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int counter = 5;
static int hidden = 9;
int touch(int d) {
  counter = counter + d;
  hidden = hidden + 1;
  return counter + hidden;
}
int reader() {
  return counter;
}
)");
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();

  // Recovered values agree with kallsyms for every named symbol.
  for (const char* name : {"counter", "hidden", "touch", "reader"}) {
    auto it = match->symbol_values.find(name);
    ASSERT_NE(it, match->symbol_values.end()) << name;
    std::vector<kelf::LinkedSymbol> syms =
        setup.machine->SymbolsNamed(name);
    ASSERT_EQ(syms.size(), 1u) << name;
    EXPECT_EQ(it->second, syms[0].address) << name;
  }
  // Matched sections carry plausible run spans.
  ASSERT_TRUE(match->sections.count(".text.touch"));
  EXPECT_GE(match->sections[".text.touch"].run_size, 5u);
}

TEST(RunPreTest, AbortsWhenRunCodeWasTampered) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int value = 3;
int get_value() {
  return value + 1;
}
)");
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);

  // Corrupt one byte inside get_value in the run image (a rootkit, a
  // different compiler, or wrong source — all look the same, §4.2).
  std::vector<kelf::LinkedSymbol> syms =
      setup.machine->SymbolsNamed("get_value");
  ASSERT_EQ(syms.size(), 1u);
  uint32_t mid = syms[0].address + 6;
  ASSERT_TRUE(setup.machine
                  ->WriteByte(mid, static_cast<uint8_t>(
                                       *setup.machine->ReadByte(mid) ^ 0x11))
                  .ok());

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_FALSE(match.ok());
  EXPECT_EQ(match.status().code(), ks::ErrorCode::kAborted);
  EXPECT_NE(match.status().message().find("run-pre"), std::string::npos);
}

TEST(RunPreTest, RelocationAlgebraIsExactInverse) {
  // Property: for any symbol address S, addend A, and site P, the matcher
  // recovers S from the stored word. Exercised end-to-end by matching a
  // unit with varied addends (array element references).
  SourceTree tree;
  tree.Write("m.kc", R"(
int table[8];
int pick(int which) {
  if (which == 0) {
    return table[2];
  }
  if (which == 1) {
    return table[5];
  }
  return table[7];
}
)");
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->symbol_values["table"],
            setup.machine->SymbolsNamed("table")[0].address);
}

TEST(RunPreTest, ToleratesBranchFormSkewInAssembly) {
  // A hand-written unit with a cross-function jump: monolithic run build
  // resolves it as rel8; the sectioned pre build must use jmp32+reloc.
  // Every instruction after the jump is skewed by 3 bytes — the §4.3
  // "different relative jump offsets" case.
  SourceTree tree;
  tree.Write("e.kvs", R"(
.text
.global fastpath
fastpath:
    push fp
    mov fp, sp
    cmp r0, 0
    jnz .fast
    mov sp, fp
    pop fp
    jmp slowpath      ; tail jump: rel8 in run, rel32+reloc in pre
.fast:
    mov r0, 1
    mov sp, fp
    pop fp
    ret
.global slowpath
slowpath:
    push fp
    mov fp, sp
    mov r0, 2
    mov sp, fp
    pop fp
    ret
)");
  MatchSetup setup = MakeSetup(tree, "e.kvs");
  ASSERT_NE(setup.machine, nullptr);

  // Sanity: the run image's jz must be the short form, the pre's long.
  const kelf::Section* pre_sec = setup.pre.SectionByName(".text.fastpath");
  ASSERT_NE(pre_sec, nullptr);
  ASSERT_FALSE(pre_sec->relocs.empty());

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->symbol_values["slowpath"],
            setup.machine->SymbolsNamed("slowpath")[0].address);
}

TEST(RunPreTest, ResolvesAmbiguousSectionByContent) {
  // Two units define static `pick` with different bodies; matching one
  // unit's pre object must bind to the right copy by byte comparison.
  SourceTree tree;
  tree.Write("a.kc", R"(
static int pick(int x) {
  return x * 3 + 1;
}
int entry_a(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  tree.Write("b.kc", R"(
static int pick(int x) {
  return x * 5 + 2;
}
int entry_b(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  MatchSetup setup = MakeSetup(tree, "b.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);
  ASSERT_EQ(setup.machine->SymbolsNamed("pick").size(), 2u);

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  // The recovered `pick` must be b.kc's copy.
  uint32_t recovered = match->symbol_values["pick"];
  bool bound_to_b = false;
  for (const kelf::LinkedSymbol& sym : setup.machine->SymbolsNamed("pick")) {
    if (sym.address == recovered && sym.unit == "b.kc") {
      bound_to_b = true;
    }
  }
  EXPECT_TRUE(bound_to_b);
}

TEST(RunPreTest, AbortsOnIrreducibleAmbiguity) {
  // Two byte-identical static functions that nothing disambiguates: the
  // fixpoint cannot converge, and the matcher must refuse rather than
  // guess (§4.3 safety).
  SourceTree tree;
  tree.Write("a.kc", R"(
static int clone_fn(int x) {
  return x + 7;
}
int entry_a(int x) {
  return clone_fn(x) + clone_fn(x + 1) + clone_fn(x + 2) + clone_fn(x + 3)
       + clone_fn(x + 4) + clone_fn(x + 5);
}
)");
  tree.Write("b.kc", R"(
static int clone_fn(int x) {
  return x + 7;
}
int entry_b(int x) {
  return clone_fn(x) + clone_fn(x + 1) + clone_fn(x + 2) + clone_fn(x + 3)
       + clone_fn(x + 4) + clone_fn(x + 5);
}
)");
  MatchSetup setup = MakeSetup(tree, "a.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  // clone_fn matches both candidates and entry_a pins it (entry_a's call
  // reloc recovers a specific address)... unless entry_a itself resolves
  // first. Either a successful, *consistent* resolution or an explicit
  // ambiguity abort is acceptable; silently wrong binding is not.
  if (match.ok()) {
    uint32_t recovered = match->symbol_values["clone_fn"];
    bool bound_to_a = false;
    for (const kelf::LinkedSymbol& sym :
         setup.machine->SymbolsNamed("clone_fn")) {
      if (sym.address == recovered && sym.unit == "a.kc") {
        bound_to_a = true;
      }
    }
    EXPECT_TRUE(bound_to_a)
        << "resolution must bind a.kc's copy via entry_a's relocation";
  } else {
    EXPECT_EQ(match.status().code(), ks::ErrorCode::kAborted);
  }
}

TEST(RunPreTest, MissingCandidateGivesActionableError) {
  SourceTree run_tree;
  run_tree.Write("m.kc", "int real_fn(int x) { return x; }\n");
  SourceTree wrong_tree;
  wrong_tree.Write("m.kc", "int ghost_fn(int x) { return x; }\n");

  MatchSetup setup = MakeSetup(run_tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  kcc::CompileOptions pre_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> wrong_pre =
      kcc::CompileUnit(wrong_tree, "m.kc", pre_options);
  ASSERT_TRUE(wrong_pre.ok());

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(*wrong_pre);
  ASSERT_FALSE(match.ok());
  EXPECT_NE(match.status().message().find("ghost_fn"), std::string::npos);
  EXPECT_NE(match.status().message().find("correspond"), std::string::npos);
}

TEST(RunPreTest, RedirectMatchesReplacementCode) {
  // Stacking support (§5.4): with a redirect in place, matching happens
  // against the redirected address, not the kallsyms one.
  SourceTree tree;
  tree.Write("m.kc", R"(
int current = 1;
int api(int x) {
  current = current + x;
  return current;
}
)");
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);

  // Copy api's run bytes elsewhere (a fake "previous replacement") and
  // corrupt the original so only the redirect target matches.
  std::vector<kelf::LinkedSymbol> syms = setup.machine->SymbolsNamed("api");
  ASSERT_EQ(syms.size(), 1u);
  uint32_t orig = syms[0].address;
  uint32_t size = syms[0].size;
  ks::Result<std::vector<uint8_t>> bytes =
      setup.machine->ReadBytes(orig, size);
  ASSERT_TRUE(bytes.ok());
  ks::Result<kvm::ModuleHandle> blob =
      setup.machine->LoadBlob("fake-repl", size + 16);
  ASSERT_TRUE(blob.ok());
  ks::Result<kvm::ModuleInfo> info = setup.machine->GetModuleInfo(*blob);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(setup.machine->WriteBytes(info->base, *bytes).ok());
  ASSERT_TRUE(setup.machine->WriteByte(orig + 6, 0xee).ok());  // corrupt

  uint32_t repl = info->base;
  RunPreMatcher matcher(
      *setup.machine,
      [&](const std::string& unit, const std::string& symbol)
          -> std::optional<std::pair<uint32_t, uint32_t>> {
        if (unit == "m.kc" && symbol == "api") {
          return std::make_pair(repl, size);
        }
        return std::nullopt;
      });
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->sections[".text.api"].run_address, repl);
}

TEST(RunPreTest, ExtraneousPrePostStyleDifferencesStillAbortRunPre) {
  // §3.2's asymmetry: pre/post differences are harmless, but run/pre
  // differences abort. Build the pre from a semantically-identical but
  // textually different source: object bytes differ => abort.
  SourceTree run_tree;
  run_tree.Write("m.kc", R"(
int f(int x) {
  int y = x + 1;
  return y;
}
)");
  SourceTree variant;
  variant.Write("m.kc", R"(
int f(int x) {
  return x + 1;
}
)");
  MatchSetup setup = MakeSetup(run_tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  kcc::CompileOptions pre_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> variant_pre =
      kcc::CompileUnit(variant, "m.kc", pre_options);
  ASSERT_TRUE(variant_pre.ok());
  RunPreMatcher matcher(*setup.machine);
  EXPECT_FALSE(matcher.MatchUnit(*variant_pre).ok());
}

TEST(RunPreTest, AlignmentAbsorbsSkewAndBranchTargetsNormalize) {
  // The hardest §4.3 case: a cross-function branch earlier in the function
  // is rel8 in the run build but rel32+reloc in the pre build (3 bytes of
  // skew), and an intra-function .align between the branch and a loop head
  // absorbs the skew with different amounts of no-op padding. The internal
  // back-branch to the aligned label then has *different displacements and
  // different padding* on each side, so target correspondence must
  // normalize across the no-ops.
  SourceTree tree;
  tree.Write("skew.kvs", R"(
.text
.global skew_fn
skew_fn:
    push fp
    mov fp, sp
    cmp r0, 0
    jnz .go_loop
    mov sp, fp
    pop fp
    jmp bail_out      ; cross-function: rel8 in run, rel32+reloc in pre
.go_loop:
    mov r1, 3
.align 8
.loop:
    sub r1, 1
    jnz .loop
    mov r0, 1
    mov sp, fp
    pop fp
    ret
.global bail_out
bail_out:
    push fp
    mov fp, sp
    mov r0, 2
    mov sp, fp
    pop fp
    ret
)");
  MatchSetup setup = MakeSetup(tree, "skew.kvs");
  ASSERT_NE(setup.machine, nullptr);

  // Confirm the constructed skew is real: pre uses jz32 (reloc), run jz8.
  const kelf::Section* pre_sec = setup.pre.SectionByName(".text.skew_fn");
  ASSERT_NE(pre_sec, nullptr);
  bool pre_has_pcrel = false;
  for (const kelf::Relocation& rel : pre_sec->relocs) {
    if (rel.type == kelf::RelocType::kPcrel32) {
      pre_has_pcrel = true;
    }
  }
  ASSERT_TRUE(pre_has_pcrel);

  RunPreMatcher matcher(*setup.machine);
  ks::Result<UnitMatch> match = matcher.MatchUnit(setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->symbol_values["bail_out"],
            setup.machine->SymbolsNamed("bail_out")[0].address);

  // And the function still runs correctly (sanity that the construction
  // is executable, not just matchable). r0 is zero at thread start, so a
  // direct call takes the bail path.
  ks::Result<uint32_t> r0 = setup.machine->CallFunction(
      setup.machine->SymbolsNamed("skew_fn")[0].address, 0);
  ASSERT_TRUE(r0.ok()) << r0.status().ToString();
  EXPECT_EQ(*r0, 2u);
}

// ------------------------------------------------------------------
// The byte path: a byte-comparable section whose run bytes equal its pre
// bytes outside the relocation fields is verified without the decode
// walk. Every case checks the production matcher against the linear
// oracle, which always walks.

// Matches `pre` both ways and expects the same decision, valuation,
// sections and refusal text. Returns the production result.
ks::Result<UnitMatch> MatchAgreesWithOracle(const kvm::Machine& machine,
                                            const kelf::ObjectFile& pre) {
  RunPreMatcher matcher(machine);
  ks::Result<UnitMatch> got = matcher.MatchUnit(pre);
  ks::Result<UnitMatch> want = MatchWalkOnly(matcher, pre);
  EXPECT_EQ(got.ok(), want.ok());
  if (got.ok() && want.ok()) {
    EXPECT_EQ(got->symbol_values, want->symbol_values);
    EXPECT_EQ(got->sections.size(), want->sections.size());
    for (const auto& [name, section] : got->sections) {
      auto it = want->sections.find(name);
      if (it == want->sections.end()) {
        ADD_FAILURE() << "the oracle matched no " << name;
        continue;
      }
      EXPECT_EQ(section.symbol, it->second.symbol) << name;
      EXPECT_EQ(section.run_address, it->second.run_address) << name;
      EXPECT_EQ(section.run_size, it->second.run_size) << name;
    }
  } else if (!got.ok() && !want.ok()) {
    EXPECT_EQ(got.status().ToString(), want.status().ToString());
  }
  return got;
}

// The plan of `pre`'s section `name`.
PlannedSection PlannedByName(const kelf::ObjectFile& pre,
                             const std::string& name) {
  ks::Result<MatchPlan> plan = MatchPlan::Build(pre);
  EXPECT_TRUE(plan.ok()) << plan.status().ToString();
  if (plan.ok()) {
    for (const PlannedSection& section : plan->sections) {
      if (section.section->name == name) {
        return section;
      }
    }
  }
  ADD_FAILURE() << "no planned section " << name;
  return PlannedSection{};
}

uint32_t AddressOf(const kvm::Machine& machine, const std::string& name) {
  std::vector<kelf::LinkedSymbol> syms = machine.SymbolsNamed(name);
  EXPECT_EQ(syms.size(), 1u) << name;
  return syms.empty() ? 0 : syms[0].address;
}

void FlipByte(kvm::Machine& machine, uint32_t addr, uint8_t mask) {
  ks::Result<uint8_t> byte = machine.ReadByte(addr);
  ASSERT_TRUE(byte.ok());
  ASSERT_TRUE(
      machine.WriteByte(addr, static_cast<uint8_t>(*byte ^ mask)).ok());
}

// A unit with absolute and pc-relative relocations, an unrelocated imm32
// and an internal branch.
constexpr char kByteUnit[] = R"(
int counter = 5;
int bump(int d) {
  counter = counter + d;
  return counter;
}
int scaled(int x) {
  int total = 0;
  while (x > 0) {
    total = total + bump(x) + 100000;
    x = x - 1;
  }
  return total;
}
)";

TEST(RunPreBytePath, IdenticalRunBytesMatchWithoutTheWalk) {
  SourceTree tree;
  tree.Write("m.kc", kByteUnit);
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  for (const char* name : {".text.bump", ".text.scaled"}) {
    PlannedSection planned = PlannedByName(setup.pre, name);
    EXPECT_TRUE(planned.byte_comparable) << name;
    EXPECT_EQ(planned.fields.size(), planned.reloc_at.size()) << name;
    EXPECT_FALSE(planned.fields.empty()) << name;
  }
  ks::Result<UnitMatch> match = MatchAgreesWithOracle(*setup.machine,
                                                      setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->symbol_values["counter"],
            AddressOf(*setup.machine, "counter"));
  EXPECT_EQ(match->symbol_values["bump"], AddressOf(*setup.machine, "bump"));
}

TEST(RunPreBytePath, FlippedByteOutsideRelocationFieldsIsRefusedAsTheWalkDoes) {
  SourceTree tree;
  tree.Write("m.kc", kByteUnit);
  PlannedSection planned;
  {
    MatchSetup setup = MakeSetup(tree, "m.kc");
    ASSERT_NE(setup.machine, nullptr);
    planned = PlannedByName(setup.pre, ".text.scaled");
    ASSERT_TRUE(planned.byte_comparable);
  }
  // One record of each kind: any opcode, a register operand, an imm32 no
  // relocation covers, and the last opcode (past every relocation field).
  std::optional<uint32_t> opcode, reg, imm;
  for (const PlannedSection::Rec& rec : planned.recs) {
    const kvx::OpInfo& info = kvx::GetOpInfo(rec.insn.op);
    opcode = opcode.value_or(rec.pos);
    if (info.has_reg1 && !reg.has_value()) {
      reg = rec.pos + 1;
    }
    if (info.has_imm32 && !imm.has_value() &&
        !planned.reloc_at.count(rec.pos + 2)) {
      imm = rec.pos + 3;
    }
  }
  ASSERT_TRUE(opcode.has_value() && reg.has_value() && imm.has_value());
  ASSERT_GT(planned.recs.back().pos, planned.fields.back().at);
  for (uint32_t offset : {*opcode, *reg, *imm, planned.recs.back().pos}) {
    SCOPED_TRACE("offset " + std::to_string(offset));
    MatchSetup setup = MakeSetup(tree, "m.kc");
    ASSERT_NE(setup.machine, nullptr);
    FlipByte(*setup.machine, AddressOf(*setup.machine, "scaled") + offset,
             0x01);
    ks::Result<UnitMatch> match = MatchAgreesWithOracle(*setup.machine,
                                                        setup.pre);
    ASSERT_FALSE(match.ok());
    EXPECT_EQ(match.status().code(), ks::ErrorCode::kAborted);
  }
}

TEST(RunPreBytePath, RelocationFieldMatchingNoSymbolIsRefused) {
  SourceTree tree;
  tree.Write("m.kc", kByteUnit);
  MatchSetup setup = MakeSetup(tree, "m.kc");
  ASSERT_NE(setup.machine, nullptr);
  PlannedSection planned = PlannedByName(setup.pre, ".text.bump");
  ASSERT_TRUE(planned.byte_comparable);
  ASSERT_FALSE(planned.fields.empty());
  // The bytes equal the pre code everywhere else, so the byte path
  // decides: it must refuse at the field as the walk does.
  FlipByte(*setup.machine,
           AddressOf(*setup.machine, "bump") + planned.fields[0].at + 1,
           0x40);
  ks::Result<UnitMatch> match = MatchAgreesWithOracle(*setup.machine,
                                                      setup.pre);
  ASSERT_FALSE(match.ok());
  EXPECT_NE(match.status().message().find("matches no symbol of that name"),
            std::string::npos)
      << match.status().ToString();
  EXPECT_NE(match.status().message().find(
                ks::StrPrintf("at pre offset %u", planned.fields[0].rec_pos)),
            std::string::npos)
      << match.status().ToString();
}

TEST(RunPreBytePath, RefusedCandidateIsChargedAsTheWalkChargesIt) {
  // Two byte-identical static `pick`s. Corrupting the relocation field of
  // b.kc's copy refuses that candidate, and a.kc's copy matches. With
  // only the field corrupted the byte path refuses it; with its last byte
  // flipped too the walk refuses it, at the same record. Both runs must
  // report the same statistics.
  SourceTree tree;
  tree.Write("a.kc", R"(
int shared = 3;
static int pick(int x) {
  return x + shared;
}
int entry_a(int x) {
  return pick(x) + 1;
}
)");
  tree.Write("b.kc", R"(
extern int shared;
static int pick(int x) {
  return x + shared;
}
int entry_b(int x) {
  return pick(x) + 2;
}
)");
  auto stats_with = [&](bool flip_last) -> std::string {
    MatchSetup setup = MakeSetup(tree, "a.kc", /*inline_threshold=*/0);
    if (setup.machine == nullptr) {
      return "";
    }
    PlannedSection planned = PlannedByName(setup.pre, ".text.pick");
    EXPECT_TRUE(planned.byte_comparable);
    EXPECT_EQ(planned.fields.size(), 1u);
    uint32_t b_pick = 0;
    for (const kelf::LinkedSymbol& sym : setup.machine->SymbolsNamed("pick")) {
      if (sym.unit == "b.kc") {
        b_pick = sym.address;
      }
    }
    EXPECT_NE(b_pick, 0u);
    if (planned.fields.empty() || b_pick == 0) {
      return "";
    }
    FlipByte(*setup.machine, b_pick + planned.fields[0].at + 3, 0x40);
    if (flip_last) {
      FlipByte(*setup.machine, b_pick + planned.recs.back().pos, 0x01);
    }
    MatchStats stats;
    ks::Result<UnitMatch> match =
        RunPreMatcher(*setup.machine).MatchUnit(setup.pre, &stats);
    EXPECT_TRUE(match.ok()) << match.status().ToString();
    return stats.ToJson();
  };
  std::string byte_path = stats_with(false);
  EXPECT_FALSE(byte_path.empty());
  EXPECT_EQ(byte_path, stats_with(true));
}

TEST(RunPreBytePath, WalkOnlyEquivalencesAreLeftToTheWalk) {
  // Different nop padding in run and pre code: functions are 8-aligned,
  // so `padded` starts 8 bytes into the run build's text but at 0 in its
  // pre section, and `.align 16` pads it with 2 bytes in run and 10 in
  // pre. And a cross-function jump that is
  // rel8 in run but rel32 with a relocation in pre. The bytes differ, so
  // the byte path declines, and the walk accepts both (§4.3).
  SourceTree tree;
  tree.Write("w.kvs", R"(
.text
.global lead
lead:
    mov r0, 1
    ret
.global padded
padded:
    mov r1, 3
.align 16
.loop:
    sub r1, 1
    jnz .loop
    ret
.global hop
hop:
    cmp r0, 0
    jnz .stay
    jmp lead      ; rel8 in run, rel32+reloc in pre
.stay:
    ret
)");
  MatchSetup setup = MakeSetup(tree, "w.kvs");
  ASSERT_NE(setup.machine, nullptr);
  for (const char* name : {".text.padded", ".text.hop"}) {
    EXPECT_TRUE(PlannedByName(setup.pre, name).byte_comparable) << name;
  }
  uint32_t padded = AddressOf(*setup.machine, "padded");
  ks::Result<std::vector<uint8_t>> run = setup.machine->ReadBytes(padded, 8);
  ASSERT_TRUE(run.ok());
  const kelf::Section* pre_padded = setup.pre.SectionByName(".text.padded");
  ASSERT_NE(pre_padded, nullptr);
  ASSERT_NE(std::vector<uint8_t>(pre_padded->bytes.begin(),
                                 pre_padded->bytes.begin() + 8),
            *run)
      << "the padding must differ";
  ks::Result<UnitMatch> match = MatchAgreesWithOracle(*setup.machine,
                                                      setup.pre);
  ASSERT_TRUE(match.ok()) << match.status().ToString();
  EXPECT_EQ(match->symbol_values["lead"], AddressOf(*setup.machine, "lead"));
  EXPECT_EQ(match->sections[".text.padded"].run_address, padded);
}

TEST(RunPreBytePath, IneligibleSectionsStayOnTheWalk) {
  // tail_fn branches to the second of two trailing nops. The walk's
  // nop-normalization refuses that target even when run and pre bytes
  // are identical, so the plan must keep the section off the byte path.
  SourceTree tree;
  tree.Write("t.kvs", R"(
.text
.global tail_fn
tail_fn:
    cmp r0, 0
    jnz .pad
    ret
    nop
.pad:
    nop
)");
  MatchSetup setup = MakeSetup(tree, "t.kvs");
  ASSERT_NE(setup.machine, nullptr);
  EXPECT_FALSE(PlannedByName(setup.pre, ".text.tail_fn").byte_comparable);
  ks::Result<UnitMatch> match = MatchAgreesWithOracle(*setup.machine,
                                                      setup.pre);
  ASSERT_FALSE(match.ok());
  EXPECT_NE(match.status().message().find("branch target does not correspond"),
            std::string::npos)
      << match.status().ToString();

  // word_fn carries a relocation that is no instruction's imm32/rel32
  // field (its pre bytes decode as halts), which the walk never inverts.
  // The byte path compares that word like any other bytes, so the section
  // stays byte-comparable and decides exactly as the walk: when the
  // relocated run word differs from the pre bytes (the walk decides) and
  // when it is overwritten with them (the byte path decides).
  SourceTree words;
  words.Write("w.kvs", R"(
.text
.global word_fn
word_fn:
    ret
    .word after
.global after
after:
    ret
)");
  MatchSetup word_setup = MakeSetup(words, "w.kvs");
  ASSERT_NE(word_setup.machine, nullptr);
  PlannedSection word_fn = PlannedByName(word_setup.pre, ".text.word_fn");
  EXPECT_FALSE(word_fn.decode_error);
  ASSERT_EQ(word_fn.reloc_at.size(), 1u);
  EXPECT_TRUE(word_fn.fields.empty());
  EXPECT_TRUE(word_fn.byte_comparable);
  EXPECT_TRUE(PlannedByName(word_setup.pre, ".text.after").byte_comparable);
  ks::Result<UnitMatch> relocated =
      MatchAgreesWithOracle(*word_setup.machine, word_setup.pre);
  EXPECT_FALSE(relocated.ok());

  const uint32_t word_at = word_fn.reloc_at.begin()->first;
  const uint32_t run_word_fn = AddressOf(*word_setup.machine, "word_fn");
  for (uint32_t i = 0; i < 4; ++i) {
    ASSERT_TRUE(word_setup.machine
                    ->WriteByte(run_word_fn + word_at + i,
                                word_fn.section->bytes[word_at + i])
                    .ok());
  }
  ks::Result<UnitMatch> equal =
      MatchAgreesWithOracle(*word_setup.machine, word_setup.pre);
  EXPECT_TRUE(equal.ok()) << equal.status().ToString();
}

}  // namespace
}  // namespace ksplice
