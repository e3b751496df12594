// Tests for the run-pre matcher against its linear oracle, the walk-only
// plan of runpre_oracle.h: decision equivalence on
// structurally diverse ambiguous candidates, regression coverage for the
// fixed-window and branch-normalization overflow bugs, attempt caching
// across fixpoint passes, per-candidate failure diagnostics, and a seeded
// fuzz round pitting the two plans against each other.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "base/strings.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kelf/objfile.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"
#include "kvx/isa.h"
#include "runpre_oracle.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

// Boots a machine from `tree` built monolithically and returns it plus the
// section-mode pre object for `unit` (same shape as runpre_test.cc).
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

// Encoding helpers for hand-built code.
std::vector<uint8_t> EncodeAll(const std::vector<kvx::Insn>& insns) {
  std::vector<uint8_t> out;
  for (const kvx::Insn& insn : insns) {
    std::vector<uint8_t> bytes = kvx::Encode(insn);
    out.insert(out.end(), bytes.begin(), bytes.end());
  }
  return out;
}

kvx::Insn RR(kvx::Op op, uint8_t r1, uint8_t r2) {
  kvx::Insn insn;
  insn.op = op;
  insn.reg1 = r1;
  insn.reg2 = r2;
  return insn;
}

kvx::Insn RI(kvx::Op op, uint8_t r1, uint32_t imm) {
  kvx::Insn insn;
  insn.op = op;
  insn.reg1 = r1;
  insn.imm = imm;
  return insn;
}

kvx::Insn Rel(kvx::Op op, int32_t rel) {
  kvx::Insn insn;
  insn.op = op;
  insn.rel = rel;
  return insn;
}

kvx::Insn Ret() {
  kvx::Insn insn;
  insn.op = kvx::Op::kRet;
  return insn;
}

// A pre object with a single text section `.text.<symbol>` defined by a
// global function symbol, no relocations.
kelf::ObjectFile MakePreObject(const std::string& symbol,
                               std::vector<uint8_t> bytes) {
  kelf::ObjectFile obj("handmade/" + symbol + ".kc");
  kelf::Section text;
  text.name = ".text." + symbol;
  text.kind = kelf::SectionKind::kText;
  text.align = 4;
  text.bytes = std::move(bytes);
  int text_idx = obj.AddSection(std::move(text));
  kelf::Symbol sym;
  sym.name = symbol;
  sym.binding = kelf::SymbolBinding::kGlobal;
  sym.kind = kelf::SymbolKind::kFunction;
  sym.section = text_idx;
  obj.AddSymbol(std::move(sym));
  return obj;
}

// ------------------------------------------------------------------
// Decision equivalence.

TEST(RunPreIndexTest, PrefilterPrunesStructurallyDiverseCandidates) {
  // Two same-named statics with structurally different bodies: the
  // verifier rejects the wrong copy, and the decode-once match must agree
  // with the linear oracle on every decision and attempt.
  SourceTree tree;
  tree.Write("a.kc", R"(
static int twin(int x) {
  return x + 1;
}
int entry_a(int x) {
  return twin(x) + twin(x + 1) + twin(x + 2) + twin(x + 3) + twin(x + 4)
       + twin(x + 5);
}
)");
  tree.Write("b.kc", R"(
static int twin(int x) {
  int a = x * 2 + 3;
  int b = a * 5 - x;
  int c = b + a * 7 - x * 11;
  int d = c - b + a;
  return a + b + c + d;
}
int entry_b(int x) {
  return twin(x) + twin(x + 1) + twin(x + 2) + twin(x + 3) + twin(x + 4)
       + twin(x + 5);
}
)");
  MatchSetup setup = MakeSetup(tree, "b.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);
  ASSERT_EQ(setup.machine->SymbolsNamed("twin").size(), 2u);

  RunPreMatcher matcher(*setup.machine);
  MatchStats once_stats;
  ks::Result<UnitMatch> once_match = matcher.MatchUnit(setup.pre, &once_stats);
  ASSERT_TRUE(once_match.ok()) << once_match.status().ToString();

  MatchStats linear_stats;
  ks::Result<UnitMatch> linear_match =
      MatchWalkOnly(matcher, setup.pre, &linear_stats);
  ASSERT_TRUE(linear_match.ok()) << linear_match.status().ToString();

  EXPECT_EQ(once_match->symbol_values, linear_match->symbol_values);
  ASSERT_EQ(once_match->sections.size(), linear_match->sections.size());
  for (const auto& [name, matched] : once_match->sections) {
    ASSERT_TRUE(linear_match->sections.count(name)) << name;
    EXPECT_EQ(linear_match->sections.at(name).run_address,
              matched.run_address)
        << name;
    EXPECT_EQ(linear_match->sections.at(name).run_size, matched.run_size)
        << name;
  }
  EXPECT_EQ(once_stats.sections_matched, linear_stats.sections_matched);
  // Both twin copies are verified by both plans.
  EXPECT_EQ(once_stats.candidates_tried, linear_stats.candidates_tried);
}

// ------------------------------------------------------------------
// Bugfix regressions.

TEST(RunPreIndexTest, MatchesRunFunctionWithHeavyNopGrowth) {
  // Regression for the fixed `+256` run-window slack: a run rendering that
  // grew by more than 256 bytes of alignment padding used to falsely abort
  // with "run code ends early". The run image is now fetched in growing
  // chunks, so arbitrary growth matches.
  SourceTree tree;
  tree.Write("k.kc", R"(
int keep(int x) {
  return x + 1;
}
)");
  MatchSetup setup = MakeSetup(tree, "k.kc");
  ASSERT_NE(setup.machine, nullptr);

  std::vector<kvx::Insn> body = {
      RI(kvx::Op::kMovRI, 0, 0x1234),
      RR(kvx::Op::kAddRR, 0, 1),
      RR(kvx::Op::kSubRR, 0, 2),
      RR(kvx::Op::kMulRR, 0, 3),
      Ret(),
  };
  std::vector<uint8_t> pre_bytes = EncodeAll(body);

  // Run rendering: the same instructions with 120 bytes of nop fill after
  // each one — over 480 bytes of growth, far beyond any fixed slack.
  std::vector<uint8_t> run_bytes;
  for (const kvx::Insn& insn : body) {
    std::vector<uint8_t> one = kvx::Encode(insn);
    run_bytes.insert(run_bytes.end(), one.begin(), one.end());
    kvx::AppendNopFill(run_bytes, 120);
  }
  ks::Result<kvm::ModuleHandle> blob = setup.machine->LoadBlob(
      "padded-run", static_cast<uint32_t>(run_bytes.size()) + 16);
  ASSERT_TRUE(blob.ok());
  ks::Result<kvm::ModuleInfo> info = setup.machine->GetModuleInfo(*blob);
  ASSERT_TRUE(info.ok());
  ASSERT_TRUE(setup.machine->WriteBytes(info->base, run_bytes).ok());
  uint32_t run_addr = info->base;

  kelf::ObjectFile pre = MakePreObject("padded_fn", pre_bytes);
  auto redirect = [&](const std::string&, const std::string& symbol)
      -> std::optional<std::pair<uint32_t, uint32_t>> {
    if (symbol == "padded_fn") {
      return std::make_pair(run_addr,
                            static_cast<uint32_t>(run_bytes.size()));
    }
    return std::nullopt;
  };

  for (bool walk_only : {false, true}) {
    RunPreMatcher matcher(*setup.machine, redirect);
    MatchStats stats;
    ks::Result<UnitMatch> match = walk_only
                                      ? MatchWalkOnly(matcher, pre, &stats)
                                      : matcher.MatchUnit(pre, &stats);
    ASSERT_TRUE(match.ok())
        << "walk_only=" << walk_only << ": " << match.status().ToString();
    ASSERT_TRUE(match->sections.count(".text.padded_fn"));
    EXPECT_EQ(match->sections[".text.padded_fn"].run_address, run_addr);
    // The matched span ends at the final ret; trailing nop fill is not
    // part of the function.
    EXPECT_GT(match->sections[".text.padded_fn"].run_size,
              4u * 120u + static_cast<uint32_t>(pre_bytes.size()) - 1u);
  }
}

TEST(RunPreIndexTest, NormalizeBranchTargetIs64BitSafe) {
  // Regression for the uint32_t overflow: with a window based near the
  // top of the 32-bit address space, `base + size` used to wrap and the
  // in-window check silently failed, skipping nop normalization.
  // Six single-byte nops, so every leading offset is an insn boundary.
  std::vector<uint8_t> window(6, 0x01);
  std::vector<uint8_t> tail = EncodeAll({RR(kvx::Op::kAddRR, 0, 1), Ret()});
  window.insert(window.end(), tail.begin(), tail.end());
  // Pad the window so base + size crosses 2^32 exactly when base is
  // 0xffffff00 (size 0x100 => end 0x100000000).
  kvx::AppendNopFill(window, 0x100 - window.size());
  ASSERT_EQ(window.size(), 0x100u);

  const uint64_t base = 0xffffff00u;
  // A target on the leading nop pad must normalize to the first real
  // instruction even though base + size == 2^32 (wraps to 0 in uint32).
  EXPECT_EQ(NormalizeBranchTarget(window, base, base), base + 6);
  EXPECT_EQ(NormalizeBranchTarget(window, base, base + 2), base + 6);
  // A non-nop target is returned unchanged.
  EXPECT_EQ(NormalizeBranchTarget(window, base, base + 6), base + 6);
  // Targets outside the window pass through untouched.
  EXPECT_EQ(NormalizeBranchTarget(window, base, 0x1000), 0x1000u);
  EXPECT_EQ(NormalizeBranchTarget(window, base, base - 1), base - 1);
}

TEST(RunPreIndexTest, BranchNormalizationWorksAtTopOfMemory) {
  // End-to-end variant: a function whose run rendering needs branch-target
  // nop normalization, placed as close to the top of a maximal 32-bit
  // address space as the machine allows. Seed arithmetic wrapped here.
  SourceTree tree;
  tree.Write("k.kc", R"(
int keep(int x) {
  return x + 1;
}
)");
  kcc::CompileOptions run_options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  ASSERT_TRUE(objects.ok());
  kvm::MachineConfig config;
  config.memory_bytes = 0xfffff000u;  // ~4 GiB image
  ks::Result<std::unique_ptr<kvm::Machine>> booted =
      kvm::Machine::Boot(std::move(objects).value(), config);
  if (!booted.ok()) {
    GTEST_SKIP() << "cannot boot a 4 GiB machine: "
                 << booted.status().ToString();
  }
  std::unique_ptr<kvm::Machine> machine = std::move(booted).value();

  // Pre: jmp8 over an add, landing exactly on the ret.
  //   0: jmp8 +3   (ends at 2, target 5)
  //   2: add r0,r1
  //   5: ret
  std::vector<uint8_t> pre_bytes = EncodeAll({
      Rel(kvx::Op::kJmp8, 3),
      RR(kvx::Op::kAddRR, 0, 1),
      Ret(),
  });
  // Run: the ret is pushed out by nop fill, so the branch target (still
  // offset 5) lands on nops and only normalization makes it correspond.
  std::vector<uint8_t> run_bytes = EncodeAll({
      Rel(kvx::Op::kJmp8, 3),
      RR(kvx::Op::kAddRR, 0, 1),
  });
  kvx::AppendNopFill(run_bytes, 5);
  std::vector<uint8_t> ret = EncodeAll({Ret()});
  run_bytes.insert(run_bytes.end(), ret.begin(), ret.end());

  // Within 256 bytes of the top of memory: the seed's uint32 window-end
  // arithmetic (run_start + window size) wraps past 2^32 here.
  uint32_t run_addr =
      config.memory_bytes - static_cast<uint32_t>(run_bytes.size()) - 8;
  ASSERT_TRUE(machine->WriteBytes(run_addr, run_bytes).ok());

  kelf::ObjectFile pre = MakePreObject("skyline_fn", pre_bytes);
  auto redirect = [&](const std::string&, const std::string& symbol)
      -> std::optional<std::pair<uint32_t, uint32_t>> {
    if (symbol == "skyline_fn") {
      return std::make_pair(run_addr,
                            static_cast<uint32_t>(run_bytes.size()));
    }
    return std::nullopt;
  };

  for (bool walk_only : {false, true}) {
    RunPreMatcher matcher(*machine, redirect);
    ks::Result<UnitMatch> match =
        walk_only ? MatchWalkOnly(matcher, pre) : matcher.MatchUnit(pre);
    ASSERT_TRUE(match.ok())
        << "walk_only=" << walk_only << ": " << match.status().ToString();
    ASSERT_TRUE(match->sections.count(".text.skyline_fn"));
    EXPECT_EQ(match->sections[".text.skyline_fn"].run_address, run_addr);
    EXPECT_EQ(match->sections[".text.skyline_fn"].run_size,
              static_cast<uint32_t>(run_bytes.size()));
  }

  // Control: the same shape at a low address matches too.
  uint32_t low_addr = 0;
  {
    ks::Result<kvm::ModuleHandle> blob = machine->LoadBlob(
        "low-run", static_cast<uint32_t>(run_bytes.size()) + 8);
    ASSERT_TRUE(blob.ok());
    ks::Result<kvm::ModuleInfo> info = machine->GetModuleInfo(*blob);
    ASSERT_TRUE(info.ok());
    low_addr = info->base;
    ASSERT_TRUE(machine->WriteBytes(low_addr, run_bytes).ok());
  }
  RunPreMatcher control(
      *machine,
      [&](const std::string&, const std::string& symbol)
          -> std::optional<std::pair<uint32_t, uint32_t>> {
        if (symbol == "skyline_fn") {
          return std::make_pair(low_addr,
                                static_cast<uint32_t>(run_bytes.size()));
        }
        return std::nullopt;
      });
  ks::Result<UnitMatch> low_match = control.MatchUnit(pre);
  ASSERT_TRUE(low_match.ok()) << low_match.status().ToString();
}

TEST(RunPreIndexTest, AllCandidatesFailedReportsEachCandidate) {
  // Regression for the diagnostics bug: when every candidate of an
  // ambiguous symbol fails, the abort used to surface only the last
  // candidate's reason. It must now list each candidate's address and
  // failure (capped).
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
  MatchSetup setup = MakeSetup(tree, "b.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);
  std::vector<kelf::LinkedSymbol> copies =
      setup.machine->SymbolsNamed("clone_fn");
  ASSERT_EQ(copies.size(), 2u);

  // Tamper both run copies so neither can match the pre.
  for (const kelf::LinkedSymbol& copy : copies) {
    ASSERT_TRUE(setup.machine->WriteByte(copy.address, 0xee).ok());
  }

  for (bool walk_only : {false, true}) {
    RunPreMatcher matcher(*setup.machine);
    ks::Result<UnitMatch> match = walk_only ? MatchWalkOnly(matcher, setup.pre)
                                            : matcher.MatchUnit(setup.pre);
    ASSERT_FALSE(match.ok()) << "walk_only=" << walk_only;
    const std::string& message = match.status().message();
    EXPECT_NE(message.find("matches no candidate (2 tried)"),
              std::string::npos)
        << message;
    // Both candidate addresses appear, each with a reason.
    for (const kelf::LinkedSymbol& copy : copies) {
      EXPECT_NE(message.find("candidate " + ks::Hex32(copy.address)),
                std::string::npos)
          << "walk_only=" << walk_only << "\n"
          << message;
    }
  }
}

// ------------------------------------------------------------------
// Fixpoint behavior: attempt caching and carry-forward.

// A corpus whose ambiguity is only resolved by valuation propagated from a
// later section: `dep` copies are byte-identical, `work` copies differ
// only in which `dep` they call (recoverable either way), and the unique
// `entry_b` — last in section order — pins `dep` via its own call. Both
// `dep` and `work` must defer on pass 1 and resolve on pass 2 from the
// cached successes.
SourceTree CarryForwardTree() {
  SourceTree tree;
  tree.Write("a.kc", R"(
static int dep(int x) {
  return x + 7;
}
static int work(int x) {
  return dep(x) * 2 + dep(x + 1);
}
int entry_a(int x) {
  return work(x) + work(x + 1) + work(x + 2) + dep(x + 3);
}
)");
  tree.Write("b.kc", R"(
static int dep(int x) {
  return x + 7;
}
static int work(int x) {
  return dep(x) * 2 + dep(x + 1);
}
int entry_b(int x) {
  return work(x) + work(x + 1) + work(x + 2) + dep(x + 3);
}
)");
  return tree;
}

TEST(RunPreIndexTest, AmbiguitySuccessesCarryForwardAcrossPasses) {
  SourceTree tree = CarryForwardTree();
  MatchSetup setup = MakeSetup(tree, "b.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);
  ASSERT_EQ(setup.machine->SymbolsNamed("dep").size(), 2u);
  ASSERT_EQ(setup.machine->SymbolsNamed("work").size(), 2u);

  MatchStats once_stats;
  MatchStats linear_stats;
  ks::Result<UnitMatch> once_match = ks::Internal("unset");
  ks::Result<UnitMatch> linear_match = ks::Internal("unset");
  {
    RunPreMatcher matcher(*setup.machine);
    once_match = matcher.MatchUnit(setup.pre, &once_stats);
  }
  {
    RunPreMatcher matcher(*setup.machine);
    linear_match = MatchWalkOnly(matcher, setup.pre, &linear_stats);
  }
  ASSERT_TRUE(once_match.ok()) << once_match.status().ToString();
  ASSERT_TRUE(linear_match.ok()) << linear_match.status().ToString();
  EXPECT_EQ(once_match->symbol_values, linear_match->symbol_values);

  // Both plans: dep and work defer on pass 1 (two verifiable candidates
  // each), entry_b commits and pins the valuation, pass 2 resolves the
  // rest from cached successes.
  for (const MatchStats* stats : {&once_stats, &linear_stats}) {
    EXPECT_EQ(stats->fixpoint_passes, 2u);
    EXPECT_EQ(stats->ambiguity_deferrals, 2u);
    EXPECT_EQ(stats->sections_matched, 3u);
    // Exactly one verification per (section, candidate) pair ever: dep has
    // 2 candidates, work has 2, entry_b has 1 — five attempts, no re-walk
    // on pass 2 (this used to double-count).
    EXPECT_EQ(stats->candidates_tried, 5u);
    // Pass 2 re-checks cached successes against the grown valuation
    // instead of re-walking code.
    EXPECT_GE(stats->revalidations, 2u);
  }

  // The recovered statics must be b.kc's copies.
  for (const char* name : {"dep", "work"}) {
    uint32_t recovered = once_match->symbol_values.at(name);
    bool bound_to_b = false;
    for (const kelf::LinkedSymbol& sym : setup.machine->SymbolsNamed(name)) {
      if (sym.address == recovered && sym.unit == "b.kc") {
        bound_to_b = true;
      }
    }
    EXPECT_TRUE(bound_to_b) << name;
  }
}

// ------------------------------------------------------------------
// Seeded fuzz: the production plan and the walk-only oracle must agree on
// every decision — acceptance, recovered valuation, matched sections, and
// the exact failure message — across random single-byte tampering of the
// run image.

TEST(RunPreIndexTest, SeededFuzzIndexedAndLinearAgree) {
  SourceTree tree;
  tree.Write("a.kc", R"(
static int pick(int x) {
  return x * 3 + 1;
}
int entry_a(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4);
}
)");
  tree.Write("b.kc", R"(
static int pick(int x) {
  return x * 5 + 2;
}
static int gate(int x) {
  if (x > 3) {
    return pick(x) - 1;
  }
  return pick(x + 1) + 2;
}
int entry_b(int x) {
  return gate(x) + pick(x + 1) + gate(x + 2) + pick(x + 3) + gate(x + 4);
}
)");
  MatchSetup setup = MakeSetup(tree, "b.kc", /*inline_threshold=*/0);
  ASSERT_NE(setup.machine, nullptr);

  // The tamper surface: every run function's matched span.
  RunPreMatcher baseline(*setup.machine);
  ks::Result<UnitMatch> base_match = baseline.MatchUnit(setup.pre);
  ASSERT_TRUE(base_match.ok()) << base_match.status().ToString();
  struct Span {
    uint32_t address;
    uint32_t size;
  };
  std::vector<Span> spans;
  for (const auto& [name, matched] : base_match->sections) {
    spans.push_back(Span{matched.run_address, matched.run_size});
  }
  ASSERT_FALSE(spans.empty());

  uint64_t rng = 0x9e3779b97f4a7c15ull;  // fixed seed: reproducible
  auto next = [&rng]() {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };

  for (int round = 0; round < 24; ++round) {
    // Tamper one byte in one matched span (or none on round 0).
    uint32_t addr = 0;
    uint8_t original = 0;
    bool tampered = false;
    if (round != 0) {
      const Span& span = spans[next() % spans.size()];
      addr = span.address + static_cast<uint32_t>(next() % span.size);
      ks::Result<std::vector<uint8_t>> prev = setup.machine->ReadBytes(addr, 1);
      ASSERT_TRUE(prev.ok());
      original = (*prev)[0];
      uint8_t flipped = original ^ static_cast<uint8_t>(1u << (next() % 8));
      ASSERT_TRUE(setup.machine->WriteByte(addr, flipped).ok());
      tampered = true;
    }

    RunPreMatcher matcher(*setup.machine);
    ks::Result<UnitMatch> once_match = matcher.MatchUnit(setup.pre);
    ks::Result<UnitMatch> linear_match = MatchWalkOnly(matcher, setup.pre);

    EXPECT_EQ(once_match.ok(), linear_match.ok()) << "round " << round;
    if (once_match.ok() && linear_match.ok()) {
      EXPECT_EQ(once_match->symbol_values, linear_match->symbol_values)
          << "round " << round;
      EXPECT_EQ(once_match->sections.size(),
                linear_match->sections.size())
          << "round " << round;
      for (const auto& [name, matched] : once_match->sections) {
        ASSERT_TRUE(linear_match->sections.count(name))
            << "round " << round << " " << name;
        EXPECT_EQ(linear_match->sections.at(name).run_address,
                  matched.run_address)
            << "round " << round << " " << name;
        EXPECT_EQ(linear_match->sections.at(name).run_size,
                  matched.run_size)
            << "round " << round << " " << name;
      }
    } else if (!once_match.ok() && !linear_match.ok()) {
      EXPECT_EQ(once_match.status().message(),
                linear_match.status().message())
          << "round " << round;
    }

    if (tampered) {
      ASSERT_TRUE(setup.machine->WriteByte(addr, original).ok());
    }
  }
}

}  // namespace
}  // namespace ksplice
