// Differential property tests: random KC expression trees are compiled by
// kcc, executed in the VM, and compared against a host-side evaluator of
// the same tree. Any divergence flags a bug somewhere in the compiler,
// assembler, linker, or interpreter. Every program also goes through the
// listing oracle (listing_oracle.h). Also: random control-flow programs
// (loop/branch nests) against a host oracle, and a random-instruction
// encode/decode round-trip sweep for the ISA.

#include <gtest/gtest.h>

#include <memory>

#include "base/strings.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "kvm/machine.h"
#include "kvx/isa.h"
#include "listing_oracle.h"

namespace {

// Deterministic PRNG shared by generation and oracle.
class Rng {
 public:
  explicit Rng(uint32_t seed) : state_(seed * 2654435761u + 12345u) {}
  uint32_t Next() {
    state_ = state_ * 1103515245u + 12345u;
    return (state_ >> 8) & 0x7fffffff;
  }
  uint32_t Below(uint32_t n) { return Next() % n; }

 private:
  uint32_t state_;
};

// Expression tree with simultaneous rendering and evaluation. All
// arithmetic is 32-bit wraparound (KC semantics); shifts are masked;
// division avoided (fault semantics tested elsewhere).
struct Node {
  std::string text;
  uint32_t value = 0;  // two's-complement bit pattern
};

Node GenExpr(Rng& rng, const std::vector<std::pair<std::string, uint32_t>>&
                           vars, int depth) {
  if (depth <= 0 || rng.Below(4) == 0) {
    if (rng.Below(2) == 0 && !vars.empty()) {
      const auto& [name, value] = vars[rng.Below(
          static_cast<uint32_t>(vars.size()))];
      return Node{name, value};
    }
    uint32_t literal = rng.Below(2) == 0 ? rng.Below(100)
                                         : rng.Below(0x7fffffff);
    return Node{std::to_string(literal), literal};
  }
  switch (rng.Below(10)) {
    case 0: {  // unary minus
      Node a = GenExpr(rng, vars, depth - 1);
      return Node{"(-(" + a.text + "))", static_cast<uint32_t>(-static_cast<int64_t>(a.value))};
    }
    case 1: {  // logical not
      Node a = GenExpr(rng, vars, depth - 1);
      return Node{"(!(" + a.text + "))", a.value == 0 ? 1u : 0u};
    }
    case 2: {  // bitwise not
      Node a = GenExpr(rng, vars, depth - 1);
      return Node{"(~(" + a.text + "))", ~a.value};
    }
    case 3: {  // comparison
      Node a = GenExpr(rng, vars, depth - 1);
      Node b = GenExpr(rng, vars, depth - 1);
      const char* ops[] = {"<", "<=", ">", ">=", "==", "!="};
      int which = static_cast<int>(rng.Below(6));
      int32_t sa = static_cast<int32_t>(a.value);
      int32_t sb = static_cast<int32_t>(b.value);
      bool result = false;
      switch (which) {
        case 0: result = sa < sb; break;
        case 1: result = sa <= sb; break;
        case 2: result = sa > sb; break;
        case 3: result = sa >= sb; break;
        case 4: result = sa == sb; break;
        case 5: result = sa != sb; break;
      }
      return Node{"((" + a.text + ") " + ops[which] + " (" + b.text + "))",
                  result ? 1u : 0u};
    }
    case 4: {  // logical && / || (no side effects, so eager oracle is fine)
      Node a = GenExpr(rng, vars, depth - 1);
      Node b = GenExpr(rng, vars, depth - 1);
      if (rng.Below(2) == 0) {
        return Node{"((" + a.text + ") && (" + b.text + "))",
                    (a.value != 0 && b.value != 0) ? 1u : 0u};
      }
      return Node{"((" + a.text + ") || (" + b.text + "))",
                  (a.value != 0 || b.value != 0) ? 1u : 0u};
    }
    case 5: {  // shifts with small constant amounts
      Node a = GenExpr(rng, vars, depth - 1);
      uint32_t amount = rng.Below(31);
      if (rng.Below(2) == 0) {
        return Node{
            "((" + a.text + ") << " + std::to_string(amount) + ")",
            a.value << amount};
      }
      return Node{"((" + a.text + ") >> " + std::to_string(amount) + ")",
                  a.value >> amount};
    }
    default: {  // arithmetic / bitwise binary
      Node a = GenExpr(rng, vars, depth - 1);
      Node b = GenExpr(rng, vars, depth - 1);
      switch (rng.Below(6)) {
        case 0:
          return Node{"((" + a.text + ") + (" + b.text + "))",
                      a.value + b.value};
        case 1:
          return Node{"((" + a.text + ") - (" + b.text + "))",
                      a.value - b.value};
        case 2:
          return Node{"((" + a.text + ") * (" + b.text + "))",
                      static_cast<uint32_t>(
                          static_cast<int64_t>(static_cast<int32_t>(a.value)) *
                          static_cast<int32_t>(b.value))};
        case 3:
          return Node{"((" + a.text + ") & (" + b.text + "))",
                      a.value & b.value};
        case 4:
          return Node{"((" + a.text + ") | (" + b.text + "))",
                      a.value | b.value};
        default:
          return Node{"((" + a.text + ") ^ (" + b.text + "))",
                      a.value ^ b.value};
      }
    }
  }
}

// Compiles and runs `source`, returning record(1, ...)'s value.
ks::Result<uint32_t> RunKernel(const std::string& source, uint32_t arg,
                               bool function_sections) {
  kdiff::SourceTree tree;
  tree.Write("m.kc", source);
  kcc::CompileOptions options;
  options.function_sections = function_sections;
  options.data_sections = function_sections;
  ExpectListingRoundTrip(tree, "m.kc", options);
  KS_ASSIGN_OR_RETURN(std::vector<kelf::ObjectFile> objects,
                      kcc::BuildTree(tree, options));
  kvm::MachineConfig config;
  KS_ASSIGN_OR_RETURN(std::unique_ptr<kvm::Machine> machine,
                      kvm::Machine::Boot(std::move(objects), config));
  KS_RETURN_IF_ERROR(machine->SpawnNamed("main", arg).status());
  KS_RETURN_IF_ERROR(machine->RunToCompletion());
  if (!machine->Faults().empty()) {
    return ks::Aborted("fault: " + machine->Faults()[0]);
  }
  std::vector<uint32_t> records = machine->RecordsWithKey(1);
  if (records.size() != 1) {
    return ks::Internal("no record");
  }
  return records[0];
}

class ExprOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ExprOracleTest, VmMatchesHostEvaluator) {
  Rng rng(static_cast<uint32_t>(GetParam()));
  std::vector<std::pair<std::string, uint32_t>> vars = {
      {"a", rng.Next()}, {"b", rng.Below(1000)},
      {"c", static_cast<uint32_t>(-static_cast<int32_t>(rng.Below(500)))},
  };
  Node expr = GenExpr(rng, vars, 4);

  std::string source = ks::StrPrintf(
      "void main(int unused) {\n"
      "  int a = %d;\n"
      "  int b = %d;\n"
      "  int c = %d;\n"
      "  record(1, %s);\n"
      "}\n",
      static_cast<int32_t>(vars[0].second),
      static_cast<int32_t>(vars[1].second),
      static_cast<int32_t>(vars[2].second), expr.text.c_str());

  ks::Result<uint32_t> vm = RunKernel(source, 0, GetParam() % 2 == 0);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString() << "\n" << source;
  EXPECT_EQ(*vm, expr.value) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExprOracleTest, ::testing::Range(0, 60));

// Control-flow oracle: random loop/branch programs over a small state
// machine, mirrored in C++.
class ControlFlowOracleTest : public ::testing::TestWithParam<int> {};

TEST_P(ControlFlowOracleTest, VmMatchesHostEvaluator) {
  Rng rng(static_cast<uint32_t>(GetParam()) + 7777);
  // Program: for i in [0, n): sequence of conditional updates over x, y.
  int n = 3 + static_cast<int>(rng.Below(20));
  struct Step {
    uint32_t kind;   // 0: x+=y, 1: y^=x, 2: if (x>y) x-=y else y+=3,
                     // 3: while (x > LIM) x >>= 1, 4: continue-if, 5: break-if
    uint32_t param;
  };
  std::vector<Step> steps;
  int num_steps = 2 + static_cast<int>(rng.Below(5));
  for (int i = 0; i < num_steps; ++i) {
    steps.push_back(Step{rng.Below(6), rng.Below(97) + 1});
  }

  std::string body;
  for (const Step& step : steps) {
    switch (step.kind) {
      case 0:
        body += "    x += y;\n";
        break;
      case 1:
        body += "    y = y ^ x;\n";
        break;
      case 2:
        body += "    if (x > y) {\n      x -= y;\n    } else {\n"
                "      y += 3;\n    }\n";
        break;
      case 3:
        body += ks::StrPrintf(
            "    while (x > %u && x > 0) {\n      x = x >> 1;\n    }\n",
            step.param);
        break;
      case 4:
        body += ks::StrPrintf(
            "    if ((x & %u) == 1) {\n      continue;\n    }\n",
            step.param);
        break;
      default:
        body += ks::StrPrintf(
            "    if (y > %u) {\n      break;\n    }\n", step.param * 1000);
        break;
    }
  }
  std::string source = ks::StrPrintf(
      "void main(int unused) {\n"
      "  int x = 7;\n"
      "  int y = 3;\n"
      "  int i;\n"
      "  for (i = 0; i < %d; i++) {\n%s  }\n"
      "  record(1, x ^ y);\n"
      "}\n",
      n, body.c_str());

  // Host oracle (same semantics, 32-bit wraparound).
  uint32_t x = 7;
  uint32_t y = 3;
  for (int i = 0; i < n; ++i) {
    bool continued = false;
    for (const Step& step : steps) {
      if (continued) {
        break;
      }
      switch (step.kind) {
        case 0:
          x += y;
          break;
        case 1:
          y ^= x;
          break;
        case 2:
          if (static_cast<int32_t>(x) > static_cast<int32_t>(y)) {
            x -= y;
          } else {
            y += 3;
          }
          break;
        case 3:
          while (static_cast<int32_t>(x) >
                     static_cast<int32_t>(step.param) &&
                 static_cast<int32_t>(x) > 0) {
            x >>= 1;
          }
          break;
        case 4:
          if ((x & step.param) == 1) {
            continued = true;
          }
          break;
        default:
          if (static_cast<int32_t>(y) >
              static_cast<int32_t>(step.param * 1000)) {
            i = n;  // break out of the for loop
            continued = true;
          }
          break;
      }
    }
  }
  uint32_t expected = x ^ y;

  ks::Result<uint32_t> vm = RunKernel(source, 0, GetParam() % 2 == 1);
  ASSERT_TRUE(vm.ok()) << vm.status().ToString() << "\n" << source;
  EXPECT_EQ(*vm, expected) << source;
}

INSTANTIATE_TEST_SUITE_P(Seeds, ControlFlowOracleTest,
                         ::testing::Range(0, 40));

// ISA round trip over random valid instructions.
TEST(IsaRoundTripProperty, RandomInstructionsSurviveEncodeDecode) {
  Rng rng(424242);
  const kvx::Op ops[] = {
      kvx::Op::kHalt,   kvx::Op::kNop,    kvx::Op::kNopW,
      kvx::Op::kMovRI,  kvx::Op::kMovRR,  kvx::Op::kLoadI,
      kvx::Op::kStoreI, kvx::Op::kLoadBI, kvx::Op::kStoreBI,
      kvx::Op::kAddRR,  kvx::Op::kSubRR,  kvx::Op::kMulRR,
      kvx::Op::kAndRR,  kvx::Op::kOrRR,   kvx::Op::kXorRR,
      kvx::Op::kCmpRR,  kvx::Op::kDivRR,  kvx::Op::kAddRI,
      kvx::Op::kSubRI,  kvx::Op::kCmpRI,  kvx::Op::kAndRI,
      kvx::Op::kModRR,  kvx::Op::kShlRR,  kvx::Op::kShrRR,
      kvx::Op::kPush,   kvx::Op::kPop,    kvx::Op::kCall,
      kvx::Op::kCallR,  kvx::Op::kRet,    kvx::Op::kJmp8,
      kvx::Op::kJmp32,  kvx::Op::kJz8,    kvx::Op::kJz32,
      kvx::Op::kJnz8,   kvx::Op::kJnz32,  kvx::Op::kJlt8,
      kvx::Op::kJlt32,  kvx::Op::kJge8,   kvx::Op::kJge32,
      kvx::Op::kJgt8,   kvx::Op::kJgt32,  kvx::Op::kJle8,
      kvx::Op::kJle32,  kvx::Op::kSys,
  };
  for (int trial = 0; trial < 3000; ++trial) {
    kvx::Insn in;
    in.op = ops[rng.Below(sizeof(ops) / sizeof(ops[0]))];
    const kvx::OpInfo& info = kvx::GetOpInfo(in.op);
    in.reg1 = static_cast<uint8_t>(rng.Below(kvx::kNumRegs));
    in.reg2 = static_cast<uint8_t>(rng.Below(kvx::kNumRegs));
    in.imm = info.has_imm8 ? rng.Below(256) : rng.Next();
    if (info.has_rel8) {
      in.rel = static_cast<int8_t>(rng.Next() & 0xff);
    } else if (info.has_rel32) {
      in.rel = static_cast<int32_t>(rng.Next() ^ (rng.Next() << 16));
    }
    std::vector<uint8_t> bytes = kvx::Encode(in);
    ks::Result<kvx::Insn> out = kvx::Decode(bytes);
    ASSERT_TRUE(out.ok()) << kvx::FormatInsn(in);
    EXPECT_EQ(out->op, in.op);
    EXPECT_EQ(out->len, bytes.size());
    if (info.has_reg1) {
      EXPECT_EQ(out->reg1, in.reg1);
    }
    if (info.has_reg2) {
      EXPECT_EQ(out->reg2, in.reg2);
    }
    if (info.has_imm32 || info.has_imm8) {
      EXPECT_EQ(out->imm, in.imm);
    }
    if (info.has_rel8 || info.has_rel32) {
      EXPECT_EQ(out->rel, in.rel);
    }
    // Re-encoding the decode is byte-identical (canonical encoding).
    EXPECT_EQ(kvx::Encode(*out), bytes);
  }
}

}  // namespace
