// Unit tests for the KVX ISA: opcode table, encode/decode round trips,
// no-op recognition, branch families, disassembly.

#include <gtest/gtest.h>

#include "kvx/isa.h"

namespace kvx {
namespace {

TEST(OpInfoTest, InvalidOpcodesHaveNoMnemonic) {
  EXPECT_EQ(GetOpInfo(uint8_t{0xff}).mnemonic, nullptr);
  EXPECT_EQ(GetOpInfo(uint8_t{0x99}).mnemonic, nullptr);
}

TEST(OpInfoTest, LengthsMatchSpec) {
  EXPECT_EQ(GetOpInfo(Op::kHalt).length, 1);
  EXPECT_EQ(GetOpInfo(Op::kNop).length, 1);
  EXPECT_EQ(GetOpInfo(Op::kNopW).length, 2);
  EXPECT_EQ(GetOpInfo(Op::kNopN).length, 0);  // variable
  EXPECT_EQ(GetOpInfo(Op::kMovRI).length, 6);
  EXPECT_EQ(GetOpInfo(Op::kMovRR).length, 3);
  EXPECT_EQ(GetOpInfo(Op::kCall).length, 5);
  EXPECT_EQ(GetOpInfo(Op::kJmp8).length, 2);
  EXPECT_EQ(GetOpInfo(Op::kJmp32).length, 5);
  EXPECT_EQ(GetOpInfo(Op::kSys).length, 2);
  EXPECT_EQ(GetOpInfo(Op::kRet).length, 1);
}

TEST(OpInfoTest, NopsAreMarked) {
  EXPECT_TRUE(GetOpInfo(Op::kNop).is_nop);
  EXPECT_TRUE(GetOpInfo(Op::kNopW).is_nop);
  EXPECT_TRUE(GetOpInfo(Op::kNopN).is_nop);
  EXPECT_FALSE(GetOpInfo(Op::kMovRR).is_nop);
  EXPECT_FALSE(GetOpInfo(Op::kRet).is_nop);
}

TEST(BranchFamilyTest, ShortAndLongFormsPair) {
  EXPECT_EQ(LongForm(Op::kJmp8), Op::kJmp32);
  EXPECT_EQ(ShortForm(Op::kJmp32), Op::kJmp8);
  EXPECT_EQ(LongForm(Op::kJle8), Op::kJle32);
  EXPECT_EQ(ShortForm(Op::kJle32), Op::kJle8);
  // Call has no short form.
  EXPECT_EQ(LongForm(Op::kCall), Op::kCall);
  EXPECT_EQ(ShortForm(Op::kCall), Op::kCall);
}

TEST(BranchFamilyTest, SameBranchFamily) {
  EXPECT_TRUE(SameBranchFamily(Op::kJz8, Op::kJz32));
  EXPECT_TRUE(SameBranchFamily(Op::kJz32, Op::kJz8));
  EXPECT_TRUE(SameBranchFamily(Op::kJz8, Op::kJz8));
  EXPECT_FALSE(SameBranchFamily(Op::kJz8, Op::kJnz8));
  EXPECT_FALSE(SameBranchFamily(Op::kJz8, Op::kMovRR));
  EXPECT_TRUE(SameBranchFamily(Op::kCall, Op::kCall));
}

TEST(BranchFamilyTest, IsPcRelative) {
  EXPECT_TRUE(IsPcRelative(Op::kCall));
  EXPECT_TRUE(IsPcRelative(Op::kJmp8));
  EXPECT_TRUE(IsPcRelative(Op::kJge32));
  EXPECT_FALSE(IsPcRelative(Op::kCallR));
  EXPECT_FALSE(IsPcRelative(Op::kMovRI));
  EXPECT_FALSE(IsPcRelative(Op::kRet));
}

TEST(Imm32FieldTest, Offsets) {
  EXPECT_EQ(Imm32FieldOffset(Op::kMovRI), 2);
  EXPECT_EQ(Imm32FieldOffset(Op::kAddRI), 2);
  EXPECT_EQ(Imm32FieldOffset(Op::kCall), 1);
  EXPECT_EQ(Imm32FieldOffset(Op::kJmp32), 1);
  EXPECT_EQ(Imm32FieldOffset(Op::kJmp8), -1);
  EXPECT_EQ(Imm32FieldOffset(Op::kRet), -1);
}

// Property-style round trip over all register/immediate combinations.
// gtest names each case after the raw bytes of its parameter, so the byte
// between reg2 and imm is a named, zeroed member rather than padding: padding
// would carry stack garbage into the test name and change it from build to
// build.
struct RoundTripCase {
  RoundTripCase(Op o, uint8_t r1, uint8_t r2, uint32_t i, int32_t r)
      : op(o), reg1(r1), reg2(r2), imm(i), rel(r) {}
  Op op;
  uint8_t reg1;
  uint8_t reg2;
  uint8_t zero = 0;
  uint32_t imm;
  int32_t rel;
};
static_assert(sizeof(RoundTripCase) == 12, "RoundTripCase must have no padding");

class EncodeDecodeTest : public ::testing::TestWithParam<RoundTripCase> {};

TEST_P(EncodeDecodeTest, RoundTrip) {
  const RoundTripCase& c = GetParam();
  Insn in;
  in.op = c.op;
  in.reg1 = c.reg1;
  in.reg2 = c.reg2;
  in.imm = c.imm;
  in.rel = c.rel;
  std::vector<uint8_t> bytes = Encode(in);
  ks::Result<Insn> out = Decode(bytes);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_EQ(out->op, c.op);
  EXPECT_EQ(out->len, bytes.size());
  const OpInfo& info = GetOpInfo(c.op);
  if (info.has_reg1) {
    EXPECT_EQ(out->reg1, c.reg1);
  }
  if (info.has_reg2) {
    EXPECT_EQ(out->reg2, c.reg2);
  }
  if (info.has_imm32) {
    EXPECT_EQ(out->imm, c.imm);
  }
  if (info.has_imm8) {
    EXPECT_EQ(out->imm, c.imm & 0xff);
  }
  if (info.has_rel8 || info.has_rel32) {
    EXPECT_EQ(out->rel, c.rel);
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllForms, EncodeDecodeTest,
    ::testing::Values(
        RoundTripCase{Op::kHalt, 0, 0, 0, 0},
        RoundTripCase{Op::kNop, 0, 0, 0, 0},
        RoundTripCase{Op::kNopW, 0, 0, 0, 0},
        RoundTripCase{Op::kMovRI, 3, 0, 0xdeadbeef, 0},
        RoundTripCase{Op::kMovRI, 7, 0, 0, 0},
        RoundTripCase{Op::kMovRR, 1, 2, 0, 0},
        RoundTripCase{Op::kLoadI, 0, 6, 0, 0},
        RoundTripCase{Op::kStoreI, 5, 4, 0, 0},
        RoundTripCase{Op::kLoadBI, 2, 3, 0, 0},
        RoundTripCase{Op::kStoreBI, 3, 2, 0, 0},
        RoundTripCase{Op::kAddRR, 0, 1, 0, 0},
        RoundTripCase{Op::kSubRI, 4, 0, 0xffffffff, 0},
        RoundTripCase{Op::kCmpRI, 2, 0, 100, 0},
        RoundTripCase{Op::kDivRR, 1, 1, 0, 0},
        RoundTripCase{Op::kShlRR, 6, 7, 0, 0},
        RoundTripCase{Op::kPush, 6, 0, 0, 0},
        RoundTripCase{Op::kPop, 7, 0, 0, 0},
        RoundTripCase{Op::kCall, 0, 0, 0, -4},
        RoundTripCase{Op::kCall, 0, 0, 0, 0x1000},
        RoundTripCase{Op::kCallR, 3, 0, 0, 0},
        RoundTripCase{Op::kRet, 0, 0, 0, 0},
        RoundTripCase{Op::kJmp8, 0, 0, 0, -128},
        RoundTripCase{Op::kJmp8, 0, 0, 0, 127},
        RoundTripCase{Op::kJmp32, 0, 0, 0, -70000},
        RoundTripCase{Op::kJz8, 0, 0, 0, 5},
        RoundTripCase{Op::kJnz32, 0, 0, 0, 1 << 20},
        RoundTripCase{Op::kJlt8, 0, 0, 0, -1},
        RoundTripCase{Op::kJge32, 0, 0, 0, 0},
        RoundTripCase{Op::kJgt8, 0, 0, 0, 7},
        RoundTripCase{Op::kJle32, 0, 0, 0, -12345},
        RoundTripCase{Op::kSys, 0, 0, 7, 0}));

TEST(DecodeTest, VariableNopLengths) {
  for (uint8_t len = 2; len <= 15; ++len) {
    Insn in;
    in.op = Op::kNopN;
    in.len = len;
    std::vector<uint8_t> bytes = Encode(in);
    ASSERT_EQ(bytes.size(), len);
    ks::Result<Insn> out = Decode(bytes);
    ASSERT_TRUE(out.ok());
    EXPECT_EQ(out->len, len);
    EXPECT_TRUE(GetOpInfo(out->op).is_nop);
  }
}

TEST(DecodeTest, RejectsBadNopLength) {
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0x03, 0x01}).ok());
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0x03, 16, 0, 0}).ok());
}

TEST(DecodeTest, RejectsTruncation) {
  // MovRI needs 6 bytes.
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0x10, 0x00, 0x01}).ok());
  // Empty input.
  EXPECT_FALSE(Decode(std::vector<uint8_t>{}).ok());
  // Call needs 5.
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0x40, 1, 2, 3}).ok());
}

TEST(DecodeTest, RejectsBadRegister) {
  // MovRR with register 9.
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0x11, 9, 0}).ok());
}

TEST(DecodeTest, RejectsInvalidOpcode) {
  EXPECT_FALSE(Decode(std::vector<uint8_t>{0xee}).ok());
}

TEST(NopFillTest, ExactLengthsAndDecodability) {
  for (uint32_t n = 0; n <= 64; ++n) {
    std::vector<uint8_t> buf;
    AppendNopFill(buf, n);
    ASSERT_EQ(buf.size(), n);
    // Every filled byte range decodes as a sequence of no-ops.
    size_t pos = 0;
    while (pos < buf.size()) {
      ks::Result<Insn> insn =
          Decode(std::span<const uint8_t>(buf).subspan(pos));
      ASSERT_TRUE(insn.ok()) << "at " << pos << " n=" << n;
      EXPECT_TRUE(GetOpInfo(insn->op).is_nop);
      pos += insn->len;
    }
    EXPECT_EQ(pos, n);
  }
}

TEST(FormatTest, RendersOperands) {
  Insn mov;
  mov.op = Op::kMovRI;
  mov.reg1 = 3;
  mov.imm = 0x42;
  EXPECT_EQ(FormatInsn(mov), "mov r3, 0x42");

  Insn jz;
  jz.op = Op::kJz8;
  jz.rel = -6;
  EXPECT_EQ(FormatInsn(jz), "jz -0x6");

  Insn ret;
  ret.op = Op::kRet;
  EXPECT_EQ(FormatInsn(ret), "ret");
}

TEST(DisassembleTest, WalksAndRecovers) {
  std::vector<uint8_t> code;
  Insn mov;
  mov.op = Op::kMovRI;
  mov.reg1 = 0;
  mov.imm = 1;
  for (uint8_t b : Encode(mov)) {
    code.push_back(b);
  }
  code.push_back(0xee);  // junk byte
  code.push_back(0x42);  // ret
  std::string text = Disassemble(code, 0x1000);
  EXPECT_NE(text.find("mov r0, 0x1"), std::string::npos);
  EXPECT_NE(text.find(".byte 0xee"), std::string::npos);
  EXPECT_NE(text.find("ret"), std::string::npos);
}

TEST(TrampolineTest, SizeMatchesJmp32) {
  EXPECT_EQ(kTrampolineSize, GetOpInfo(Op::kJmp32).length);
}

}  // namespace
}  // namespace kvx
