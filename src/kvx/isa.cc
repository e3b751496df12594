#include "kvx/isa.h"

#include <array>
#include <cassert>

#include "base/endian.h"
#include "base/strings.h"

namespace kvx {

namespace {

constexpr OpInfo kInvalid{};

struct TableEntry {
  Op op;
  OpInfo info;
};

// reg1/reg2 occupy bytes 1 and 2 when present; imm32 is at byte 2 (after one
// register byte); rel8 at byte 1; rel32 occupies the final 4 bytes.
constexpr TableEntry kTable[] = {
    {Op::kHalt, {"halt", 1, false, false, false, false, false, false, false}},
    {Op::kNop, {"nop", 1, false, false, false, false, false, false, true}},
    {Op::kNopW, {"nopw", 2, false, false, false, false, false, false, true}},
    {Op::kNopN, {"nopn", 0, false, false, false, false, false, false, true}},

    {Op::kMovRI, {"mov", 6, true, false, true, false, false, false, false}},
    {Op::kMovRR, {"mov", 3, true, true, false, false, false, false, false}},
    {Op::kLoadI, {"load", 3, true, true, false, false, false, false, false}},
    {Op::kStoreI, {"store", 3, true, true, false, false, false, false, false}},
    {Op::kLoadF, {"loadf", 3, true, true, false, false, false, false, false}},
    {Op::kLoadBI, {"loadb", 3, true, true, false, false, false, false, false}},
    {Op::kStoreBI,
     {"storeb", 3, true, true, false, false, false, false, false}},
    {Op::kBug, {"bug", 1, false, false, false, false, false, false, false}},

    {Op::kAddRR, {"add", 3, true, true, false, false, false, false, false}},
    {Op::kSubRR, {"sub", 3, true, true, false, false, false, false, false}},
    {Op::kMulRR, {"mul", 3, true, true, false, false, false, false, false}},
    {Op::kAndRR, {"and", 3, true, true, false, false, false, false, false}},
    {Op::kOrRR, {"or", 3, true, true, false, false, false, false, false}},
    {Op::kXorRR, {"xor", 3, true, true, false, false, false, false, false}},
    {Op::kCmpRR, {"cmp", 3, true, true, false, false, false, false, false}},
    {Op::kDivRR, {"div", 3, true, true, false, false, false, false, false}},
    {Op::kAddRI, {"add", 6, true, false, true, false, false, false, false}},
    {Op::kSubRI, {"sub", 6, true, false, true, false, false, false, false}},
    {Op::kCmpRI, {"cmp", 6, true, false, true, false, false, false, false}},
    {Op::kAndRI, {"and", 6, true, false, true, false, false, false, false}},
    {Op::kModRR, {"mod", 3, true, true, false, false, false, false, false}},
    {Op::kShlRR, {"shl", 3, true, true, false, false, false, false, false}},
    {Op::kShrRR, {"shr", 3, true, true, false, false, false, false, false}},

    {Op::kPush, {"push", 2, true, false, false, false, false, false, false}},
    {Op::kPop, {"pop", 2, true, false, false, false, false, false, false}},

    {Op::kCall, {"call", 5, false, false, false, false, false, true, false}},
    {Op::kCallR, {"callr", 2, true, false, false, false, false, false, false}},
    {Op::kRet, {"ret", 1, false, false, false, false, false, false, false}},

    {Op::kJmp8, {"jmp", 2, false, false, false, false, true, false, false}},
    {Op::kJmp32, {"jmp", 5, false, false, false, false, false, true, false}},
    {Op::kJz8, {"jz", 2, false, false, false, false, true, false, false}},
    {Op::kJz32, {"jz", 5, false, false, false, false, false, true, false}},
    {Op::kJnz8, {"jnz", 2, false, false, false, false, true, false, false}},
    {Op::kJnz32, {"jnz", 5, false, false, false, false, false, true, false}},
    {Op::kJlt8, {"jlt", 2, false, false, false, false, true, false, false}},
    {Op::kJlt32, {"jlt", 5, false, false, false, false, false, true, false}},
    {Op::kJge8, {"jge", 2, false, false, false, false, true, false, false}},
    {Op::kJge32, {"jge", 5, false, false, false, false, false, true, false}},
    {Op::kJgt8, {"jgt", 2, false, false, false, false, true, false, false}},
    {Op::kJgt32, {"jgt", 5, false, false, false, false, false, true, false}},
    {Op::kJle8, {"jle", 2, false, false, false, false, true, false, false}},
    {Op::kJle32, {"jle", 5, false, false, false, false, false, true, false}},

    {Op::kSys, {"sys", 2, false, false, false, true, false, false, false}},
};

const std::array<OpInfo, 256>& InfoTable() {
  static const std::array<OpInfo, 256> table = [] {
    std::array<OpInfo, 256> t{};
    for (const TableEntry& e : kTable) {
      t[static_cast<uint8_t>(e.op)] = e.info;
    }
    return t;
  }();
  return table;
}

}  // namespace

const OpInfo& GetOpInfo(uint8_t opcode) {
  const OpInfo& info = InfoTable()[opcode];
  return info.mnemonic != nullptr ? info : kInvalid;
}

const OpInfo& GetOpInfo(Op op) { return GetOpInfo(static_cast<uint8_t>(op)); }

bool IsPcRelative(Op op) {
  const OpInfo& info = GetOpInfo(op);
  return info.has_rel8 || info.has_rel32;
}

Op LongForm(Op op) {
  switch (op) {
    case Op::kJmp8:
      return Op::kJmp32;
    case Op::kJz8:
      return Op::kJz32;
    case Op::kJnz8:
      return Op::kJnz32;
    case Op::kJlt8:
      return Op::kJlt32;
    case Op::kJge8:
      return Op::kJge32;
    case Op::kJgt8:
      return Op::kJgt32;
    case Op::kJle8:
      return Op::kJle32;
    default:
      return op;
  }
}

Op ShortForm(Op op) {
  switch (op) {
    case Op::kJmp32:
      return Op::kJmp8;
    case Op::kJz32:
      return Op::kJz8;
    case Op::kJnz32:
      return Op::kJnz8;
    case Op::kJlt32:
      return Op::kJlt8;
    case Op::kJge32:
      return Op::kJge8;
    case Op::kJgt32:
      return Op::kJgt8;
    case Op::kJle32:
      return Op::kJle8;
    default:
      return op;
  }
}

bool SameBranchFamily(Op a, Op b) {
  if (!IsPcRelative(a) || !IsPcRelative(b)) {
    return false;
  }
  return LongForm(a) == LongForm(b);
}

int Imm32FieldOffset(Op op) {
  const OpInfo& info = GetOpInfo(op);
  if (info.has_imm32) {
    return 2;
  }
  if (info.has_rel32) {
    return static_cast<int>(info.length) - 4;
  }
  return -1;
}

bool IsMemStore(Op op) {
  return op == Op::kStoreI || op == Op::kStoreBI;
}

bool IsMemLoad(Op op) {
  return op == Op::kLoadI || op == Op::kLoadBI || op == Op::kLoadF;
}

int MemAccessWidth(Op op) {
  switch (op) {
    case Op::kLoadI:
    case Op::kLoadF:
    case Op::kStoreI:
      return 4;
    case Op::kLoadBI:
    case Op::kStoreBI:
      return 1;
    default:
      return 0;
  }
}

int MemAddrRegister(const Insn& insn) {
  if (IsMemStore(insn.op)) {
    return insn.reg1;  // store [rd], rs
  }
  if (IsMemLoad(insn.op)) {
    return insn.reg2;  // load rd, [rs]
  }
  return -1;
}

int MemValueRegister(const Insn& insn) {
  if (IsMemStore(insn.op)) {
    return insn.reg2;
  }
  if (IsMemLoad(insn.op)) {
    return insn.reg1;
  }
  return -1;
}

ks::Result<Insn> Decode(std::span<const uint8_t> bytes) {
  if (bytes.empty()) {
    return ks::InvalidArgument("kvx: decode past end of code");
  }
  uint8_t opcode = bytes[0];
  const OpInfo& info = GetOpInfo(opcode);
  if (info.mnemonic == nullptr) {
    return ks::InvalidArgument(
        ks::StrPrintf("kvx: invalid opcode 0x%02x", opcode));
  }
  Insn insn;
  insn.op = static_cast<Op>(opcode);

  uint8_t length = info.length;
  if (insn.op == Op::kNopN) {
    if (bytes.size() < 2) {
      return ks::InvalidArgument("kvx: truncated nopn");
    }
    length = bytes[1];
    if (length < 2 || length > 15) {
      return ks::InvalidArgument(
          ks::StrPrintf("kvx: nopn with bad length %u", length));
    }
  }
  if (bytes.size() < length) {
    return ks::InvalidArgument(ks::StrPrintf(
        "kvx: truncated instruction (opcode 0x%02x needs %u bytes, have %zu)",
        opcode, length, bytes.size()));
  }
  insn.len = length;

  size_t pos = 1;
  if (info.has_reg1) {
    insn.reg1 = bytes[pos++];
    if (insn.reg1 >= kNumRegs) {
      return ks::InvalidArgument(
          ks::StrPrintf("kvx: bad register r%u", insn.reg1));
    }
  }
  if (info.has_reg2) {
    insn.reg2 = bytes[pos++];
    if (insn.reg2 >= kNumRegs) {
      return ks::InvalidArgument(
          ks::StrPrintf("kvx: bad register r%u", insn.reg2));
    }
  }
  if (info.has_imm32) {
    insn.imm = ks::ReadLe32(bytes.data() + pos);
  }
  if (info.has_imm8) {
    insn.imm = bytes[pos];
  }
  if (info.has_rel8) {
    insn.rel = static_cast<int8_t>(bytes[1]);
  }
  if (info.has_rel32) {
    insn.rel =
        static_cast<int32_t>(ks::ReadLe32(bytes.data() + (length - 4)));
  }
  return insn;
}

std::vector<uint8_t> Encode(const Insn& insn) {
  std::vector<uint8_t> out;
  Encode(insn, out);
  return out;
}

void Encode(const Insn& insn, std::vector<uint8_t>& out) {
  const OpInfo& info = GetOpInfo(insn.op);
  assert(info.mnemonic != nullptr);
  uint8_t length = info.length;
  if (insn.op == Op::kNopN) {
    assert(insn.len >= 2 && insn.len <= 15);
    length = insn.len;
  }
  size_t start = out.size();
  out.resize(start + length, 0);
  uint8_t* p = out.data() + start;
  p[0] = static_cast<uint8_t>(insn.op);
  size_t pos = 1;
  if (insn.op == Op::kNopN) {
    p[1] = length;
    return;
  }
  if (info.has_reg1) {
    p[pos++] = insn.reg1;
  }
  if (info.has_reg2) {
    p[pos++] = insn.reg2;
  }
  if (info.has_imm32) {
    ks::WriteLe32(p + pos, insn.imm);
  }
  if (info.has_imm8) {
    p[pos] = static_cast<uint8_t>(insn.imm);
  }
  if (info.has_rel8) {
    p[1] = static_cast<uint8_t>(static_cast<int8_t>(insn.rel));
  }
  if (info.has_rel32) {
    ks::WriteLe32(p + (length - 4), static_cast<uint32_t>(insn.rel));
  }
}

std::vector<uint8_t> EncodeTrampoline(uint32_t from, uint32_t to) {
  Insn jmp;
  jmp.op = Op::kJmp32;
  jmp.rel = static_cast<int32_t>(to - (from + kTrampolineSize));
  return Encode(jmp);
}

void AppendNopFill(std::vector<uint8_t>& out, uint32_t n) {
  while (n > 0) {
    if (n == 1) {
      out.push_back(static_cast<uint8_t>(Op::kNop));
      n -= 1;
    } else if (n == 2) {
      out.push_back(static_cast<uint8_t>(Op::kNopW));
      out.push_back(0);
      n -= 2;
    } else {
      uint32_t chunk = n > 15 ? 15 : n;
      out.push_back(static_cast<uint8_t>(Op::kNopN));
      out.push_back(static_cast<uint8_t>(chunk));
      for (uint32_t i = 2; i < chunk; ++i) {
        out.push_back(0);
      }
      n -= chunk;
    }
  }
}

WalkEnd WalkInsns(std::span<const uint8_t> code,
                  const std::function<bool(uint32_t, const Insn&)>& visit) {
  WalkEnd walk;
  uint32_t pos = 0;
  while (pos < code.size()) {
    ks::Result<Insn> insn = Decode(code.subspan(pos));
    if (!insn.ok()) {
      walk.end = pos;
      walk.decode_ok = false;
      walk.error = insn.status().message();
      return walk;
    }
    bool keep_going = visit(pos, *insn);
    pos += insn->len;
    if (!keep_going) {
      break;
    }
  }
  walk.end = pos;
  return walk;
}

std::string FormatInsn(const Insn& insn) {
  const OpInfo& info = GetOpInfo(insn.op);
  if (info.mnemonic == nullptr) {
    return "(bad)";
  }
  std::string out = info.mnemonic;
  bool first = true;
  auto sep = [&]() -> std::string& {
    out += first ? " " : ", ";
    first = false;
    return out;
  };
  if (info.has_reg1) {
    sep() += ks::StrPrintf("r%u", insn.reg1);
  }
  if (info.has_reg2) {
    sep() += ks::StrPrintf("r%u", insn.reg2);
  }
  if (info.has_imm32 || info.has_imm8) {
    sep() += ks::StrPrintf("0x%x", insn.imm);
  }
  if (info.has_rel8 || info.has_rel32) {
    sep() += insn.rel < 0 ? ks::StrPrintf("-0x%x", -insn.rel)
                          : ks::StrPrintf("+0x%x", insn.rel);
  }
  return out;
}

std::string Disassemble(std::span<const uint8_t> bytes, uint32_t base_addr) {
  std::string out;
  size_t pos = 0;
  while (pos < bytes.size()) {
    ks::Result<Insn> insn = Decode(bytes.subspan(pos));
    if (!insn.ok()) {
      out += ks::StrPrintf("%08x:  .byte 0x%02x\n",
                           base_addr + static_cast<uint32_t>(pos),
                           bytes[pos]);
      ++pos;
      continue;
    }
    out += ks::StrPrintf("%08x:  %s\n", base_addr + static_cast<uint32_t>(pos),
                         FormatInsn(*insn).c_str());
    pos += insn->len;
  }
  return out;
}

}  // namespace kvx
