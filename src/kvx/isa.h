// KVX: the toy instruction-set architecture of the Ksplice reproduction.
//
// KVX is deliberately x86-flavoured in the properties Ksplice's run-pre
// matcher depends on (paper §4.3):
//  - variable-length instructions (1 to 15 bytes), so the matcher needs an
//    instruction-length table to walk code;
//  - pc-relative control flow with *two* encodings (rel8 and rel32) chosen
//    by assembler relaxation, so equal source can yield different bytes and
//    the matcher must verify that jumps point to *corresponding* locations;
//  - pc-relative displacements are relative to the END of the instruction
//    (like x86), so PCREL32 relocations carry addend -4;
//  - multi-byte no-op sequences emitted by the assembler for alignment,
//    which the matcher must recognize and skip.
//
// Registers: r0..r7 are 32-bit GPRs. By convention r6 is the frame pointer
// ("fp") and r7 the stack pointer ("sp"); CALL/RET/PUSH/POP use r7
// implicitly. Flags: Z (zero) and LT (signed less-than), set by CMP and by
// ALU register-register/register-immediate operations.

#ifndef KSPLICE_KVX_ISA_H_
#define KSPLICE_KVX_ISA_H_

#include <cstdint>
#include <functional>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"

namespace kvx {

inline constexpr int kNumRegs = 8;
inline constexpr int kRegFp = 6;
inline constexpr int kRegSp = 7;

// Length (bytes) of the trampoline jump Ksplice splices at the head of a
// replaced function: one JMP32 instruction.
inline constexpr uint32_t kTrampolineSize = 5;

// Encodes that trampoline for a function at `from`: a jmp32 to `to` (§2:
// "placing a jump instruction ... at the start of the obsolete function").
std::vector<uint8_t> EncodeTrampoline(uint32_t from, uint32_t to);

enum class Op : uint8_t {
  kHalt = 0x00,   // stop the machine (panic)
  kNop = 0x01,    // 1-byte no-op
  kNopW = 0x02,   // 2-byte no-op (0x02 0x00)
  kNopN = 0x03,   // variable no-op: 0x03 <total-len> <pad...>, len in [2,15]

  kMovRI = 0x10,   // mov r, imm32       (6 bytes; imm at +2)
  kMovRR = 0x11,   // mov rd, rs         (3)
  kLoadI = 0x14,   // load rd, [rs]      (3)  32-bit
  kStoreI = 0x15,  // store [rd], rs     (3)  32-bit
  kLoadF = 0x16,   // loadf rd, [rs]     (3)  32-bit faulting load: a bad
                   //                    address traps to the extable fixup
                   //                    covering this pc instead of faulting
  kLoadBI = 0x17,  // loadb rd, [rs]     (3)  zero-extended byte
  kStoreBI = 0x18, // storeb [rd], rs    (3)  low byte
  kBug = 0x19,     // bug                (1)  BUG() trap: always faults; the
                   //                    bug table maps the trap pc to a
                   //                    source line for the report

  kAddRR = 0x20,  // add rd, rs (3); likewise below
  kSubRR = 0x21,
  kMulRR = 0x22,
  kAndRR = 0x23,
  kOrRR = 0x24,
  kXorRR = 0x25,
  kCmpRR = 0x26,  // flags from rd - rs
  kDivRR = 0x27,  // signed; divide-by-zero faults
  kAddRI = 0x28,  // add r, imm32 (6; imm at +2); likewise below
  kSubRI = 0x29,
  kCmpRI = 0x2a,
  kAndRI = 0x2b,
  kModRR = 0x2c,  // signed remainder; zero divisor faults
  kShlRR = 0x2d,
  kShrRR = 0x2e,  // logical

  kPush = 0x30,  // push r (2)
  kPop = 0x31,   // pop r (2)

  kCall = 0x40,   // call rel32 (5; displacement at +1, from insn end)
  kCallR = 0x41,  // call [r] indirect (2)
  kRet = 0x42,    // (1)

  kJmp8 = 0x43,   // jmp rel8  (2)
  kJmp32 = 0x44,  // jmp rel32 (5)
  kJz8 = 0x45,
  kJz32 = 0x46,
  kJnz8 = 0x47,
  kJnz32 = 0x48,
  kJlt8 = 0x49,
  kJlt32 = 0x4a,
  kJge8 = 0x4b,
  kJge32 = 0x4c,
  kJgt8 = 0x4d,
  kJgt32 = 0x4e,
  kJle8 = 0x4f,
  kJle32 = 0x50,

  kSys = 0x60,  // sys imm8 (2): host service bridge
};

// Host services reachable through SYS. Arguments in r0..r2, result in r0.
enum class Sys : uint8_t {
  kPrintk = 0,        // printk(r0 = address of NUL-terminated string)
  kTicks = 1,         // r0 = current virtual tick count (instructions)
  kYield = 2,         // invite the scheduler to preempt
  kSleep = 3,         // block current thread for r0 ticks
  kTid = 4,           // r0 = current thread id
  kRand = 5,          // r0 = deterministic pseudo-random value
  kExit = 6,          // terminate current thread
  kRecord = 7,        // append (r0, r1) to the machine observation log
  kKthread = 8,       // spawn kernel thread: entry r0, argument r1; r0 = tid
  kLockKernel = 9,    // acquire the big kernel lock (blocks)
  kUnlockKernel = 10, // release the big kernel lock
  kShadowAttach = 11, // r0 = shadow_attach(obj r0, key r1, size r2)
  kShadowGet = 12,    // r0 = shadow_get(obj r0, key r1), 0 if absent
  kShadowDetach = 13, // shadow_detach(obj r0, key r1)
  kKmalloc = 14,      // r0 = kmalloc(size r0), 0 on exhaustion
  kKfree = 15,        // kfree(addr r0)
};

// A decoded instruction.
struct Insn {
  Op op = Op::kNop;
  uint8_t len = 1;
  uint8_t reg1 = 0;   // first register operand, when present
  uint8_t reg2 = 0;   // second register operand, when present
  uint32_t imm = 0;   // imm32 for *RI forms; imm8 for SYS
  int32_t rel = 0;    // sign-extended branch displacement (rel8/rel32)
};

// Static properties of an opcode.
struct OpInfo {
  const char* mnemonic = nullptr;  // null => invalid opcode
  uint8_t length = 0;              // 0 => variable (kNopN)
  bool has_reg1 = false;
  bool has_reg2 = false;
  bool has_imm32 = false;  // 4-byte immediate at offset 2
  bool has_imm8 = false;   // 1-byte immediate at offset 1 (SYS)
  bool has_rel8 = false;   // 1-byte pc-relative displacement at offset 1
  bool has_rel32 = false;  // 4-byte pc-relative displacement at last 4 bytes
  bool is_nop = false;
};

// Returns the static properties of `op`; .mnemonic == nullptr for invalid
// encodings.
const OpInfo& GetOpInfo(Op op);
const OpInfo& GetOpInfo(uint8_t opcode);

// True if the opcode has a pc-relative displacement operand.
bool IsPcRelative(Op op);

// For branch opcodes with both short and long encodings, returns the rel32
// twin of a rel8 opcode and vice versa; returns `op` unchanged otherwise.
Op LongForm(Op op);
Op ShortForm(Op op);

// True if `a` and `b` are the same control transfer modulo displacement
// width (e.g. kJz8 vs kJz32). Reflexive.
bool SameBranchFamily(Op a, Op b);

// Byte offset, within the encoded instruction, of the 32-bit field that a
// relocation may patch (imm32 or rel32). Returns -1 if the opcode has no
// such field.
int Imm32FieldOffset(Op op);

// ---- Operand-effect decoding (kanalyze side-effect summaries) --------
//
// Memory-effect classification of an instruction: whether it reads or
// writes memory, how wide the access is, and which register operands
// carry the address and the value. The toy ISA only touches memory
// through LOAD/STORE (word) and LOADB/STOREB (byte) plus the implicit
// stack traffic of PUSH/POP/CALL/RET, so an abstract interpreter can
// attribute every explicit access from these four accessors alone.

// True if `op` stores to memory through a register-held address
// (kStoreI / kStoreBI). PUSH and CALL write the stack but are excluded:
// stack traffic is frame-local by construction.
bool IsMemStore(Op op);

// True if `op` loads from memory through a register-held address
// (kLoadI / kLoadBI). POP and RET are excluded for the same reason.
bool IsMemLoad(Op op);

// Access width in bytes for a memory-touching opcode (4 for LOAD/STORE,
// 1 for LOADB/STOREB); 0 when the opcode does not access memory through
// a register address.
int MemAccessWidth(Op op);

// The register operand holding the effective address of a memory access
// ("store [rd], rs" addresses through reg1; "load rd, [rs]" through
// reg2). -1 when `insn` is not a register-addressed memory access.
int MemAddrRegister(const Insn& insn);

// The register operand carrying the stored value / receiving the loaded
// value. -1 when `insn` is not a register-addressed memory access.
int MemValueRegister(const Insn& insn);

// Decodes one instruction from `bytes`. Errors on invalid opcodes or
// truncated input. Never reads past bytes.size().
ks::Result<Insn> Decode(std::span<const uint8_t> bytes);

// ---- Shared decode walk ----------------------------------------------
//
// Every consumer that walks a code image instruction by instruction —
// run-pre canonicalization, the kanalyze CFG builder, the call-graph
// text scanner — used to carry its own copy of the decode/advance loop.
// WalkInsns is the single walker they share, so a new opcode added to
// kTable is picked up by every layer at once.

// Where a WalkInsns pass stopped and why.
struct WalkEnd {
  uint32_t end = 0;        // byte offset just past the last decoded insn
  bool decode_ok = true;   // false when the walk hit an undecodable byte
  std::string error;       // decode error message when !decode_ok
};

// Walks `code` from offset 0, decoding one instruction at a time and
// invoking `visit(offset, insn)` for each (including no-ops). A visitor
// returning false stops the walk early (the current instruction still
// counts as decoded: end advances past it, decode_ok stays true). On a
// decode error the walk stops with decode_ok=false and `end` at the
// offending offset.
WalkEnd WalkInsns(std::span<const uint8_t> code,
                  const std::function<bool(uint32_t, const Insn&)>& visit);

// Encodes `insn` (op, registers, imm, rel as applicable) into bytes, or
// appends them to `out`. For kNopN, insn.len selects the total length
// (2..15).
std::vector<uint8_t> Encode(const Insn& insn);
void Encode(const Insn& insn, std::vector<uint8_t>& out);

// Appends an alignment no-op filler of exactly `n` bytes (using kNop, kNopW
// and kNopN as appropriate), as the assembler does for .align in text.
void AppendNopFill(std::vector<uint8_t>& out, uint32_t n);

// Renders one instruction as assembly-like text, for diagnostics:
// "jz +0x12" / "mov r3, 0x42" / "call -0x30".
std::string FormatInsn(const Insn& insn);

// Disassembles a code range for diagnostics; invalid bytes become ".byte".
std::string Disassemble(std::span<const uint8_t> bytes, uint32_t base_addr);

}  // namespace kvx

#endif  // KSPLICE_KVX_ISA_H_
