// The KVX assembler ("kas"): builds kelf object files from assembly
// statements. It plays the role gas plays in the paper's pipeline. kcc's
// code generator hands it statements directly, with no text in between;
// hand-written .kvs files (the analogue of the kernel's ia32entry.S) go
// through a thin text front end that parses each line into the same
// statements. Print renders statements as text, for listings.
//
// Behaviours that matter to Ksplice:
//  - Jump relaxation: intra-section branches to known labels use the rel8
//    form when the displacement fits and the rel32 form otherwise.
//    Cross-section and undefined targets always use rel32 plus a PCREL32
//    relocation with addend -4.
//  - -ffunction-sections / -fdata-sections: when enabled, every non-local
//    label in .text/.data/.bss starts a fresh section named
//    ".text.<name>" / ".data.<name>" / ".bss.<name>". When disabled, the
//    whole file shares one ".text"/".data"/".bss" and intra-file branches
//    are resolved at assembly time with no relocation — exactly the
//    monolithic layout the paper says makes naive differencing useless.
//  - Function alignment: a no-op filler pads text to an 8-byte boundary
//    before every function label, so run images contain inter-function
//    no-op sequences the matcher must skip.
//
// Syntax (one statement per line; ';' or '#' start comments):
//   .text | .data | .bss          segment switch
//   .global NAME                  export NAME
//   .align N                      pad to N (no-ops in text, zeroes in data)
//   .word expr[, expr...]         32-bit values; symbols produce ABS32 relocs
//   .byte n[, n...]               8-bit values
//   .space N                      N zero bytes (the only payload in .bss)
//   .asciz "text"                 NUL-terminated string
//   .ksplice_apply SYM            pointer in note section ".ksplice.apply"
//     (likewise .ksplice_pre_apply, .ksplice_post_apply, .ksplice_reverse,
//      .ksplice_pre_reverse, .ksplice_post_reverse)
//   .howto_section NAME           literally named data section; labels in
//                                 it define symbols in place
//   .extable_entry FN, INSN, FIX  exception-table entry in ".extable.FN"
//   .bug_entry FN, TRAP, LINE     bug-table entry in ".bug_table.FN"
//   name:                         define symbol (function in .text)
//   .name:                        section-local label (branch target only)
//   mov r0, 42 | mov r0, =sym+4 | mov r0, r1
//   add/sub/cmp/and r, (r|imm)   mul/or/xor/div/mod/shl/shr r, r
//   load r, [r] | store [r], r | loadb r, [r] | storeb [r], r
//   push r | pop r | call sym | callr r | ret | jmp/jz/jnz/jlt/jge/jgt/jle t
//   sys N | halt | nop

#ifndef KSPLICE_KVX_ASM_H_
#define KSPLICE_KVX_ASM_H_

#include <memory>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"
#include "kvx/isa.h"

namespace kvx {

struct AsmOptions {
  bool function_sections = false;
  bool data_sections = false;
};

// One assembly statement: what one line of the syntax above says.
struct Stmt {
  enum class Kind : uint8_t {
    kText, kData, kBss,  // segment switch
    kSection,            // .howto_section name
    kGlobal,             // .global name
    kLabel,              // name:
    kInsn,               // insn; with a name, its imm32 is name+value
    kBranch,             // insn.op (a long-form jump, or kCall) to name
    kAlign,              // .align value
    kWord,               // .word value, or .word name+value
    kByte,               // .byte value
    kSpace,              // .space value
    kAsciz,              // .asciz: name holds the raw bytes
    kHook,               // .ksplice_<args[0]> name
    kExtable,            // .extable_entry name, args[0], args[1]
    kBug,                // .bug_entry name, args[0], value
  };
  Stmt() = default;
  explicit Stmt(Kind k, std::string n = "", int64_t v = 0)
      : kind(k), value(v), name(std::move(n)) {}

  Kind kind = Kind::kInsn;
  Insn insn;
  int64_t value = 0;
  std::string name;
  std::vector<std::string> args;  // the rare operands after name
};

// Assembles statements, in the order they are added, into one object file
// named `source_name`.
class Assembler {
 public:
  Assembler(std::string source_name, const AsmOptions& options);
  ~Assembler();

  // The i-th statement added counts as line i + 1 in error messages, as in
  // Print's output. After an error, Add ignores what follows.
  void Add(std::span<const Stmt> program);
  // Returns the first error, or relaxes branches and emits the object. Call
  // once, after the last Add.
  ks::Result<kelf::ObjectFile> Finish();

 private:
  class Impl;
  std::unique_ptr<Impl> impl_;
};

// Parses `source` (the syntax above) and assembles it.
ks::Result<kelf::ObjectFile> Assemble(std::string_view source,
                                      std::string source_name,
                                      const AsmOptions& options);

// Renders `program` as assembly text, one line per statement, which
// Assemble(std::string_view, ...) reads back to the same object.
std::string Print(std::span<const Stmt> program);

}  // namespace kvx

#endif  // KSPLICE_KVX_ASM_H_
