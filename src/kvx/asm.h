// The KVX assembler ("kas"): translates textual assembly into kelf object
// files. It plays the role gas plays in the paper's pipeline — kcc emits
// assembly text, kas assembles it; hand-written .kvs files (the analogue of
// the kernel's ia32entry.S) go through the same path.
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
//   name:                         define symbol (function in .text)
//   .name:                        section-local label (branch target only)
//   mov r0, 42 | mov r0, =sym+4 | mov r0, r1
//   add/sub/cmp/and r, (r|imm)   mul/or/xor/div/mod/shl/shr r, r
//   load r, [r] | store [r], r | loadb r, [r] | storeb [r], r
//   push r | pop r | call sym | callr r | ret | jmp/jz/jnz/jlt/jge/jgt/jle t
//   sys N | halt | nop

#ifndef KSPLICE_KVX_ASM_H_
#define KSPLICE_KVX_ASM_H_

#include <string>
#include <string_view>

#include "base/status.h"
#include "kelf/objfile.h"

namespace kvx {

struct AsmOptions {
  bool function_sections = false;
  bool data_sections = false;
};

// Assembles `source` into an object file named `source_name`.
ks::Result<kelf::ObjectFile> Assemble(std::string_view source,
                                      std::string source_name,
                                      const AsmOptions& options);

}  // namespace kvx

#endif  // KSPLICE_KVX_ASM_H_
