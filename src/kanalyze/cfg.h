// CFG recovery + bytecode verification for one function's kvx code
// (kanalyze pass 2). Decodes a text section into basic blocks and checks
// the properties that make a replacement function safe to splice:
// every instruction decodes, every resolved branch lands on an
// instruction boundary inside the function, control cannot run off the
// end, dead blocks beyond alignment padding are flagged, and the stack is
// balanced when the function returns.
//
// Branch displacements covered by a relocation are external control
// transfers (the assembler resolves intra-section branches inline and
// leaves cross-section ones to the linker) and are not treated as
// intra-function jumps.
//
// The stack model is a small abstract interpretation over the byte depth
// of the frame: PUSH/POP move it by 4, ADD/SUB on sp by the immediate,
// `mov fp, sp` snapshots it and `mov sp, fp` restores the snapshot (the
// kcc prologue/epilogue idiom). Anything the model cannot follow — an
// indexed write to sp, `mov sp, fp` after fp was clobbered — degrades the
// depth to unknown instead of guessing, so KSA205 only fires on provable
// imbalance.

#ifndef KSPLICE_KANALYZE_CFG_H_
#define KSPLICE_KANALYZE_CFG_H_

#include <cstdint>
#include <span>
#include <vector>

#include "base/status.h"
#include "kelf/objfile.h"
#include "ksplice/report.h"
#include "kvx/isa.h"

namespace kanalyze {

struct CfgInsn {
  uint32_t offset = 0;
  kvx::Insn insn;
  bool reloc_in_field = false;  // imm32/rel32 field is a relocation site
};

struct BasicBlock {
  uint32_t start = 0;  // byte range [start, end) within the section
  uint32_t end = 0;
  uint32_t first_insn = 0;  // index into Cfg::insns
  uint32_t num_insns = 0;
  std::vector<uint32_t> succ;     // successor block indices
  bool reachable = false;
  bool terminated = false;  // ends in ret / jmp / halt
  bool falls_off = false;   // fallthrough would leave the section
  bool nops_only = true;    // alignment padding candidate
};

struct Cfg {
  uint32_t size = 0;  // section bytes
  std::vector<CfgInsn> insns;
  std::vector<BasicBlock> blocks;
  // Linear decode stopped early (undecodable byte / truncated insn).
  bool decode_ok = true;
  uint32_t decode_error_offset = 0;
  std::string decode_error;
  // Resolved intra-section branch targets that are invalid: (branch
  // offset, target) pairs where the target is out of bounds or not an
  // instruction boundary.
  std::vector<std::pair<uint32_t, uint32_t>> wild_jumps;
};

// Decodes `section` into a CFG. Structural problems are recorded in the
// returned Cfg, not surfaced as a Status — the caller turns them into
// typed findings. `extra_entry_points` are section offsets reached from
// outside the static control flow (exception-table fixup targets: the
// fault dispatcher jumps there, so they seed reachability alongside
// offset 0).
Cfg BuildCfg(const kelf::Section& section,
             std::span<const uint32_t> extra_entry_points = {});

// Runs all CFG/bytecode checks over one changed function and appends
// findings (KSA201..KSA205) to `report`. Returns the number of basic
// blocks analyzed.
size_t VerifyFunction(const std::string& unit, const std::string& symbol,
                      const kelf::Section& section,
                      ksplice::LintReport* report,
                      std::span<const uint32_t> extra_entry_points = {});

}  // namespace kanalyze

#endif  // KSPLICE_KANALYZE_CFG_H_
