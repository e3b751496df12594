#include "kanalyze/cfg.h"

#include <algorithm>
#include <deque>
#include <optional>
#include <set>

#include "base/strings.h"
#include "kanalyze/rules.h"

namespace kanalyze {

namespace {

using ksplice::LintReport;

bool IsTerminator(kvx::Op op) {
  return op == kvx::Op::kRet || op == kvx::Op::kHalt ||
         op == kvx::Op::kJmp8 || op == kvx::Op::kJmp32;
}

bool IsBranch(const kvx::OpInfo& info) {
  return info.has_rel8 || info.has_rel32;
}

// Unconditional control transfer: no fallthrough edge.
bool NoFallthrough(kvx::Op op) {
  return op == kvx::Op::kRet || op == kvx::Op::kHalt ||
         op == kvx::Op::kJmp8 || op == kvx::Op::kJmp32;
}

// ---- Stack-balance abstract interpretation ---------------------------

struct StackState {
  bool known = true;
  int32_t depth = 0;  // bytes pushed since function entry
  bool fp_known = false;
  int32_t fp_depth = 0;  // depth snapshotted by `mov fp, sp`

  bool operator==(const StackState& other) const {
    if (known != other.known || fp_known != other.fp_known) {
      return false;
    }
    return (!known || depth == other.depth) &&
           (!fp_known || fp_depth == other.fp_depth);
  }
};

// Joins two path states: agreeing facts survive, disagreements degrade to
// unknown (a conditional push on one path is legal code, not a finding —
// only a provably wrong depth at RET is).
StackState Join(const StackState& a, const StackState& b) {
  StackState out;
  out.known = a.known && b.known && a.depth == b.depth;
  out.depth = out.known ? a.depth : 0;
  out.fp_known = a.fp_known && b.fp_known && a.fp_depth == b.fp_depth;
  out.fp_depth = out.fp_known ? a.fp_depth : 0;
  return out;
}

// The register an instruction writes, or -1.
int DestRegister(const kvx::Insn& insn) {
  switch (insn.op) {
    case kvx::Op::kMovRI:
    case kvx::Op::kMovRR:
    case kvx::Op::kLoadI:
    case kvx::Op::kLoadBI:
    case kvx::Op::kAddRR:
    case kvx::Op::kSubRR:
    case kvx::Op::kMulRR:
    case kvx::Op::kAndRR:
    case kvx::Op::kOrRR:
    case kvx::Op::kXorRR:
    case kvx::Op::kDivRR:
    case kvx::Op::kModRR:
    case kvx::Op::kShlRR:
    case kvx::Op::kShrRR:
    case kvx::Op::kAddRI:
    case kvx::Op::kSubRI:
    case kvx::Op::kAndRI:
    case kvx::Op::kPop:
      return insn.reg1;
    case kvx::Op::kSys:
      return 0;  // results land in r0
    default:
      return -1;
  }
}

// Applies one instruction to the state. Returns the depth the state had
// if the instruction is a RET (for the balance check), else nullopt.
std::optional<StackState> ApplyInsn(const kvx::Insn& insn,
                                    StackState state) {
  switch (insn.op) {
    case kvx::Op::kPush:
      state.depth += 4;
      return state;
    case kvx::Op::kPop:
      state.depth -= 4;
      if (insn.reg1 == kvx::kRegFp) {
        state.fp_known = false;  // caller's fp: unknowable here
      }
      return state;
    case kvx::Op::kSubRI:
      if (insn.reg1 == kvx::kRegSp) {
        state.depth += static_cast<int32_t>(insn.imm);
        return state;
      }
      break;
    case kvx::Op::kAddRI:
      if (insn.reg1 == kvx::kRegSp) {
        state.depth -= static_cast<int32_t>(insn.imm);
        return state;
      }
      break;
    case kvx::Op::kMovRR:
      if (insn.reg1 == kvx::kRegFp && insn.reg2 == kvx::kRegSp) {
        state.fp_known = state.known;
        state.fp_depth = state.depth;
        return state;
      }
      if (insn.reg1 == kvx::kRegSp && insn.reg2 == kvx::kRegFp) {
        state.known = state.fp_known;
        state.depth = state.fp_depth;
        return state;
      }
      break;
    default:
      break;
  }
  int dest = DestRegister(insn);
  if (dest == kvx::kRegSp) {
    state.known = false;  // arithmetic on sp the model cannot follow
  } else if (dest == kvx::kRegFp) {
    state.fp_known = false;
  }
  return state;
}

// Index of the instruction that starts at `offset` in `insns` (offset
// order), or -1 when `offset` is not an instruction boundary.
int64_t InsnAt(const std::vector<CfgInsn>& insns, int64_t offset) {
  auto it = std::lower_bound(
      insns.begin(), insns.end(), offset,
      [](const CfgInsn& entry, int64_t at) { return entry.offset < at; });
  return it != insns.end() && it->offset == offset ? it - insns.begin() : -1;
}

}  // namespace

Cfg BuildCfg(const kelf::Section& section,
             std::span<const uint32_t> extra_entry_points) {
  Cfg cfg;
  cfg.size = static_cast<uint32_t>(section.bytes.size());

  std::vector<uint32_t> reloc_fields;
  reloc_fields.reserve(section.relocs.size());
  for (const kelf::Relocation& rel : section.relocs) {
    reloc_fields.push_back(rel.offset);
  }
  std::sort(reloc_fields.begin(), reloc_fields.end());

  // ---- Linear decode. cfg.insns is in offset order, so it doubles as the
  // set of instruction boundaries.
  kvx::WalkEnd walk = kvx::WalkInsns(
      std::span<const uint8_t>(section.bytes),
      [&](uint32_t off, const kvx::Insn& insn) {
        CfgInsn entry;
        entry.offset = off;
        entry.insn = insn;
        int field = kvx::Imm32FieldOffset(insn.op);
        entry.reloc_in_field =
            field >= 0 &&
            std::binary_search(reloc_fields.begin(), reloc_fields.end(),
                               off + static_cast<uint32_t>(field));
        // rel8 displacements live at offset 1 and are never relocation
        // sites, but a reloc anywhere inside the instruction still means
        // "patched by the linker" — stay conservative.
        cfg.insns.push_back(entry);
        return true;
      });
  if (!walk.decode_ok) {
    cfg.decode_ok = false;
    cfg.decode_error_offset = walk.end;
    cfg.decode_error = walk.error;
  }
  const uint32_t decoded_end = walk.end;
  const size_t num_insns = cfg.insns.size();

  // ---- Branch targets and leaders, by instruction index. Offset 0 always
  // leads; `next < decoded_end` means instruction i + 1 starts at `next`.
  std::vector<bool> leader(num_insns, false);
  std::vector<int64_t> branch_target(num_insns, -1);
  if (num_insns != 0) {
    leader[0] = true;
  }
  for (size_t i = 0; i < num_insns; ++i) {
    const CfgInsn& entry = cfg.insns[i];
    const kvx::OpInfo& info = kvx::GetOpInfo(entry.insn.op);
    uint32_t next = entry.offset + entry.insn.len;
    if (IsBranch(info) && !entry.reloc_in_field &&
        entry.insn.op != kvx::Op::kCall) {
      int64_t target = static_cast<int64_t>(next) + entry.insn.rel;
      int64_t at = InsnAt(cfg.insns, target);
      if (at < 0) {
        cfg.wild_jumps.emplace_back(
            entry.offset,
            static_cast<uint32_t>(static_cast<int64_t>(target) & 0xffffffff));
      } else {
        branch_target[i] = at;
        leader[static_cast<size_t>(at)] = true;
      }
      if (next < decoded_end) {
        leader[i + 1] = true;  // block ends at any branch
      }
    } else if (IsTerminator(entry.insn.op) && next < decoded_end) {
      leader[i + 1] = true;
    }
  }

  // ---- Blocks: each runs from its leader to the next (or decoded_end).
  // With nothing decoded, one empty block stands at offset 0.
  std::vector<uint32_t> block_of_insn(num_insns);
  if (num_insns == 0) {
    cfg.blocks.emplace_back();
  }
  for (size_t i = 0; i < num_insns; ++i) {
    const CfgInsn& entry = cfg.insns[i];
    if (leader[i]) {
      if (!cfg.blocks.empty()) {
        cfg.blocks.back().end = entry.offset;
      }
      BasicBlock& block = cfg.blocks.emplace_back();
      block.start = entry.offset;
      block.first_insn = static_cast<uint32_t>(i);
    }
    BasicBlock& block = cfg.blocks.back();
    if (!kvx::GetOpInfo(entry.insn.op).is_nop) {
      block.nops_only = false;
    }
    ++block.num_insns;
    block_of_insn[i] = static_cast<uint32_t>(cfg.blocks.size() - 1);
  }
  cfg.blocks.back().end = decoded_end;

  // ---- Edges.
  for (size_t i = 0; i < cfg.blocks.size(); ++i) {
    BasicBlock& block = cfg.blocks[i];
    if (block.num_insns == 0) {
      continue;
    }
    uint32_t last = block.first_insn + block.num_insns - 1;
    block.terminated = NoFallthrough(cfg.insns[last].insn.op);
    if (branch_target[last] >= 0) {
      block.succ.push_back(
          block_of_insn[static_cast<size_t>(branch_target[last])]);
    }
    if (!block.terminated) {
      if (block.end < decoded_end) {
        block.succ.push_back(static_cast<uint32_t>(i + 1));
      } else {
        block.falls_off = true;
      }
    }
  }

  // ---- Reachability from the function entry plus any out-of-band entry
  // points (extable fixup targets: control arrives from the fault
  // dispatcher, not from a decoded branch). An extra point that is not a
  // block leader is ignored here — the howto pass's KSA602 owns
  // mid-instruction table targets.
  std::deque<uint32_t> queue{0};
  for (uint32_t entry_point : extra_entry_points) {
    int64_t at = InsnAt(cfg.insns, entry_point);
    if (at >= 0 && leader[static_cast<size_t>(at)]) {
      queue.push_back(block_of_insn[static_cast<size_t>(at)]);
    }
  }
  while (!queue.empty()) {
    uint32_t at = queue.front();
    queue.pop_front();
    if (cfg.blocks[at].reachable) {
      continue;
    }
    cfg.blocks[at].reachable = true;
    for (uint32_t next : cfg.blocks[at].succ) {
      queue.push_back(next);
    }
  }
  return cfg;
}

size_t VerifyFunction(const std::string& unit, const std::string& symbol,
                      const kelf::Section& section, LintReport* report,
                      std::span<const uint32_t> extra_entry_points) {
  Cfg cfg = BuildCfg(section, extra_entry_points);
  report->insns_decoded += cfg.insns.size();

  // KSA201: undecodable instruction.
  if (!cfg.decode_ok) {
    AddFinding(report, "KSA201", unit, symbol,
               ks::StrPrintf("undecodable instruction (%s)",
                             cfg.decode_error.c_str()),
               "replacement code must be valid kvx; check .byte directives "
               "and truncated instructions in hand-written assembly",
               cfg.decode_error_offset);
  }

  // KSA202: wild jumps.
  for (const auto& [branch_off, target] : cfg.wild_jumps) {
    AddFinding(report, "KSA202", unit, symbol,
               ks::StrPrintf("jump to 0x%x is outside the function or lands "
                             "inside an instruction (%u code bytes)",
                             target, cfg.size),
               "intra-function branches must target instruction "
               "boundaries; out-of-function control flow needs a "
               "relocation",
               branch_off);
  }

  // KSA203: control can run off the end (only meaningful when the whole
  // section decoded — an undecodable tail is already KSA201).
  if (cfg.decode_ok) {
    for (const BasicBlock& block : cfg.blocks) {
      if (block.reachable && block.falls_off && block.num_insns > 0) {
        AddFinding(report, "KSA203", unit, symbol,
                   "control falls off the end of the function",
                   "end every path with ret, jmp, or halt", block.end);
      }
    }
  }

  // KSA204: dead blocks (beyond nop alignment padding and undecoded
  // tails, which KSA201 already covers).
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable && !block.nops_only && block.num_insns > 0) {
      AddFinding(report, "KSA204", unit, symbol,
                 ks::StrPrintf("unreachable code at 0x%x (%u instruction(s))",
                               block.start, block.num_insns),
                 "dead blocks waste splice bytes and often indicate a wrong "
                 "branch polarity in the patch",
                 block.start);
    }
  }

  // KSA205: stack balance at every reachable RET.
  std::vector<std::optional<StackState>> entry_state(cfg.blocks.size());
  if (!cfg.blocks.empty() && cfg.blocks[0].reachable) {
    entry_state[0] = StackState{};
    std::deque<uint32_t> worklist{0};
    std::set<uint32_t> reported_rets;
    while (!worklist.empty()) {
      uint32_t at = worklist.front();
      worklist.pop_front();
      const BasicBlock& block = cfg.blocks[at];
      StackState state = *entry_state[at];
      for (uint32_t i = 0; i < block.num_insns; ++i) {
        const CfgInsn& entry = cfg.insns[block.first_insn + i];
        if (entry.insn.op == kvx::Op::kRet && state.known &&
            state.depth != 0 && reported_rets.insert(entry.offset).second) {
          AddFinding(report, "KSA205", unit, symbol,
                     ks::StrPrintf("returns with %d byte(s) left on the "
                                   "frame",
                                   state.depth),
                     "pushes and pops must balance on every path to ret",
                     entry.offset);
        }
        state = *ApplyInsn(entry.insn, state);
      }
      for (uint32_t next : block.succ) {
        StackState joined = entry_state[next].has_value()
                                ? Join(*entry_state[next], state)
                                : state;
        if (!entry_state[next].has_value() ||
            !(joined == *entry_state[next])) {
          entry_state[next] = joined;
          worklist.push_back(next);
        }
      }
    }
  }

  report->blocks_analyzed += cfg.blocks.size();
  return cfg.blocks.size();
}

}  // namespace kanalyze
