#include "kanalyze/summary.h"

#include <algorithm>
#include <deque>
#include <optional>

#include "base/bytes.h"
#include "base/hash.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kanalyze/cfg.h"
#include "kcc/objcache.h"
#include "kvx/isa.h"

namespace kanalyze {

namespace {

// ---- Abstract register lattice ---------------------------------------
//
// What the interpreter knows about one register at one program point:
//   kUnknown  could hold anything
//   kConst    a known immediate (absolute addresses: not attributable)
//   kSym      address of `sym` plus `offset` (offset may be degraded)
//   kFrame    derived from fp/sp — a local; accesses are invisible
struct AbsVal {
  enum Kind : uint8_t { kUnknown, kConst, kSym, kFrame };
  Kind kind = kUnknown;
  uint32_t constant = 0;
  std::string sym;  // normalized, kSym only
  int32_t offset = 0;
  bool offset_known = true;
};

void AddImmediate(AbsVal& v, int64_t delta) {
  switch (v.kind) {
    case AbsVal::kConst:
      v.constant = static_cast<uint32_t>(v.constant + delta);
      break;
    case AbsVal::kSym:
      if (v.offset_known) {
        v.offset = static_cast<int32_t>(v.offset + delta);
      }
      break;
    case AbsVal::kFrame:
    case AbsVal::kUnknown:
      break;  // fp/sp arithmetic stays frame-derived; unknown stays unknown
  }
}

// add/sub of two register values. `sign` is +1 for add, -1 for sub.
AbsVal CombineAddSub(const AbsVal& a, const AbsVal& b, int sign) {
  if (a.kind == AbsVal::kFrame || b.kind == AbsVal::kFrame) {
    AbsVal frame;
    frame.kind = AbsVal::kFrame;
    return frame;
  }
  if (a.kind == AbsVal::kConst && b.kind == AbsVal::kConst) {
    AbsVal c;
    c.kind = AbsVal::kConst;
    c.constant = sign > 0 ? a.constant + b.constant : a.constant - b.constant;
    return c;
  }
  // symbol +/- constant keeps a provable offset; any other mix involving a
  // symbol keeps the region but degrades the offset (indexed access).
  if (a.kind == AbsVal::kSym) {
    AbsVal s = a;
    if (b.kind == AbsVal::kConst && s.offset_known) {
      s.offset = static_cast<int32_t>(
          s.offset + sign * static_cast<int64_t>(b.constant));
    } else {
      s.offset_known = false;
    }
    return s;
  }
  if (b.kind == AbsVal::kSym && sign > 0) {  // const/unknown + symbol
    AbsVal s = b;
    if (a.kind == AbsVal::kConst && s.offset_known) {
      s.offset = static_cast<int32_t>(s.offset +
                                      static_cast<int64_t>(a.constant));
    } else {
      s.offset_known = false;
    }
    return s;
  }
  return AbsVal{};  // unknown
}

// Other two-operand ALU results: a frame-derived operand keeps the result
// frame-derived (stack-alignment masks, index math on fp copies), anything
// else is unknown. Under-approximating exotic pointer crafting here can
// only suppress a finding, never invent one.
AbsVal CombineOpaque(const AbsVal& a, const AbsVal& b) {
  if (a.kind == AbsVal::kFrame || b.kind == AbsVal::kFrame) {
    AbsVal frame;
    frame.kind = AbsVal::kFrame;
    return frame;
  }
  return AbsVal{};
}

void RecordAccess(const AbsVal& addr, int width, bool is_store,
                  FunctionSummary& s) {
  switch (addr.kind) {
    case AbsVal::kFrame:
      return;  // a local: invisible to patch safety
    case AbsVal::kSym: {
      MemEffect effect;
      effect.symbol = addr.sym;
      effect.width = static_cast<uint8_t>(width);
      // Negative offsets address some *other* datum placed before the
      // symbol; keep the region but not a misattributed offset.
      if (addr.offset_known && addr.offset >= 0) {
        effect.offset = addr.offset;
        effect.offset_known = true;
      } else {
        effect.offset_known = false;
      }
      (is_store ? s.writes : s.reads).push_back(std::move(effect));
      return;
    }
    case AbsVal::kConst:   // absolute address poke
    case AbsVal::kUnknown:
      (is_store ? s.writes_unresolved : s.reads_unresolved) = true;
      return;
  }
}

const char* BlockingPrimitiveName(kvx::Sys sys) {
  switch (sys) {
    case kvx::Sys::kSleep:
      return "sleep";
    case kvx::Sys::kLockKernel:
      return "lock_kernel";
    default:
      return nullptr;
  }
}

// Relocation (if any) patching the imm32/rel32 field of the instruction at
// `insn_offset`, resolved to its symbol's name. Empty optional otherwise.
std::optional<std::string> RelocSymbolInField(const kelf::ObjectFile& object,
                                              const kelf::Section& section,
                                              const CfgInsn& ci,
                                              int32_t* addend) {
  if (!ci.reloc_in_field) {
    return std::nullopt;
  }
  int field = kvx::Imm32FieldOffset(ci.insn.op);
  if (field < 0) {
    return std::nullopt;
  }
  uint32_t at = ci.offset + static_cast<uint32_t>(field);
  for (const kelf::Relocation& reloc : section.relocs) {
    if (reloc.offset != at) {
      continue;
    }
    if (reloc.symbol < 0 ||
        reloc.symbol >= static_cast<int>(object.symbols().size())) {
      return std::nullopt;
    }
    if (addend != nullptr) {
      *addend = reloc.addend;
    }
    return object.symbols()[reloc.symbol].name;
  }
  return std::nullopt;
}

// ---- Lock-depth fixpoint ---------------------------------------------
//
// Path-sensitive walk of the big-kernel-lock depth, with the same join
// discipline as the KSA205 stack model: agreeing facts survive a join,
// disagreements degrade to unknown, so the verdict only ever claims what
// every path proves.
struct LockState {
  bool known = true;
  int32_t depth = 0;
};

LockState JoinLock(const LockState& a, const LockState& b) {
  if (!a.known || !b.known || a.depth != b.depth) {
    return {false, 0};
  }
  return a;
}

bool SameLock(const LockState& a, const LockState& b) {
  return a.known == b.known && (!a.known || a.depth == b.depth);
}

void RunLockFixpoint(const Cfg& cfg, FunctionSummary& s) {
  if (cfg.blocks.empty()) {
    return;
  }
  std::vector<std::optional<LockState>> entry(cfg.blocks.size());
  entry[0] = LockState{};
  std::deque<uint32_t> worklist{0};
  // The lattice per block has height 2 (known depth -> unknown), so the
  // fixpoint terminates even with lock sites inside loops.
  while (!worklist.empty()) {
    uint32_t bi = worklist.front();
    worklist.pop_front();
    const BasicBlock& block = cfg.blocks[bi];
    LockState state = *entry[bi];
    for (uint32_t k = 0; k < block.num_insns; ++k) {
      const kvx::Insn& insn = cfg.insns[block.first_insn + k].insn;
      if (insn.op != kvx::Op::kSys || !state.known) {
        continue;
      }
      if (static_cast<kvx::Sys>(insn.imm) == kvx::Sys::kLockKernel) {
        ++state.depth;
      } else if (static_cast<kvx::Sys>(insn.imm) == kvx::Sys::kUnlockKernel) {
        --state.depth;
      }
    }
    for (uint32_t succ : block.succ) {
      LockState next =
          entry[succ].has_value() ? JoinLock(*entry[succ], state) : state;
      if (!entry[succ].has_value() || !SameLock(*entry[succ], next)) {
        entry[succ] = next;
        worklist.push_back(succ);
      }
    }
  }
  // Evaluate every reachable RET against the converged entry states.
  for (uint32_t bi = 0; bi < cfg.blocks.size(); ++bi) {
    if (!entry[bi].has_value()) {
      continue;
    }
    const BasicBlock& block = cfg.blocks[bi];
    LockState state = *entry[bi];
    for (uint32_t k = 0; k < block.num_insns; ++k) {
      const kvx::Insn& insn = cfg.insns[block.first_insn + k].insn;
      if (insn.op == kvx::Op::kSys && state.known) {
        if (static_cast<kvx::Sys>(insn.imm) == kvx::Sys::kLockKernel) {
          ++state.depth;
        } else if (static_cast<kvx::Sys>(insn.imm) ==
                   kvx::Sys::kUnlockKernel) {
          --state.depth;
        }
      }
      if (insn.op == kvx::Op::kRet) {
        if (!state.known) {
          s.lock_exits_known = false;
        } else if (state.depth != 0 && !s.lock_imbalance) {
          s.lock_imbalance = true;
          s.lock_imbalance_depth = state.depth;
        }
      }
    }
  }
}

template <typename T>
void SortUnique(std::vector<T>& v) {
  std::sort(v.begin(), v.end());
  v.erase(std::unique(v.begin(), v.end()), v.end());
}

// ---- Serialization ----------------------------------------------------

constexpr uint32_t kSummaryMagic = 0x4b53554d;  // "KSUM"

// Bits of the flags byte, in declaration order of the summary's bools.
enum : uint8_t {
  kWritesUnresolved = 1 << 0,
  kReadsUnresolved = 1 << 1,
  kLockExitsKnown = 1 << 2,
  kLockImbalance = 1 << 3,
  kBlocks = 1 << 4,
};

void WriteEffects(ks::ByteWriter& w, const std::vector<MemEffect>& effects) {
  w.U32(static_cast<uint32_t>(effects.size()));
  for (const MemEffect& e : effects) {
    w.Str(e.symbol);
    w.I32(e.offset);
    w.U8(e.width);
    w.U8(e.offset_known ? 1 : 0);
  }
}

ks::Status ReadEffects(ks::ByteReader& r, std::vector<MemEffect>* effects) {
  KS_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  KS_RETURN_IF_ERROR(r.CheckCount(count, 10, "effect"));
  effects->resize(count);
  for (MemEffect& e : *effects) {
    KS_ASSIGN_OR_RETURN(e.symbol, r.Str());
    KS_ASSIGN_OR_RETURN(e.offset, r.I32());
    KS_ASSIGN_OR_RETURN(e.width, r.U8());
    KS_ASSIGN_OR_RETURN(uint8_t known, r.U8());
    e.offset_known = known != 0;
  }
  return ks::OkStatus();
}

template <typename Names>
void WriteNames(ks::ByteWriter& w, const Names& names) {
  w.U32(static_cast<uint32_t>(names.size()));
  for (const std::string& name : names) {
    w.Str(name);
  }
}

ks::Result<std::vector<std::string>> ReadNames(ks::ByteReader& r) {
  KS_ASSIGN_OR_RETURN(uint32_t count, r.U32());
  KS_RETURN_IF_ERROR(r.CheckCount(count, 4, "name"));
  std::vector<std::string> names(count);
  for (std::string& name : names) {
    KS_ASSIGN_OR_RETURN(name, r.Str());
  }
  return names;
}

}  // namespace

std::string MemEffect::ToString() const {
  if (offset_known) {
    return ks::StrPrintf("%s+%d/w%u", symbol.c_str(), offset,
                         static_cast<unsigned>(width));
  }
  return ks::StrPrintf("%s+?/w%u", symbol.c_str(),
                       static_cast<unsigned>(width));
}

std::string NormalizeEffectSymbol(const std::string& name) {
  return ksplice::SplitScopedName(name).symbol;
}

FunctionSummary SummarizeSection(const kelf::ObjectFile& object,
                                 const kelf::Section& section) {
  FunctionSummary s;
  Cfg cfg = BuildCfg(section);

  // Effects pass: each reachable block interpreted with fresh register
  // facts (fp/sp frame-derived, everything else unknown), so the result
  // is independent of block visit order.
  for (const BasicBlock& block : cfg.blocks) {
    if (!block.reachable) {
      continue;
    }
    std::vector<AbsVal> regs(kvx::kNumRegs);
    AbsVal frame;
    frame.kind = AbsVal::kFrame;
    regs[kvx::kRegFp] = frame;
    regs[kvx::kRegSp] = frame;
    for (uint32_t k = 0; k < block.num_insns; ++k) {
      const CfgInsn& ci = cfg.insns[block.first_insn + k];
      const kvx::Insn& insn = ci.insn;
      ++s.insns;
      switch (insn.op) {
        case kvx::Op::kMovRI: {
          int32_t addend = 0;
          std::optional<std::string> sym =
              RelocSymbolInField(object, section, ci, &addend);
          AbsVal v;
          if (sym.has_value()) {
            v.kind = AbsVal::kSym;
            v.sym = NormalizeEffectSymbol(*sym);
            v.offset = addend;
          } else {
            v.kind = AbsVal::kConst;
            v.constant = insn.imm;
          }
          regs[insn.reg1] = std::move(v);
          break;
        }
        case kvx::Op::kMovRR:
          regs[insn.reg1] = regs[insn.reg2];
          break;
        case kvx::Op::kAddRI:
          AddImmediate(regs[insn.reg1], static_cast<int64_t>(insn.imm));
          break;
        case kvx::Op::kSubRI:
          AddImmediate(regs[insn.reg1], -static_cast<int64_t>(insn.imm));
          break;
        case kvx::Op::kAddRR:
          regs[insn.reg1] =
              CombineAddSub(regs[insn.reg1], regs[insn.reg2], +1);
          break;
        case kvx::Op::kSubRR:
          regs[insn.reg1] =
              CombineAddSub(regs[insn.reg1], regs[insn.reg2], -1);
          break;
        case kvx::Op::kMulRR:
        case kvx::Op::kAndRR:
        case kvx::Op::kOrRR:
        case kvx::Op::kXorRR:
        case kvx::Op::kDivRR:
        case kvx::Op::kModRR:
        case kvx::Op::kShlRR:
        case kvx::Op::kShrRR:
          regs[insn.reg1] = CombineOpaque(regs[insn.reg1], regs[insn.reg2]);
          break;
        case kvx::Op::kAndRI:
          // Masking a frame pointer (stack alignment) stays frame-derived.
          if (regs[insn.reg1].kind != AbsVal::kFrame) {
            regs[insn.reg1] = AbsVal{};
          }
          break;
        case kvx::Op::kLoadI:
        case kvx::Op::kLoadBI:
        case kvx::Op::kStoreI:
        case kvx::Op::kStoreBI: {
          bool is_store = kvx::IsMemStore(insn.op);
          RecordAccess(regs[kvx::MemAddrRegister(insn)],
                       kvx::MemAccessWidth(insn.op), is_store, s);
          if (!is_store) {
            regs[kvx::MemValueRegister(insn)] = AbsVal{};
          }
          break;
        }
        case kvx::Op::kPop:
          if (insn.reg1 == kvx::kRegFp || insn.reg1 == kvx::kRegSp) {
            regs[insn.reg1] = frame;
          } else {
            regs[insn.reg1] = AbsVal{};
          }
          break;
        case kvx::Op::kCall:
        case kvx::Op::kCallR: {
          if (insn.op == kvx::Op::kCall) {
            std::optional<std::string> callee =
                RelocSymbolInField(object, section, ci, nullptr);
            if (callee.has_value()) {
              s.callees.push_back(NormalizeEffectSymbol(*callee));
            }
          }
          // Calling convention: callee may clobber r0..r5, preserves
          // fp/sp (the kcc prologue/epilogue contract).
          for (int r = 0; r < kvx::kNumRegs; ++r) {
            if (r != kvx::kRegFp && r != kvx::kRegSp) {
              regs[r] = AbsVal{};
            }
          }
          break;
        }
        case kvx::Op::kSys: {
          kvx::Sys sys = static_cast<kvx::Sys>(insn.imm);
          if (const char* prim = BlockingPrimitiveName(sys)) {
            s.blocks = true;
            s.blocking_primitives.insert(prim);
          }
          if (sys == kvx::Sys::kLockKernel) {
            ++s.lock_acquires;
          } else if (sys == kvx::Sys::kUnlockKernel) {
            ++s.lock_releases;
          }
          regs[0] = AbsVal{};  // result register
          break;
        }
        default:
          break;  // branches, cmp, push, nops, ret, halt: no register facts
      }
    }
  }

  RunLockFixpoint(cfg, s);

  SortUnique(s.writes);
  SortUnique(s.reads);
  SortUnique(s.callees);
  return s;
}

// ---- Serialization ----------------------------------------------------

std::vector<uint8_t> FunctionSummary::Serialize() const {
  std::vector<uint8_t> out;
  ks::ByteWriter w(out);
  w.U32(kSummaryMagic);
  w.U8((writes_unresolved ? kWritesUnresolved : 0) |
       (reads_unresolved ? kReadsUnresolved : 0) |
       (lock_exits_known ? kLockExitsKnown : 0) |
       (lock_imbalance ? kLockImbalance : 0) | (blocks ? kBlocks : 0));
  w.U32(lock_acquires);
  w.U32(lock_releases);
  w.I32(lock_imbalance_depth);
  w.U64(insns);
  WriteEffects(w, writes);
  WriteEffects(w, reads);
  WriteNames(w, callees);
  WriteNames(w, blocking_primitives);
  return out;
}

ks::Result<FunctionSummary> FunctionSummary::Deserialize(
    const std::vector<uint8_t>& bytes) {
  ks::ByteReader r(bytes, "summary");
  KS_ASSIGN_OR_RETURN(uint32_t magic, r.U32());
  if (magic != kSummaryMagic) {
    return ks::InvalidArgument("summary: bad magic");
  }
  FunctionSummary s;
  KS_ASSIGN_OR_RETURN(uint8_t flags, r.U8());
  s.writes_unresolved = (flags & kWritesUnresolved) != 0;
  s.reads_unresolved = (flags & kReadsUnresolved) != 0;
  s.lock_exits_known = (flags & kLockExitsKnown) != 0;
  s.lock_imbalance = (flags & kLockImbalance) != 0;
  s.blocks = (flags & kBlocks) != 0;
  KS_ASSIGN_OR_RETURN(s.lock_acquires, r.U32());
  KS_ASSIGN_OR_RETURN(s.lock_releases, r.U32());
  KS_ASSIGN_OR_RETURN(s.lock_imbalance_depth, r.I32());
  KS_ASSIGN_OR_RETURN(s.insns, r.U64());
  KS_RETURN_IF_ERROR(ReadEffects(r, &s.writes));
  KS_RETURN_IF_ERROR(ReadEffects(r, &s.reads));
  KS_ASSIGN_OR_RETURN(s.callees, ReadNames(r));
  KS_ASSIGN_OR_RETURN(std::vector<std::string> primitives, ReadNames(r));
  s.blocking_primitives.insert(primitives.begin(), primitives.end());
  if (!r.AtEnd()) {
    return ks::InvalidArgument("summary: trailing bytes");
  }
  return s;
}

// ---- Package-level computation ---------------------------------------

namespace {

// The content address of a direct summary: every input that reaches
// SummarizeSection — the section bytes and the shape of its relocations
// (site, type, addend, raw symbol name). The function's own name and unit
// are deliberately excluded so identical bodies share one entry.
std::string SummaryCacheKey(const kelf::ObjectFile& object,
                            const kelf::Section& section) {
  std::string key = ks::StrPrintf(
      "ksum1|%016llx|%zu",
      static_cast<unsigned long long>(ks::Fnv1a64(section.bytes)),
      section.bytes.size());
  for (const kelf::Relocation& reloc : section.relocs) {
    const std::string& name =
        (reloc.symbol >= 0 &&
         reloc.symbol < static_cast<int>(object.symbols().size()))
            ? object.symbols()[reloc.symbol].name
            : std::string();
    key += ks::StrPrintf("|%u,%d,%d,%s", reloc.offset,
                         static_cast<int>(reloc.type), reloc.addend,
                         name.c_str());
  }
  return key;
}

const kelf::ObjectFile* NodeObject(const ksplice::UpdatePackage& package,
                                   const CallNode& node) {
  const auto& objects =
      node.in_primary ? package.primary_objects : package.helper_objects;
  if (node.object_index < 0 ||
      node.object_index >= static_cast<int>(objects.size())) {
    return nullptr;
  }
  return &objects[node.object_index];
}

// Fills *out with the direct summary of `section`, served from `cache`
// when it has one (*was_hit says so). Returns whether this call
// interpreted the section itself.
bool DirectSummary(const kelf::ObjectFile& object, const kelf::Section& section,
                   kcc::ObjectCache* cache, FunctionSummary* out,
                   bool* was_hit) {
  if (cache == nullptr) {
    *out = SummarizeSection(object, section);
    return true;
  }
  std::optional<FunctionSummary> fresh;
  ks::Result<std::vector<uint8_t>> blob = cache->GetOrComputeBlob(
      SummaryCacheKey(object, section),
      [&]() -> ks::Result<std::vector<uint8_t>> {
        fresh = SummarizeSection(object, section);
        return fresh->Serialize();
      },
      was_hit);
  if (fresh.has_value()) {
    *out = std::move(*fresh);
    return true;
  }
  if (blob.ok()) {
    ks::Result<FunctionSummary> parsed = FunctionSummary::Deserialize(*blob);
    if (parsed.ok()) {
      *out = std::move(*parsed);
      return false;
    }
  }
  // Cache refused or returned an unparsable blob (fault injection,
  // version skew): summaries must never fail, so compute locally.
  *out = SummarizeSection(object, section);
  return true;
}

}  // namespace

PackageSummaries ComputeSummaries(const ksplice::UpdatePackage& package,
                                  const CallGraph& graph,
                                  kcc::ObjectCache* cache) {
  static ks::Counter& hit_counter =
      ks::Metrics().GetCounter("kanalyze.summary.cache_hits");
  static ks::Counter& miss_counter =
      ks::Metrics().GetCounter("kanalyze.summary.cache_misses");
  static ks::Counter& computed_counter =
      ks::Metrics().GetCounter("kanalyze.summary.computed");

  PackageSummaries result;
  size_t n = graph.nodes.size();
  result.functions.resize(n);
  uint64_t computed = 0;
  for (size_t i = 0; i < n; ++i) {
    const CallNode& node = graph.nodes[i];
    const kelf::ObjectFile* object = NodeObject(package, node);
    bool was_hit = false;
    // Defensive: BuildCallGraph always fills valid indices.
    if (object != nullptr && node.section_index >= 0 &&
        node.section_index < static_cast<int>(object->sections().size())) {
      computed += DirectSummary(*object, object->sections()[node.section_index],
                                cache, &result.functions[i], &was_hit);
    }
    result.insns_interpreted += result.functions[i].insns;
    if (cache != nullptr) {
      ++(was_hit ? result.cache_hits : result.cache_misses);
    }
  }
  if (cache != nullptr) {
    hit_counter.Add(result.cache_hits);
    miss_counter.Add(result.cache_misses);
  }
  computed_counter.Add(computed);

  // Transitive closure over the call graph. Packages are a handful of
  // functions, so per-node BFS is plenty.
  for (size_t i = 0; i < n; ++i) {
    FunctionSummary& s = result.functions[i];
    std::vector<uint8_t> visited(n, 0);
    std::deque<int> frontier;
    for (int callee : graph.callees[i]) {
      if (callee >= 0 && callee < static_cast<int>(n) && !visited[callee]) {
        visited[callee] = 1;
        frontier.push_back(callee);
      }
    }
    s.transitive_writes = s.writes;
    s.transitive_writes_unresolved = s.writes_unresolved;
    while (!frontier.empty()) {
      int j = frontier.front();
      frontier.pop_front();
      const FunctionSummary& callee = result.functions[j];
      s.transitive_writes.insert(s.transitive_writes.end(),
                                 callee.writes.begin(), callee.writes.end());
      s.transitive_writes_unresolved |= callee.writes_unresolved;
      s.reachable_blocking.insert(callee.blocking_primitives.begin(),
                                  callee.blocking_primitives.end());
      for (int next : graph.callees[j]) {
        if (next >= 0 && next < static_cast<int>(n) && !visited[next]) {
          visited[next] = 1;
          frontier.push_back(next);
        }
      }
    }
    SortUnique(s.transitive_writes);
  }
  return result;
}

}  // namespace kanalyze
