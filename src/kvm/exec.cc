// The KVX interpreter: instruction execution and the SYS host bridge.
//
// Flag semantics: CMP and all ALU operations (add/sub/mul/div/mod/and/or/
// xor/shl/shr) set Z (result zero) and LT (signed: for CMP, a < b; for ALU,
// result < 0). MOV, LOAD, STORE, PUSH, POP, and control transfers preserve
// flags — kcc relies on this to materialize comparison results.

#include <algorithm>
#include <cstring>
#include <memory>
#include <span>
#include <vector>

#include "base/endian.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kvm/machine.h"
#include "kvx/isa.h"

namespace kvm {

namespace {

constexpr uint32_t kMaxPrintkLength = 4096;

// kvx::Decode sees this many bytes of a fetch (fewer at the very end of
// memory).
constexpr uint32_t kFetchWindow = 16;
// Decodes per run, and the bytes they can span: every KVX instruction but
// nopn is at most 6 bytes, and a nopn (at most 15) ends its run. A build
// stops short of kRunBytes whatever the lengths, and the longest
// instruction (15 bytes) always fits as the first.
constexpr uint32_t kRunCapacity = 16;
constexpr uint32_t kRunBytes = (kRunCapacity - 1) * 6 + 15;
// The index is open-addressed by entry pc and kept at most half full; a
// pool that reaches kMaxRuns is emptied and refilled.
constexpr uint32_t kIndexBits = 13;
constexpr uint32_t kMaxRuns = 1u << (kIndexBits - 1);

// True for the instructions that end a run: every control transfer (the
// pc-relative ones are the jumps and `call`), the traps, the faulting load
// (its extable fixup is a transfer) and nopn.
bool EndsRun(kvx::Op op) {
  using kvx::Op;
  return kvx::IsPcRelative(op) || op == Op::kCallR || op == Op::kRet ||
         op == Op::kSys || op == Op::kHalt || op == Op::kBug ||
         op == Op::kLoadF || op == Op::kNopN;
}

}  // namespace

// One decoded instruction: no opcode has both an imm and a rel.
struct Machine::Decoded {
  kvx::Op op;
  uint8_t len;
  uint8_t reg1;
  uint8_t reg2;
  uint32_t operand;
};

// A straight-line run: the decodes of the instructions from `pc` up to
// and including the first that ends a run (EndsRun), or up to
// kRunCapacity, or up to a decode error (excluded), together with the
// guest bytes [pc, pc + size) they came from. Decode reads nothing of an
// instruction beyond its own bytes, so while those bytes equal memory the
// decodes are exactly what fetching one instruction at a time would see.
struct Machine::DecodedRun {
  uint32_t pc = 0;
  uint8_t count = 0;  // 0: not built
  uint8_t size = 0;
  Decoded insns[kRunCapacity];
  uint8_t bytes[kRunBytes];

  // True if the `width` bytes at `addr` overlap this run's code.
  bool Covers(uint32_t addr, uint32_t width) const {
    return addr < pc + size && addr + width > pc;
  }
};

// The calling host thread's runs: an index from entry pc to a slot in a
// dense pool that grows only as new entry pcs are first seen. A run is
// checked against memory on every entry, so one table serves every
// machine a host thread runs.
class Machine::RunTable {
 public:
  RunTable() : index_(size_t{1} << kIndexBits) {}

  // The run whose entry is `pc`, or a fresh unbuilt slot claimed for it.
  DecodedRun& Slot(uint32_t pc) {
    constexpr uint32_t mask = (1u << kIndexBits) - 1;
    // Keyed by pc itself, not a hash of it: the runs of one stretch of
    // code share index lines, which helps code that runs cold (a hook
    // inside a stop window).
    uint32_t i = (pc >> 1) & mask;
    for (; index_[i].pc != 0; i = (i + 1) & mask) {
      if (index_[i].pc == pc) {
        return At(index_[i].slot);
      }
    }
    if (size_ == kMaxRuns) {
      std::fill(index_.begin(), index_.end(), IndexEntry{});
      size_ = 0;
      return Slot(pc);
    }
    if (size_ == chunks_.size() * kChunkRuns) {
      chunks_.push_back(std::make_unique<DecodedRun[]>(kChunkRuns));
    }
    index_[i] = IndexEntry{pc, size_};
    DecodedRun& run = At(size_++);
    run.pc = pc;
    run.count = 0;
    return run;
  }

 private:
  // The pool grows a chunk at a time and never moves a run, so a growing
  // pool costs no copy and holds no second copy at its peak.
  static constexpr uint32_t kChunkRuns = 64;

  DecodedRun& At(uint32_t slot) {
    return chunks_[slot / kChunkRuns][slot % kChunkRuns];
  }

  struct IndexEntry {
    uint32_t pc = 0;  // 0 marks an empty entry: pc 0 is never fetched
    uint32_t slot = 0;
  };
  std::vector<IndexEntry> index_;
  std::vector<std::unique_ptr<DecodedRun[]>> chunks_;
  uint32_t size_ = 0;  // runs in use, in slots [0, size_)
};

// One table per host thread, created on its first guest instruction: a
// fleet of machines, or a fresh machine per pass, pays for one table, and
// a virtual CPU never shares its table with another.
Machine::RunTable& Machine::ThisThreadRunTable() {
  thread_local RunTable table;
  return table;
}

const Machine::DecodedRun* Machine::FetchRun(Thread& thread,
                                             RunTable& table) {
  const uint32_t pc = thread.pc;
  if (!InBounds(pc, 1)) {
    FaultThread(thread, "instruction fetch out of bounds");
    return nullptr;
  }
  const uint8_t* code = memory_.data() + pc;
  const uint32_t limit = static_cast<uint32_t>(memory_.size()) - pc;
  DecodedRun& run = table.Slot(pc);
  if (run.count != 0 && run.size <= limit &&
      std::memcmp(run.bytes, code, run.size) == 0) {
    return &run;
  }
  run.count = 0;
  uint32_t size = 0;
  while (run.count < kRunCapacity) {
    ks::Result<kvx::Insn> decoded = kvx::Decode(std::span<const uint8_t>(
        code + size, std::min(kFetchWindow, limit - size)));
    if (!decoded.ok()) {
      if (run.count == 0) {
        FaultThread(thread,
                    "illegal instruction: " + decoded.status().message());
        return nullptr;
      }
      break;
    }
    if (size + decoded->len > kRunBytes) {
      break;
    }
    run.insns[run.count++] =
        Decoded{decoded->op, decoded->len, decoded->reg1, decoded->reg2,
                decoded->imm | static_cast<uint32_t>(decoded->rel)};
    size += decoded->len;
    if (EndsRun(decoded->op)) {
      break;
    }
  }
  run.size = static_cast<uint8_t>(size);
  std::memcpy(run.bytes, code, size);
  return &run;
}

template <typename T>
void Machine::CapLog(std::vector<T>& log) {
  if (config_.max_log_lines == 0) {
    return;
  }
  while (log.size() > config_.max_log_lines) {
    log.erase(log.begin());
    ++dropped_log_lines_;
  }
}

void Machine::FaultThread(Thread& thread, std::string reason) {
  thread.state = ThreadState::kFaulted;
  thread.fault = reason;
  FaultRecord record;
  record.tid = thread.tid;
  record.pc = thread.pc;
  record.tick = ticks_;
  record.reason = std::move(reason);
  fault_records_.push_back(std::move(record));
  KS_LOG(kDebug) << "thread fault: " << fault_records_.back().ToString();
  CapLog(fault_records_);
  ++total_faults_;
  static ks::Counter& faults = ks::Metrics().GetCounter("kvm.faults");
  faults.Add(1);
}

// Executes `insn`, the decode of the instruction at thread.pc in `run`, as
// the instruction of tick `tick`. Inlined into its one caller, the run
// loop.
[[gnu::always_inline]] inline Machine::Step Machine::StepLocked(
    Thread& thread, const Decoded& insn, const DecodedRun& run,
    uint64_t tick) {
  Step step = Step::kNext;
  uint32_t* regs = thread.regs;
  uint32_t next_pc = thread.pc + insn.len;

  // The run loop advances ticks_ once per run; whatever reads it during
  // the run sees it synced to this instruction first.
  auto fault = [&](std::string reason) {
    ticks_ = tick;
    FaultThread(thread, std::move(reason));
  };
  auto set_flags = [&](uint32_t result) {
    thread.flag_zero = result == 0;
    thread.flag_lt = static_cast<int32_t>(result) < 0;
  };
  auto push = [&](uint32_t value) -> bool {
    uint32_t sp = regs[7] - 4;
    if (sp < thread.stack_base) {
      fault("stack overflow");
      return false;
    }
    ks::WriteLe32(memory_.data() + sp, value);
    regs[7] = sp;
    return true;
  };
  auto pop = [&](uint32_t* value) -> bool {
    uint32_t sp = regs[7];
    if (sp + 4 > thread.stack_top) {
      fault("stack underflow");
      return false;
    }
    *value = ks::ReadLe32(memory_.data() + sp);
    regs[7] = sp + 4;
    return true;
  };
  auto branch_if = [&](bool condition) {
    if (condition) {
      next_pc += insn.operand;
    }
  };

  using kvx::Op;
  switch (insn.op) {
    case Op::kHalt:
      halted_ = true;
      fault("halt (kernel panic)");
      return Step::kStop;
    case Op::kNop:
    case Op::kNopW:
    case Op::kNopN:
      break;

    case Op::kMovRI:
      regs[insn.reg1] = insn.operand;
      break;
    case Op::kMovRR:
      regs[insn.reg1] = regs[insn.reg2];
      break;

    case Op::kLoadI: {
      uint32_t addr = regs[insn.reg2];
      if (!InBounds(addr, 4)) {
        fault(ks::StrPrintf("bad load at %s", ks::Hex32(addr).c_str()));
        return Step::kStop;
      }
      regs[insn.reg1] = ks::ReadLe32(memory_.data() + addr);
      break;
    }
    case Op::kStoreI: {
      uint32_t addr = regs[insn.reg1];
      if (!InBounds(addr, 4)) {
        fault(ks::StrPrintf("bad store at %s", ks::Hex32(addr).c_str()));
        return Step::kStop;
      }
      ks::WriteLe32(memory_.data() + addr, regs[insn.reg2]);
      if (run.Covers(addr, 4)) {
        step = Step::kRefetch;
      }
      break;
    }
    case Op::kLoadF: {
      // Faulting load: a bad address dispatches through the exception
      // table instead of killing the thread. The table is keyed by the
      // address of the LOADF instruction itself, and is consulted in
      // guest memory at fault time — so an applied patch that rewrote a
      // fixup word (or a module that registered a new table) takes
      // effect immediately.
      uint32_t addr = regs[insn.reg2];
      if (InBounds(addr, 4)) {
        regs[insn.reg1] = ks::ReadLe32(memory_.data() + addr);
        break;
      }
      std::optional<uint32_t> fixup = ExtableFixupFor(thread.pc);
      if (fixup.has_value()) {
        ++extable_fixups_;
        static ks::Counter& fixups =
            ks::Metrics().GetCounter("kvm.extable_fixups");
        fixups.Add(1);
        next_pc = *fixup;
        break;
      }
      fault(ks::StrPrintf("bad faulting load at %s with no extable entry",
                          ks::Hex32(addr).c_str()));
      return Step::kStop;
    }
    case Op::kBug: {
      // BUG(): unconditional trap. The bug table turns the trap address
      // into a source location for the fault report.
      std::optional<std::pair<std::string, uint32_t>> entry =
          BugEntryFor(thread.pc);
      if (entry.has_value()) {
        fault(ks::StrPrintf("kernel BUG at %s:%u", entry->first.c_str(),
                            entry->second));
      } else {
        fault("bug trap without table entry");
      }
      return Step::kStop;
    }
    case Op::kLoadBI: {
      uint32_t addr = regs[insn.reg2];
      if (!InBounds(addr, 1)) {
        fault(ks::StrPrintf("bad byte load at %s", ks::Hex32(addr).c_str()));
        return Step::kStop;
      }
      regs[insn.reg1] = memory_[addr];
      break;
    }
    case Op::kStoreBI: {
      uint32_t addr = regs[insn.reg1];
      if (!InBounds(addr, 1)) {
        fault(ks::StrPrintf("bad byte store at %s", ks::Hex32(addr).c_str()));
        return Step::kStop;
      }
      memory_[addr] = static_cast<uint8_t>(regs[insn.reg2]);
      if (run.Covers(addr, 1)) {
        step = Step::kRefetch;
      }
      break;
    }

    case Op::kAddRR:
      regs[insn.reg1] += regs[insn.reg2];
      set_flags(regs[insn.reg1]);
      break;
    case Op::kSubRR:
      regs[insn.reg1] -= regs[insn.reg2];
      set_flags(regs[insn.reg1]);
      break;
    case Op::kMulRR:
      regs[insn.reg1] = static_cast<uint32_t>(
          static_cast<int64_t>(static_cast<int32_t>(regs[insn.reg1])) *
          static_cast<int32_t>(regs[insn.reg2]));
      set_flags(regs[insn.reg1]);
      break;
    case Op::kAndRR:
      regs[insn.reg1] &= regs[insn.reg2];
      set_flags(regs[insn.reg1]);
      break;
    case Op::kOrRR:
      regs[insn.reg1] |= regs[insn.reg2];
      set_flags(regs[insn.reg1]);
      break;
    case Op::kXorRR:
      regs[insn.reg1] ^= regs[insn.reg2];
      set_flags(regs[insn.reg1]);
      break;
    case Op::kCmpRR: {
      uint32_t a = regs[insn.reg1];
      uint32_t b = regs[insn.reg2];
      thread.flag_zero = a == b;
      thread.flag_lt = static_cast<int32_t>(a) < static_cast<int32_t>(b);
      break;
    }
    case Op::kDivRR:
    case Op::kModRR: {
      int32_t divisor = static_cast<int32_t>(regs[insn.reg2]);
      if (divisor == 0) {
        fault("division by zero");
        return Step::kStop;
      }
      int64_t a = static_cast<int32_t>(regs[insn.reg1]);
      int64_t result =
          insn.op == Op::kDivRR ? a / divisor : a % divisor;
      regs[insn.reg1] = static_cast<uint32_t>(result);
      set_flags(regs[insn.reg1]);
      break;
    }
    case Op::kAddRI:
      regs[insn.reg1] += insn.operand;
      set_flags(regs[insn.reg1]);
      break;
    case Op::kSubRI:
      regs[insn.reg1] -= insn.operand;
      set_flags(regs[insn.reg1]);
      break;
    case Op::kCmpRI: {
      uint32_t a = regs[insn.reg1];
      thread.flag_zero = a == insn.operand;
      thread.flag_lt =
          static_cast<int32_t>(a) < static_cast<int32_t>(insn.operand);
      break;
    }
    case Op::kAndRI:
      regs[insn.reg1] &= insn.operand;
      set_flags(regs[insn.reg1]);
      break;
    case Op::kShlRR:
      regs[insn.reg1] <<= (regs[insn.reg2] & 31);
      set_flags(regs[insn.reg1]);
      break;
    case Op::kShrRR:
      regs[insn.reg1] >>= (regs[insn.reg2] & 31);
      set_flags(regs[insn.reg1]);
      break;

    case Op::kPush:
      if (!push(regs[insn.reg1])) {
        return Step::kStop;
      }
      if (run.Covers(regs[7], 4)) {
        step = Step::kRefetch;
      }
      break;
    case Op::kPop:
      if (!pop(&regs[insn.reg1])) {
        return Step::kStop;
      }
      break;

    case Op::kCall:
      if (!push(next_pc)) {
        return Step::kStop;
      }
      next_pc += insn.operand;
      break;
    case Op::kCallR:
      if (!push(next_pc)) {
        return Step::kStop;
      }
      next_pc = regs[insn.reg1];
      break;
    case Op::kRet: {
      uint32_t target;
      if (!pop(&target)) {
        return Step::kStop;
      }
      if (target == kThreadExitMagic) {
        thread.state = ThreadState::kDone;
        thread.pc = next_pc;
        return Step::kStop;
      }
      next_pc = target;
      break;
    }

    case Op::kJmp8:
    case Op::kJmp32:
      branch_if(true);
      break;
    case Op::kJz8:
    case Op::kJz32:
      branch_if(thread.flag_zero);
      break;
    case Op::kJnz8:
    case Op::kJnz32:
      branch_if(!thread.flag_zero);
      break;
    case Op::kJlt8:
    case Op::kJlt32:
      branch_if(thread.flag_lt);
      break;
    case Op::kJge8:
    case Op::kJge32:
      branch_if(!thread.flag_lt);
      break;
    case Op::kJgt8:
    case Op::kJgt32:
      branch_if(!thread.flag_lt && !thread.flag_zero);
      break;
    case Op::kJle8:
    case Op::kJle32:
      branch_if(thread.flag_lt || thread.flag_zero);
      break;

    case Op::kSys: {
      // DoSys may block the thread, in which case the SYS instruction is
      // re-executed on wake (the big kernel lock) or execution resumes
      // after it (sleep/yield); DoSys signals which by thread state.
      thread.pc = next_pc;
      ticks_ = tick;  // sys ticks and sleep read it
      return DoSys(thread, static_cast<uint8_t>(insn.operand)) ? Step::kNext
                                                                : Step::kStop;
    }
  }

  thread.pc = next_pc;
  return step;
}

uint64_t Machine::ExecThread(Thread& thread, int budget) {
  // Per-slice (not per-instruction) accounting keeps the interpreter's
  // inner loop free of atomics.
  static ks::Counter& instructions =
      ks::Metrics().GetCounter("kvm.instructions");
  // Slices that retired at least one instruction: the virtual analogue
  // of a context switch.
  static ks::Counter& switches =
      ks::Metrics().GetCounter("kvm.context_switches");
  RunTable& table = ThisThreadRunTable();
  const uint64_t start = ticks_;
  const uint64_t end = ticks_ + static_cast<uint64_t>(std::max(budget, 0));
  while (ticks_ < end && thread.state == ThreadState::kRunnable &&
         !halted_) {
    const DecodedRun* run = FetchRun(thread, table);
    if (run == nullptr) {
      ++ticks_;  // the faulting fetch retires, as any faulting instruction
      break;
    }
    // A run never crosses the slice budget.
    const uint32_t n = static_cast<uint32_t>(
        std::min<uint64_t>(run->count, end - ticks_));
    const uint64_t run_start = ticks_;
    Step step = Step::kNext;
    uint32_t i = 0;
    while (i < n && step == Step::kNext) {
      step = StepLocked(thread, run->insns[i], *run, run_start + i);
      ++i;
    }
    ticks_ = run_start + i;
    if (step == Step::kStop) {
      break;
    }
  }
  const uint64_t retired = ticks_ - start;
  if (retired > 0) {
    instructions.Add(retired);
    switches.Add(1);
  }
  return retired;
}

bool Machine::DoSys(Thread& thread, uint8_t number) {
  using kvx::Sys;
  uint32_t* regs = thread.regs;
  switch (static_cast<Sys>(number)) {
    case Sys::kPrintk: {
      std::string text;
      uint32_t addr = regs[0];
      for (uint32_t i = 0; i < kMaxPrintkLength; ++i) {
        if (!InBounds(addr + i, 1)) {
          FaultThread(thread, "printk string out of bounds");
          return false;
        }
        char c = static_cast<char>(memory_[addr + i]);
        if (c == '\0') {
          break;
        }
        text.push_back(c);
      }
      printk_log_.push_back(std::move(text));
      CapLog(printk_log_);
      return true;
    }
    case Sys::kTicks:
      regs[0] = static_cast<uint32_t>(ticks_);
      return true;
    case Sys::kYield:
      return false;  // stays runnable; slice ends
    case Sys::kSleep:
      thread.state = ThreadState::kSleeping;
      thread.wake_tick = ticks_ + std::max<uint32_t>(regs[0], 1);
      return false;
    case Sys::kTid:
      regs[0] = static_cast<uint32_t>(thread.tid);
      return true;
    case Sys::kRand:
      rand_state_ = rand_state_ * 1103515245u + 12345u;
      regs[0] = (rand_state_ >> 8) & 0x7fffffff;
      return true;
    case Sys::kExit:
      thread.state = ThreadState::kDone;
      return false;
    case Sys::kRecord:
      records_.emplace_back(regs[0], regs[1]);
      return true;
    case Sys::kKthread: {
      // Internal spawn; the recursive lock is already held.
      ks::Result<int> tid = Spawn(regs[0], regs[1]);
      regs[0] = tid.ok() ? static_cast<uint32_t>(*tid) : 0;
      return true;
    }
    case Sys::kLockKernel:
      if (bkl_owner_ == -1) {
        bkl_owner_ = thread.tid;
        return true;
      }
      if (bkl_owner_ == thread.tid) {
        FaultThread(thread, "recursive lock_kernel");
        return false;
      }
      // Re-execute the SYS on wake.
      thread.pc -= kvx::GetOpInfo(kvx::Op::kSys).length;
      thread.state = ThreadState::kLockWait;
      return false;
    case Sys::kUnlockKernel:
      if (bkl_owner_ != thread.tid) {
        FaultThread(thread, "unlock_kernel by non-owner");
        return false;
      }
      bkl_owner_ = -1;
      for (Thread& waiter : threads_) {
        if (waiter.state == ThreadState::kLockWait) {
          waiter.state = ThreadState::kRunnable;
        }
      }
      return true;
    case Sys::kShadowAttach: {
      auto key = std::make_pair(regs[0], regs[1]);
      auto existing = shadows_.find(key);
      if (existing != shadows_.end()) {
        regs[0] = existing->second;
        return true;
      }
      ks::Result<uint32_t> addr = HeapAlloc(regs[2]);
      if (!addr.ok()) {
        regs[0] = 0;
        return true;
      }
      shadows_[key] = *addr;
      regs[0] = *addr;
      return true;
    }
    case Sys::kShadowGet: {
      auto it = shadows_.find(std::make_pair(regs[0], regs[1]));
      regs[0] = it != shadows_.end() ? it->second : 0;
      return true;
    }
    case Sys::kShadowDetach: {
      auto it = shadows_.find(std::make_pair(regs[0], regs[1]));
      if (it != shadows_.end()) {
        (void)HeapFree(it->second);
        shadows_.erase(it);
      }
      return true;
    }
    case Sys::kKmalloc: {
      ks::Result<uint32_t> addr = HeapAlloc(regs[0]);
      regs[0] = addr.ok() ? *addr : 0;
      return true;
    }
    case Sys::kKfree: {
      ks::Status status = HeapFree(regs[0]);
      if (!status.ok()) {
        FaultThread(thread, status.message());
        return false;
      }
      return true;
    }
  }
  FaultThread(thread, ks::StrPrintf("unknown sys %u", number));
  return false;
}

}  // namespace kvm
