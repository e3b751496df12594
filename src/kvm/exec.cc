// The KVX interpreter: instruction execution and the SYS host bridge.
//
// Flag semantics: CMP and all ALU operations (add/sub/mul/div/mod/and/or/
// xor/shl/shr) set Z (result zero) and LT (signed: for CMP, a < b; for ALU,
// result < 0). MOV, LOAD, STORE, PUSH, POP, and control transfers preserve
// flags — kcc relies on this to materialize comparison results.

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>

#include "base/endian.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kvm/machine.h"
#include "kvx/isa.h"

namespace kvm {

// Decoded-instruction cache. A slot holds one decode together with the 8
// guest bytes it was decoded from, and a fetch uses the slot only when
// those bytes still match memory. Every KVX instruction except nopn is at
// most 6 bytes and nopn decodes from its first 2, so equal bytes mean an
// equal decode: the cache is exact with no invalidation, whoever writes
// the code (a guest store, a trampoline, undo, module load or unload).
// Tags are contents, not addresses, so one table serves every machine a
// host thread runs.
struct Machine::CachedInsn {
  uint64_t bytes;    // the 8 guest bytes at the fetched pc
  kvx::Op op;
  uint8_t len;       // 0 marks an empty slot
  uint8_t reg1;
  uint8_t reg2;
  uint32_t operand;  // imm or rel: no opcode has both
};

namespace {

constexpr uint32_t kMaxPrintkLength = 4096;

// kvx::Decode sees this many bytes of a fetch (fewer at the very end of
// memory); a cached decode must come from a full window.
constexpr uint32_t kFetchWindow = 16;
// Direct-mapped by pc / 2: 32 K slots of 16 bytes cover 64 KiB of code.
constexpr uint32_t kDecodeSlots = 1u << 15;

struct FreeDeleter {
  void operator()(void* p) const { std::free(p); }
};

}  // namespace

// One table per host thread, allocated on its first guest instruction: a
// fleet of machines, or a fresh machine per pass, pays for one table, and
// a virtual CPU never shares its table with another. calloc makes every
// slot empty (len 0) and leaves pages of unused slots mostly unbacked.
// Null if the allocation failed; fetches then decode every time.
Machine::CachedInsn* Machine::ThisThreadDecodeCache() {
  thread_local std::unique_ptr<CachedInsn[], FreeDeleter> table;
  if (table == nullptr) {
    table.reset(static_cast<CachedInsn*>(
        std::calloc(kDecodeSlots, sizeof(CachedInsn))));
  }
  return table.get();
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
  fault_log_.push_back(ks::StrPrintf("tid %d at %s: %s", thread.tid,
                                     ks::Hex32(thread.pc).c_str(),
                                     reason.c_str()));
  KS_LOG(kDebug) << "thread fault: " << fault_log_.back();
  CapLog(fault_log_);
  FaultRecord record;
  record.tid = thread.tid;
  record.pc = thread.pc;
  record.tick = ticks_;
  record.reason = std::move(reason);
  fault_records_.push_back(std::move(record));
  CapLog(fault_records_);
  ++total_faults_;
  static ks::Counter& faults = ks::Metrics().GetCounter("kvm.faults");
  faults.Add(1);
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
  CachedInsn* cache = ThisThreadDecodeCache();
  uint64_t retired = 0;
  for (int i = 0; i < budget; ++i) {
    if (thread.state != ThreadState::kRunnable || halted_) {
      break;
    }
    bool keep_going = StepLocked(thread, cache);
    ++retired;
    ++ticks_;
    if (!keep_going) {
      break;
    }
  }
  if (retired > 0) {
    instructions.Add(retired);
    switches.Add(1);
  }
  return retired;
}

bool Machine::StepLocked(Thread& thread, CachedInsn* cache) {
  if (!InBounds(thread.pc, 1)) {
    FaultThread(thread, "instruction fetch out of bounds");
    return false;
  }
  const uint8_t* code = memory_.data() + thread.pc;
  uint32_t window = std::min<uint32_t>(
      kFetchWindow, static_cast<uint32_t>(memory_.size()) - thread.pc);
  CachedInsn* slot = nullptr;
  uint64_t bytes = 0;
  if (cache != nullptr && window == kFetchWindow) {
    std::memcpy(&bytes, code, sizeof(bytes));
    slot = &cache[(thread.pc >> 1) & (kDecodeSlots - 1)];
  }
  CachedInsn insn{};
  if (slot != nullptr && slot->len != 0 && slot->bytes == bytes) {
    insn = *slot;
  } else {
    ks::Result<kvx::Insn> decoded =
        kvx::Decode(std::span<const uint8_t>(code, window));
    if (!decoded.ok()) {
      FaultThread(thread,
                  "illegal instruction: " + decoded.status().message());
      return false;
    }
    insn = CachedInsn{bytes,         decoded->op,   decoded->len,
                      decoded->reg1, decoded->reg2,
                      decoded->imm | static_cast<uint32_t>(decoded->rel)};
    // Cache only a decode that the tagged bytes alone determine.
    if (slot != nullptr &&
        (insn.op == kvx::Op::kNopN || insn.len <= sizeof(bytes))) {
      *slot = insn;
    }
  }
  uint32_t* regs = thread.regs;
  uint32_t next_pc = thread.pc + insn.len;

  auto set_flags = [&](uint32_t result) {
    thread.flag_zero = result == 0;
    thread.flag_lt = static_cast<int32_t>(result) < 0;
  };
  auto push = [&](uint32_t value) -> bool {
    uint32_t sp = regs[7] - 4;
    if (sp < thread.stack_base) {
      FaultThread(thread, "stack overflow");
      return false;
    }
    ks::WriteLe32(memory_.data() + sp, value);
    regs[7] = sp;
    return true;
  };
  auto pop = [&](uint32_t* value) -> bool {
    uint32_t sp = regs[7];
    if (sp + 4 > thread.stack_top) {
      FaultThread(thread, "stack underflow");
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
      FaultThread(thread, "halt (kernel panic)");
      return false;
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
        FaultThread(thread, ks::StrPrintf("bad load at %s",
                                          ks::Hex32(addr).c_str()));
        return false;
      }
      regs[insn.reg1] = ks::ReadLe32(memory_.data() + addr);
      break;
    }
    case Op::kStoreI: {
      uint32_t addr = regs[insn.reg1];
      if (!InBounds(addr, 4)) {
        FaultThread(thread, ks::StrPrintf("bad store at %s",
                                          ks::Hex32(addr).c_str()));
        return false;
      }
      ks::WriteLe32(memory_.data() + addr, regs[insn.reg2]);
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
      FaultThread(thread,
                  ks::StrPrintf("bad faulting load at %s with no extable entry",
                                ks::Hex32(addr).c_str()));
      return false;
    }
    case Op::kBug: {
      // BUG(): unconditional trap. The bug table turns the trap address
      // into a source location for the fault report.
      std::optional<std::pair<std::string, uint32_t>> entry =
          BugEntryFor(thread.pc);
      if (entry.has_value()) {
        FaultThread(thread,
                    ks::StrPrintf("kernel BUG at %s:%u", entry->first.c_str(),
                                  entry->second));
      } else {
        FaultThread(thread, "bug trap without table entry");
      }
      return false;
    }
    case Op::kLoadBI: {
      uint32_t addr = regs[insn.reg2];
      if (!InBounds(addr, 1)) {
        FaultThread(thread, ks::StrPrintf("bad byte load at %s",
                                          ks::Hex32(addr).c_str()));
        return false;
      }
      regs[insn.reg1] = memory_[addr];
      break;
    }
    case Op::kStoreBI: {
      uint32_t addr = regs[insn.reg1];
      if (!InBounds(addr, 1)) {
        FaultThread(thread, ks::StrPrintf("bad byte store at %s",
                                          ks::Hex32(addr).c_str()));
        return false;
      }
      memory_[addr] = static_cast<uint8_t>(regs[insn.reg2]);
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
        FaultThread(thread, "division by zero");
        return false;
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
        return false;
      }
      break;
    case Op::kPop:
      if (!pop(&regs[insn.reg1])) {
        return false;
      }
      break;

    case Op::kCall:
      if (!push(next_pc)) {
        return false;
      }
      next_pc += insn.operand;
      break;
    case Op::kCallR:
      if (!push(next_pc)) {
        return false;
      }
      next_pc = regs[insn.reg1];
      break;
    case Op::kRet: {
      uint32_t target;
      if (!pop(&target)) {
        return false;
      }
      if (target == kThreadExitMagic) {
        thread.state = ThreadState::kDone;
        thread.pc = next_pc;
        return false;
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
      bool keep_going = DoSys(thread, static_cast<uint8_t>(insn.operand));
      return keep_going;
    }
  }

  thread.pc = next_pc;
  return true;
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
      if (config_.log_printk) {
        KS_LOG(kInfo) << "printk: " << text;
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
