// kvm: the simulated kernel that Ksplice hot-updates.
//
// A Machine is a flat little-endian memory image executing KVX code, plus
// the kernel facilities Ksplice interacts with:
//
//  - a kallsyms-style symbol table (locals included, names may collide):
//    the kernel's part is one immutable SymbolTable shared by every machine
//    booted from the same image, and each machine adds only a small overlay
//    for the symbols of its loaded modules;
//  - a module loader that links kelf objects against exported globals
//    (Ksplice's helper and primary modules load through it, §5.1);
//  - kernel threads with in-image stacks, round-robin scheduled with
//    preemption, sleep/wake, a big kernel lock, and kthread spawning —
//    everything the stack safety check must reason about (§5.2). An
//    exited thread is reaped when its slice ends and its stack reused;
//    faulted threads stay for inspection;
//  - stop_machine(): runs a host function with every virtual CPU captured;
//  - a kmalloc heap and the shadow data-structure registry used by
//    DynAMOS-style struct extensions (§5.3, §7.1);
//  - observation channels for tests: printk log, record() log, fault log.
//
// Concurrency model: all VM state is guarded by one lock (the analogue of
// running on real CPUs with stop_machine available). Virtual CPUs are host
// threads that repeatedly execute bounded instruction slices while holding
// the lock; stop_machine simply acquires it, so the pause it induces is the
// in-flight slice remainder — the quantity bench_stopmachine_latency
// measures. Single-threaded tests drive the scheduler with Run()/Advance()
// and never start CPUs. The interpreter executes straight-line runs of
// decoded instructions, cached per host thread and checked against the
// guest bytes they came from on every entry, so no write path has to
// invalidate anything (exec.cc).

#ifndef KSPLICE_KVM_MACHINE_H_
#define KSPLICE_KVM_MACHINE_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <utility>
#include <thread>
#include <vector>

#include "base/status.h"
#include "kelf/link.h"
#include "kelf/objfile.h"

namespace kvm {

struct MachineConfig {
  uint32_t memory_bytes = 16u << 20;   // image size
  uint32_t kernel_base = 0x00100000;   // kernel link address
  int slice_instructions = 1000;       // preemption quantum
  // Cap on each observation log (printk, fault records):
  // oldest entries are dropped past this and counted in DroppedLogLines().
  // 0 = unbounded (tests that assert exact log contents).
  uint32_t max_log_lines = 4096;
};

enum class ThreadState : uint8_t {
  kRunnable,
  kSleeping,   // waiting for wake_tick
  kLockWait,   // waiting for the big kernel lock
  kDone,
  kFaulted,
};

struct ThreadInfo {
  int tid = 0;
  ThreadState state = ThreadState::kRunnable;
  uint32_t pc = 0;
  uint32_t sp = 0;
  uint32_t stack_base = 0;   // lowest address of the stack region
  uint32_t stack_top = 0;    // one past the highest
  std::string fault;         // non-empty iff kFaulted
};

// Structured counterpart of one fault-log line: who faulted, where, when.
// The PC is the health-attribution surface — Ksplice's watchdog maps it
// against applied updates' replacement-code ranges to decide whether a
// fault is the fault of a hot patch.
struct FaultRecord {
  int tid = 0;
  uint32_t pc = 0;
  uint64_t tick = 0;    // Ticks() when the fault was taken
  std::string reason;   // same text as the fault-log line's suffix

  // The fault-log line: "tid <tid> at <pc>: <reason>".
  std::string ToString() const;
};

// Handle to a loaded module.
struct ModuleHandle {
  int id = -1;
  bool valid() const { return id >= 0; }
};

struct ModuleInfo {
  std::string name;
  uint32_t base = 0;
  uint32_t size = 0;
};

// A howto-tagged region of the live image: an exception table, bug table,
// or build-timestamp string, registered at boot (kernel sections) and at
// module load. Fault dispatch consults extable regions; BUG traps consult
// bug regions. Entries are read from guest memory at fault time, so a
// patch that rewrites table bytes (or a module that brings new tables)
// takes effect with no further registration.
struct HowtoRegion {
  kelf::Howto howto = kelf::Howto::kNone;
  uint32_t base = 0;
  uint32_t size = 0;
  std::string name;     // section name, for diagnostics
  int module_id = -1;   // owning module, -1 for the kernel image
};

// Guest memory: an anonymous private mapping of `size` bytes followed by
// one PROT_NONE guard page. The host kernel supplies zero pages on first
// touch, so a machine's resident set is only what it has touched (kernel
// image, stacks, heap blocks, loaded modules), however large the image. An
// unchecked host access just past the end faults on the guard page instead
// of corrupting a neighbouring allocation.
class GuestMemory {
 public:
  // Errors: ResourceExhausted when the host refuses the mapping.
  static ks::Result<GuestMemory> Map(uint32_t size);

  GuestMemory() = default;
  GuestMemory(GuestMemory&& other) noexcept;
  GuestMemory& operator=(GuestMemory&& other) noexcept;
  GuestMemory(const GuestMemory&) = delete;
  GuestMemory& operator=(const GuestMemory&) = delete;
  ~GuestMemory();

  uint8_t* data() { return data_; }
  const uint8_t* data() const { return data_; }
  size_t size() const { return size_; }
  uint8_t& operator[](size_t i) { return data_[i]; }
  uint8_t operator[](size_t i) const { return data_[i]; }

 private:
  void Release();

  uint8_t* data_ = nullptr;
  size_t size_ = 0;         // guest-visible bytes
  size_t mapped_bytes_ = 0;  // page-rounded size plus the guard page
};

// A kernel image's kallsyms table with a flat by-name index. Built once
// per linked image and immutable after, so every machine booted from that
// image shares one copy read-only, and a view into it needs no lock.
class SymbolTable {
 public:
  explicit SymbolTable(std::vector<kelf::LinkedSymbol> symbols);

  // Every symbol, in link order.
  const std::vector<kelf::LinkedSymbol>& symbols() const { return symbols_; }
  // Indices into symbols() of the entries named `name`, in link order.
  // `hash` is Hash(name).
  std::span<const uint32_t> Named(std::string_view name, uint32_t hash) const;
  static uint32_t Hash(std::string_view name);

 private:
  std::vector<kelf::LinkedSymbol> symbols_;
  // symbols_ indices grouped by name, in link order within a group.
  std::vector<uint32_t> by_name_;
  // Open-addressed name hash: each used bucket holds one name's
  // [begin, end) in by_name_; an empty bucket has begin == end.
  struct Bucket {
    uint32_t begin = 0;
    uint32_t end = 0;
  };
  std::vector<Bucket> buckets_;
};

class Machine {
 public:
  // Boots a machine from a linked kernel image: maps demand-zero guest
  // memory, copies the image in at its base, and lays out the module
  // arena, heap and stacks above it. The image is only read, so one link
  // can boot any number of machines. No threads are created; callers
  // Spawn() entry points explicitly.
  // Errors: InvalidArgument if the image was not linked at
  // config.kernel_base (or that base lies in the null guard page);
  // ResourceExhausted if it does not fit or the memory cannot be mapped.
  static ks::Result<std::unique_ptr<Machine>> Boot(
      const kelf::LinkedImage& image, const MachineConfig& config);
  // Boots with `symbols` as the kernel's symbol table instead of a private
  // copy of image.symbols, which is not read: `symbols` must have been
  // built from the same link. Every machine booted this way shares it.
  static ks::Result<std::unique_ptr<Machine>> Boot(
      const kelf::LinkedImage& image,
      std::shared_ptr<const SymbolTable> symbols,
      const MachineConfig& config);
  // Links `kernel_objects` at config.kernel_base, then boots the result.
  static ks::Result<std::unique_ptr<Machine>> Boot(
      std::span<const kelf::ObjectFile> kernel_objects,
      const MachineConfig& config);

  ~Machine();
  Machine(const Machine&) = delete;
  Machine& operator=(const Machine&) = delete;

  // Memory ---------------------------------------------------------------
  // All accessors bounds-check; the first page is never mapped (null-deref
  // traps). External (host) accessors take the machine lock.
  ks::Result<uint32_t> ReadWord(uint32_t addr) const;
  ks::Result<uint8_t> ReadByte(uint32_t addr) const;
  ks::Status WriteWord(uint32_t addr, uint32_t value);
  ks::Status WriteByte(uint32_t addr, uint8_t value);
  ks::Result<std::vector<uint8_t>> ReadBytes(uint32_t addr,
                                             uint32_t size) const;
  ks::Status WriteBytes(uint32_t addr, const std::vector<uint8_t>& bytes);
  // In-place reads for a host reader that makes many: a view holds the
  // machine lock while it lives, and no span it returns may outlive it.
  class MemoryView {
   public:
    explicit MemoryView(const Machine& machine)
        : machine_(machine), lock_(machine.mu_) {}
    // Memory from `addr` to the end of the image, without a copy; checked
    // like ReadBytes, its fault point included.
    ks::Result<std::span<const uint8_t>> From(uint32_t addr) const;

   private:
    const Machine& machine_;
    std::unique_lock<std::recursive_mutex> lock_;
  };

  // Symbols ----------------------------------------------------------------
  // The kallsyms table: kernel symbols, then those of loaded modules in
  // load order.
  std::vector<kelf::LinkedSymbol> Kallsyms() const;
  // All addresses bound to `name` (locals from any unit included), in
  // kallsyms order.
  std::vector<kelf::LinkedSymbol> SymbolsNamed(std::string_view name) const;
  // The same entries without a copy. `fn` runs under the machine lock and
  // must not keep a reference to a module's symbol, which an unload frees.
  void VisitSymbolsNamed(
      std::string_view name,
      const std::function<void(const kelf::LinkedSymbol&)>& fn) const;
  // The unique *global* symbol named `name`, as a module link would see it.
  ks::Result<uint32_t> GlobalSymbol(std::string_view name) const;
  // The kernel's part of kallsyms, shared with every machine booted from
  // the same table.
  const std::shared_ptr<const SymbolTable>& kernel_symbols() const {
    return kernel_symbols_;
  }

  // Modules ----------------------------------------------------------------
  // Links `objects` against exported kernel symbols and loads the result
  // into the module arena. `extra_resolver`, when given, supplies values
  // for imports that are not exported symbols (Ksplice uses it to feed
  // run-pre recovered values for unit-scoped names); it is consulted after
  // the exported-symbol table. A section aligned beyond a page (4 KiB) is
  // refused with InvalidArgument.
  using SymbolResolver = kelf::ExternalResolver;
  // `group` tags the module so related loads (e.g. every module of one
  // update transaction) can be accounted for and unloaded together.
  ks::Result<ModuleHandle> LoadModule(
      const std::vector<kelf::ObjectFile>& objects, const std::string& name,
      SymbolResolver extra_resolver = nullptr, const std::string& group = "");
  // A handle whose module was unloaded is refused with FailedPrecondition
  // by every call that takes one; a handle never issued, with
  // InvalidArgument. Ids are never reused.
  ks::Status UnloadModule(ModuleHandle handle);
  ks::Result<ModuleInfo> GetModuleInfo(ModuleHandle handle) const;
  // Bytes currently allocated to loaded modules (memory-cost accounting;
  // helper unload should reduce this, §5.1).
  uint32_t ModuleArenaBytesInUse() const;
  // Group bookkeeping: a bulk unload of every loaded module tagged `group`
  // (transaction rollback drops every module an aborted batch loaded in
  // one call). Returns the number unloaded.
  ks::Result<int> UnloadGroup(const std::string& group);
  // Number of loaded modules (blobs included).
  size_t LoadedModuleCount() const;
  // External symbols the module link resolved, with the address each bound
  // to (name -> value, deduplicated). Ksplice's out-of-order undo uses this
  // to refuse removing a module that a later module's imports point into.
  // Errors: FailedPrecondition once the module is unloaded.
  ks::Result<std::vector<std::pair<std::string, uint32_t>>> ModuleImports(
      ModuleHandle handle) const;

  // Threads ---------------------------------------------------------------
  // Spawns a kernel thread at `entry` with a single argument, giving it a
  // fresh stack in the image. Returns the tid.
  ks::Result<int> Spawn(uint32_t entry, uint32_t arg,
                        uint32_t stack_bytes = 0);
  ks::Result<int> SpawnNamed(const std::string& function_name, uint32_t arg,
                             uint32_t stack_bytes = 0);
  // Live (runnable, sleeping, lock-waiting) and faulted threads, in spawn
  // order. An exited thread is reaped when its slice ends and is absent;
  // tids are never reused.
  std::vector<ThreadInfo> Threads() const;
  // True if some thread is runnable or sleeping (i.e. work remains).
  bool HasLiveThreads() const;

  // Execution ---------------------------------------------------------------
  uint64_t Ticks() const;
  // Cooperative driver: schedules threads round-robin until all are done,
  // faulted, or `max_ticks` instructions have executed. Sleeping threads
  // fast-forward virtual time when everyone sleeps.
  ks::Status Run(uint64_t max_ticks);
  // Runs until no live threads remain (or the safety cap is hit).
  ks::Status RunToCompletion(uint64_t safety_cap = 100'000'000);

  // Virtual CPUs: host threads that execute slices until StopCpus. Used by
  // benches; tests normally use Run().
  void StartCpus(int count);
  void StopCpus();
  int ActiveCpus() const;

  // Makes progress regardless of mode: with CPUs running, briefly yields
  // the host; otherwise runs `ticks` cooperatively. Used by apply-retry.
  ks::Status Advance(uint64_t ticks);

  // Runs `fn` with the machine quiesced: no virtual CPU mid-instruction,
  // no slice in flight (§5.2 stop_machine). Returns fn's status.
  ks::Status StopMachine(const std::function<ks::Status(Machine&)>& fn);

  // Synchronously calls the guest function at `entry` with one argument on
  // a dedicated stack and returns its r0. Usable inside StopMachine (this
  // is how ksplice_apply hooks run while the machine is stopped, §5.3) and
  // outside it. The call is bounded by `max_ticks`; faults become errors.
  ks::Result<uint32_t> CallFunction(uint32_t entry, uint32_t arg,
                                    uint64_t max_ticks = 1'000'000);

  // Raw arena blobs: allocation without linking, used to account for the
  // memory a loaded-but-unlinked module image occupies (the helper module,
  // §5.1). Freed with UnloadModule.
  ks::Result<ModuleHandle> LoadBlob(const std::string& name, uint32_t size,
                                    const std::string& group = "");

  // Section placements of a loaded module (where each input section
  // landed). Ksplice reads its .ksplice.* hook tables through this.
  ks::Result<std::vector<kelf::PlacedSection>> ModulePlacements(
      ModuleHandle handle) const;

  // Instrumentation ----------------------------------------------------------
  std::vector<std::string> PrintkLog() const {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    return printk_log_;
  }
  std::vector<std::pair<uint32_t, uint32_t>> Records() const {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    return records_;
  }
  // record() entries with key == `key`, values only.
  std::vector<uint32_t> RecordsWithKey(uint32_t key) const;
  // The fault log: FaultRecords() rendered one line each.
  std::vector<std::string> Faults() const;
  // Structured fault records (FaultRecord above). Bounded like the printk
  // log; FaultCount() is the monotonic total and never decreases when the
  // ring drops old entries, so health monitors can sample by delta.
  std::vector<FaultRecord> FaultRecords() const;
  uint64_t FaultCount() const;
  // Lines evicted from the bounded logs (config().max_log_lines).
  uint64_t DroppedLogLines() const;
  bool Halted() const {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    return halted_;
  }

  // Heap / shadow registry (host-side views used by tests) -------------------
  ks::Result<uint32_t> HostKmalloc(uint32_t size);
  ks::Status HostKfree(uint32_t addr);
  ks::Result<uint32_t> HostShadowGet(uint32_t obj, uint32_t key) const;

  // Howto regions currently registered (kernel + loaded modules).
  std::vector<HowtoRegion> HowtoRegions() const;
  // Number of faulting loads recovered through an exception-table fixup.
  uint64_t ExtableFixups() const;

  const MachineConfig& config() const { return config_; }
  uint32_t kernel_end() const { return kernel_end_; }

 private:
  explicit Machine(const MachineConfig& config);

  struct Thread {
    int tid = 0;
    ThreadState state = ThreadState::kRunnable;
    uint32_t regs[8] = {0};
    uint32_t pc = 0;
    bool flag_zero = false;
    bool flag_lt = false;
    uint32_t stack_base = 0;
    uint32_t stack_top = 0;
    uint64_t wake_tick = 0;
    std::string fault;
  };

  // First-fit blocks carved in order from [cursor, limit): a request
  // reuses the first free block it fits in whole, else takes fresh space
  // at the cursor. The module arena and the kernel heap are one each.
  struct Block {
    uint32_t base = 0;
    uint32_t size = 0;
    bool free = false;
  };
  struct BlockList {
    uint32_t cursor = 0;
    uint32_t limit = 0;
    std::vector<Block> blocks;
  };

  // Internal (lock already held) ------------------------------------------
  static constexpr uint32_t kGuardPage = 0x1000;  // [0, kGuardPage) unmapped
  bool InBounds(uint32_t addr, uint32_t size) const {
    return addr >= kGuardPage && addr + size >= addr &&
           addr + size <= memory_.size();
  }
  ks::Result<uint32_t> ReadWordLocked(uint32_t addr) const;
  ks::Status WriteWordLocked(uint32_t addr, uint32_t value);

  // Takes `size` bytes from `list`: the first free block that fits, else
  // the next bytes at its cursor. A reused block is zeroed when
  // `zero_reused`; `exhausted` is the error text when the range is full.
  // Blocks lie end to end from the list's start, so each base is as
  // aligned as that start and the sizes taken (the arena rounds both to a
  // page).
  ks::Result<uint32_t> TakeBlock(BlockList& list, uint32_t size,
                                 bool zero_reused, const char* exhausted);
  // Takes a page-aligned block of at least `size` bytes from the arena.
  ks::Result<uint32_t> ArenaAlloc(uint32_t size);
  void ArenaFree(uint32_t base);

  ks::Result<uint32_t> HeapAlloc(uint32_t size);
  ks::Status HeapFree(uint32_t addr);

  // Straight-line runs of decodes, and the calling host thread's table of
  // them (exec.cc).
  struct Decoded;
  struct DecodedRun;
  class RunTable;
  static RunTable& ThisThreadRunTable();
  // The run at thread.pc, checked against memory or rebuilt; null after
  // faulting the thread on a bad fetch.
  const DecodedRun* FetchRun(Thread& thread, RunTable& table);

  // Executes up to `budget` instructions of `thread`; returns instructions
  // retired. Updates thread state on sleep/exit/fault.
  uint64_t ExecThread(Thread& thread, int budget);
  // What the run loop does after one instruction: go on with the run,
  // leave it and fetch again (a write into the run's own bytes), or end
  // the slice (sleep/exit/fault/yield).
  enum class Step : uint8_t { kNext, kRefetch, kStop };
  Step StepLocked(Thread& thread, const Decoded& insn, const DecodedRun& run,
                  uint64_t tick);
  void FaultThread(Thread& thread, std::string reason);
  ks::Status RunLocked(uint64_t max_ticks);
  // Drops threads_[idx] if it has exited, zeroing its stack for reuse.
  // Called at slice boundaries only: inside ExecThread the kthread syscall
  // holds a reference into threads_.
  void ReapIfDone(size_t idx);
  // Picks the next runnable thread index after `start`, handling wakes.
  int NextRunnable(size_t start_hint, uint64_t deadline);
  void WakeSleepers();
  bool DoSys(Thread& thread, uint8_t number);

  // Howto-region bookkeeping (lock already held). Regions are registered
  // from section placements at boot/module-load and dropped on unload;
  // lookups read guest memory at fault time.
  void RegisterHowtoRegions(const std::vector<kelf::PlacedSection>& placements,
                            int module_id);
  void UnregisterHowtoRegions(int module_id);
  // Scans extable regions for an entry whose faulting-insn word equals
  // `pc`; returns the fixup address, or nullopt.
  std::optional<uint32_t> ExtableFixupFor(uint32_t pc) const;
  // Scans bug-table regions for an entry whose trap word equals `pc`;
  // returns (section name, source line), or nullopt.
  std::optional<std::pair<std::string, uint32_t>> BugEntryFor(
      uint32_t pc) const;

  MachineConfig config_;
  mutable std::recursive_mutex mu_;

  GuestMemory memory_;
  uint32_t kernel_end_ = 0;     // first address past the kernel image
  BlockList arena_;  // module arena
  BlockList heap_;   // kernel heap (kmalloc)
  uint32_t stack_cursor_ = 0;  // stacks grow downward from memory end
  uint32_t stack_limit_ = 0;

  // kallsyms: the shared kernel table, then the overlay of loaded modules'
  // symbols in load order, each tagged with its name's hash and owner.
  std::shared_ptr<const SymbolTable> kernel_symbols_;
  struct ModuleSymbol {
    uint32_t hash = 0;
    int module_id = -1;
    kelf::LinkedSymbol symbol;
  };
  std::vector<ModuleSymbol> module_symbols_;
  struct Module {
    std::string name;
    std::string group;  // load-group tag ("" = ungrouped)
    uint32_t base = 0;
    uint32_t size = 0;
    std::vector<kelf::PlacedSection> placements;
    // name -> value of every external import the link resolved.
    std::vector<std::pair<std::string, uint32_t>> imports;
  };
  // Registers `module` under a fresh id (lock already held).
  ModuleHandle AddModule(Module module);
  // The live module `handle` names, or the refusal for a stale handle
  // (FailedPrecondition) or one never issued (InvalidArgument).
  ks::Result<const Module*> FindModule(ModuleHandle handle) const;

  // Live modules only, by id. Ids are issued monotonically and never
  // reused, so a stale handle cannot alias a newer module; an unloaded
  // module's entry is erased, so the table does not grow with churn.
  std::map<int, Module> modules_;
  int next_module_id_ = 0;
  std::vector<HowtoRegion> howto_regions_;
  uint64_t extable_fixups_ = 0;  // faulting loads recovered via extable
  uint32_t hook_stack_top_ = 0;  // lazily allocated CallFunction stack

  // Live and faulted threads in spawn order; an exited thread is reaped at
  // the end of its slice. A deque, so the kthread syscall can spawn while
  // the running thread's reference into this table is live: push_back
  // never moves elements.
  std::deque<Thread> threads_;
  // Stacks of reaped threads, zeroed, most recently reaped last.
  struct FreeStack {
    uint32_t top = 0;
    uint32_t bytes = 0;
  };
  std::vector<FreeStack> free_stacks_;
  size_t sched_cursor_ = 0;
  uint64_t ticks_ = 0;
  int next_tid_ = 1;
  bool halted_ = false;
  uint32_t rand_state_ = 0x12345678;  // SYS rand's LCG state

  // Big kernel lock.
  int bkl_owner_ = -1;  // tid, -1 free

  // Shadow registry: (object addr, key) -> shadow allocation.
  std::map<std::pair<uint32_t, uint32_t>, uint32_t> shadows_;

  // Observation logs. The printk log and the structured fault records
  // (which Faults() renders as text) are rings bounded by
  // config_.max_log_lines (records_ is not: tests depend on its exact
  // counts); evictions are counted in dropped_log_lines_. total_faults_
  // is monotonic and survives ring eviction.
  template <typename T>
  void CapLog(std::vector<T>& log);
  std::vector<std::string> printk_log_;
  std::vector<std::pair<uint32_t, uint32_t>> records_;
  std::vector<FaultRecord> fault_records_;
  uint64_t total_faults_ = 0;
  uint64_t dropped_log_lines_ = 0;

  // Virtual CPU pool.
  std::vector<std::thread> cpus_;
  bool cpus_should_stop_ = false;
};

// Exit sentinel: RET to this address terminates the thread. Placed outside
// mapped memory.
inline constexpr uint32_t kThreadExitMagic = 0xfffffff0;

}  // namespace kvm

#endif  // KSPLICE_KVM_MACHINE_H_
