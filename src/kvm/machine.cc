#include "kvm/machine.h"

#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <cassert>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <iterator>
#include <numeric>
#include <utility>

#include "base/endian.h"
#include "base/faultinject.h"
#include "base/hash.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"

namespace kvm {

namespace {

constexpr uint32_t kPageAlign = 0x1000;
// Stack size of a thread spawned without one, and of the hook-call stack.
constexpr uint32_t kDefaultStackBytes = 8192;

uint32_t AlignUp(uint32_t value, uint32_t align) {
  return (value + align - 1) & ~(align - 1);
}

ks::Gauge& ArenaBytesGauge() {
  static ks::Gauge& gauge = ks::Metrics().GetGauge("kvm.module_arena_bytes");
  return gauge;
}

}  // namespace

ks::Result<GuestMemory> GuestMemory::Map(uint32_t size) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  const size_t usable = (static_cast<size_t>(size) + page - 1) / page * page;
  // MAP_NORESERVE: the image is sized for the worst case, but only touched
  // pages are ever backed.
  void* base = mmap(nullptr, usable + page, PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
  if (base == MAP_FAILED) {
    return ks::ResourceExhausted(ks::StrPrintf(
        "cannot map %u bytes of guest memory: %s", size,
        std::strerror(errno)));
  }
  GuestMemory memory;
  memory.data_ = static_cast<uint8_t*>(base);
  memory.size_ = size;
  memory.mapped_bytes_ = usable + page;
  if (mprotect(memory.data_ + usable, page, PROT_NONE) != 0) {
    return ks::ResourceExhausted(ks::StrPrintf(
        "cannot protect the guest memory guard page: %s",
        std::strerror(errno)));
  }
  return memory;
}

GuestMemory::GuestMemory(GuestMemory&& other) noexcept
    : data_(std::exchange(other.data_, nullptr)),
      size_(std::exchange(other.size_, 0)),
      mapped_bytes_(std::exchange(other.mapped_bytes_, 0)) {}

GuestMemory& GuestMemory::operator=(GuestMemory&& other) noexcept {
  if (this != &other) {
    Release();
    data_ = std::exchange(other.data_, nullptr);
    size_ = std::exchange(other.size_, 0);
    mapped_bytes_ = std::exchange(other.mapped_bytes_, 0);
  }
  return *this;
}

GuestMemory::~GuestMemory() { Release(); }

void GuestMemory::Release() {
  if (data_ != nullptr) {
    munmap(data_, mapped_bytes_);
    data_ = nullptr;
    size_ = 0;
    mapped_bytes_ = 0;
  }
}

Machine::Machine(const MachineConfig& config) : config_(config) {}

Machine::~Machine() { StopCpus(); }

SymbolTable::SymbolTable(std::vector<kelf::LinkedSymbol> symbols)
    : symbols_(std::move(symbols)), by_name_(symbols_.size()) {
  std::iota(by_name_.begin(), by_name_.end(), 0u);
  std::stable_sort(by_name_.begin(), by_name_.end(),
                   [this](uint32_t a, uint32_t b) {
                     return symbols_[a].name < symbols_[b].name;
                   });
  // A power of two at least twice the entries (so twice the names): short
  // linear probes.
  buckets_.resize(std::bit_ceil(2 * by_name_.size() + 1));
  const size_t mask = buckets_.size() - 1;
  for (uint32_t begin = 0, end = 0; begin < by_name_.size(); begin = end) {
    const std::string& name = symbols_[by_name_[begin]].name;
    for (end = begin + 1;
         end < by_name_.size() && symbols_[by_name_[end]].name == name;
         ++end) {
    }
    size_t at = Hash(name) & mask;
    while (buckets_[at].begin != buckets_[at].end) {
      at = (at + 1) & mask;
    }
    buckets_[at] = Bucket{begin, end};
  }
}

uint32_t SymbolTable::Hash(std::string_view name) {
  return ks::Fnv1a32(name);
}

std::span<const uint32_t> SymbolTable::Named(std::string_view name,
                                             uint32_t hash) const {
  const size_t mask = buckets_.size() - 1;
  for (size_t at = hash & mask; buckets_[at].begin != buckets_[at].end;
       at = (at + 1) & mask) {
    const Bucket& bucket = buckets_[at];
    if (symbols_[by_name_[bucket.begin]].name == name) {
      return std::span<const uint32_t>(by_name_).subspan(
          bucket.begin, bucket.end - bucket.begin);
    }
  }
  return {};
}

ks::Result<std::unique_ptr<Machine>> Machine::Boot(
    const kelf::LinkedImage& image, const MachineConfig& config) {
  return Boot(image, std::make_shared<const SymbolTable>(image.symbols),
              config);
}

ks::Result<std::unique_ptr<Machine>> Machine::Boot(
    const kelf::LinkedImage& image, std::shared_ptr<const SymbolTable> symbols,
    const MachineConfig& config) {
  ks::TraceSpan span("kvm.boot");
  if (config.kernel_base < kGuardPage) {
    return ks::InvalidArgument("kernel base inside the guard page");
  }
  if (image.base != config.kernel_base) {
    return ks::InvalidArgument(ks::StrPrintf(
        "kernel image linked at %s, machine expects %s",
        ks::Hex32(image.base).c_str(),
        ks::Hex32(config.kernel_base).c_str()));
  }
  if (static_cast<uint64_t>(image.end()) + (1u << 20) > config.memory_bytes) {
    return ks::ResourceExhausted("kernel image does not fit in memory");
  }

  auto machine = std::unique_ptr<Machine>(new Machine(config));
  KS_ASSIGN_OR_RETURN(machine->memory_, GuestMemory::Map(config.memory_bytes));
  std::copy(image.bytes.begin(), image.bytes.end(),
            machine->memory_.data() + config.kernel_base);
  machine->kernel_end_ = image.end();

  machine->kernel_symbols_ = std::move(symbols);
  machine->RegisterHowtoRegions(image.placements, /*module_id=*/-1);

  // Memory map after the kernel: module arena, heap, then stacks from the
  // top of memory growing down.
  uint32_t cursor = AlignUp(machine->kernel_end_, kPageAlign);
  uint32_t remaining = config.memory_bytes - cursor;
  uint32_t arena_size = remaining / 4;
  uint32_t heap_size = remaining / 4;
  machine->arena_.cursor = cursor;
  machine->arena_.limit = cursor + arena_size;
  machine->heap_.cursor = machine->arena_.limit;
  machine->heap_.limit = machine->heap_.cursor + heap_size;
  machine->stack_limit_ = machine->heap_.limit;
  machine->stack_cursor_ = config.memory_bytes;
  return machine;
}

ks::Result<std::unique_ptr<Machine>> Machine::Boot(
    std::span<const kelf::ObjectFile> kernel_objects,
    const MachineConfig& config) {
  ks::Result<kelf::LinkedImage> image =
      kelf::Link(kernel_objects, config.kernel_base);
  if (!image.ok()) {
    return ks::Status(image.status()).WithContext("booting kernel");
  }
  auto symbols =
      std::make_shared<const SymbolTable>(std::move(image->symbols));
  return Boot(*image, std::move(symbols), config);
}

// ---------------------------------------------------------------------------
// Memory

ks::Result<uint32_t> Machine::ReadWordLocked(uint32_t addr) const {
  if (!InBounds(addr, 4)) {
    return ks::InvalidArgument(
        ks::StrPrintf("bad read at %s", ks::Hex32(addr).c_str()));
  }
  return ks::ReadLe32(memory_.data() + addr);
}

ks::Status Machine::WriteWordLocked(uint32_t addr, uint32_t value) {
  if (!InBounds(addr, 4)) {
    return ks::InvalidArgument(
        ks::StrPrintf("bad write at %s", ks::Hex32(addr).c_str()));
  }
  ks::WriteLe32(memory_.data() + addr, value);
  return ks::OkStatus();
}

ks::Result<uint32_t> Machine::ReadWord(uint32_t addr) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return ReadWordLocked(addr);
}

ks::Result<uint8_t> Machine::ReadByte(uint32_t addr) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (!InBounds(addr, 1)) {
    return ks::InvalidArgument(
        ks::StrPrintf("bad read at %s", ks::Hex32(addr).c_str()));
  }
  return memory_[addr];
}

ks::Status Machine::WriteWord(uint32_t addr, uint32_t value) {
  KS_FAULT_POINT("kvm.write_word");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return WriteWordLocked(addr, value);
}

ks::Status Machine::WriteByte(uint32_t addr, uint8_t value) {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (!InBounds(addr, 1)) {
    return ks::InvalidArgument(
        ks::StrPrintf("bad write at %s", ks::Hex32(addr).c_str()));
  }
  memory_[addr] = value;
  return ks::OkStatus();
}

ks::Result<std::vector<uint8_t>> Machine::ReadBytes(uint32_t addr,
                                                    uint32_t size) const {
  KS_FAULT_POINT("kvm.read_bytes");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (!InBounds(addr, size)) {
    return ks::InvalidArgument(ks::StrPrintf(
        "bad read of %u bytes at %s", size, ks::Hex32(addr).c_str()));
  }
  return std::vector<uint8_t>(memory_.data() + addr,
                              memory_.data() + addr + size);
}

ks::Result<std::span<const uint8_t>> Machine::MemoryView::From(
    uint32_t addr) const {
  KS_FAULT_POINT("kvm.read_bytes");
  if (!machine_.InBounds(addr, 1)) {
    return ks::InvalidArgument(
        ks::StrPrintf("bad read at %s", ks::Hex32(addr).c_str()));
  }
  return std::span<const uint8_t>(machine_.memory_.data() + addr,
                                  machine_.memory_.size() - addr);
}

ks::Status Machine::WriteBytes(uint32_t addr,
                               const std::vector<uint8_t>& bytes) {
  KS_FAULT_POINT("kvm.write_bytes");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (!InBounds(addr, static_cast<uint32_t>(bytes.size()))) {
    return ks::InvalidArgument(ks::StrPrintf(
        "bad write of %zu bytes at %s", bytes.size(),
        ks::Hex32(addr).c_str()));
  }
  std::copy(bytes.begin(), bytes.end(), memory_.data() + addr);
  return ks::OkStatus();
}

// ---------------------------------------------------------------------------
// Symbols

std::vector<kelf::LinkedSymbol> Machine::Kallsyms() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  std::vector<kelf::LinkedSymbol> table = kernel_symbols_->symbols();
  for (const ModuleSymbol& entry : module_symbols_) {
    table.push_back(entry.symbol);
  }
  return table;
}

std::vector<kelf::LinkedSymbol> Machine::SymbolsNamed(
    std::string_view name) const {
  std::vector<kelf::LinkedSymbol> out;
  VisitSymbolsNamed(name, [&out](const kelf::LinkedSymbol& sym) {
    out.push_back(sym);
  });
  return out;
}

void Machine::VisitSymbolsNamed(
    std::string_view name,
    const std::function<void(const kelf::LinkedSymbol&)>& fn) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  const uint32_t hash = SymbolTable::Hash(name);
  for (uint32_t index : kernel_symbols_->Named(name, hash)) {
    fn(kernel_symbols_->symbols()[index]);
  }
  for (const ModuleSymbol& entry : module_symbols_) {
    if (entry.hash == hash && entry.symbol.name == name) {
      fn(entry.symbol);
    }
  }
}

ks::Result<uint32_t> Machine::GlobalSymbol(std::string_view name) const {
  std::optional<uint32_t> global;
  VisitSymbolsNamed(name, [&global](const kelf::LinkedSymbol& sym) {
    if (!global.has_value() && sym.binding == kelf::SymbolBinding::kGlobal) {
      global = sym.address;
    }
  });
  if (global.has_value()) {
    return *global;
  }
  return ks::NotFound(ks::StrPrintf("no exported symbol '%s'",
                                    std::string(name).c_str()));
}

// ---------------------------------------------------------------------------
// Modules

ks::Result<uint32_t> Machine::TakeBlock(BlockList& list, uint32_t size,
                                        bool zero_reused,
                                        const char* exhausted) {
  for (Block& block : list.blocks) {
    if (block.free && block.size >= size) {
      block.free = false;
      if (zero_reused) {
        std::fill(memory_.data() + block.base,
                  memory_.data() + block.base + block.size, 0);
      }
      return block.base;
    }
  }
  const uint32_t base = list.cursor;
  if (base + size > list.limit) {
    return ks::ResourceExhausted(exhausted);
  }
  list.cursor = base + size;
  list.blocks.push_back(Block{base, size, false});
  return base;
}

ks::Result<uint32_t> Machine::ArenaAlloc(uint32_t size) {
  return TakeBlock(arena_, AlignUp(size, kPageAlign), /*zero_reused=*/false,
                   "module arena exhausted");
}

void Machine::ArenaFree(uint32_t base) {
  for (Block& block : arena_.blocks) {
    if (block.base == base) {
      block.free = true;
      // Poison so stale code faults loudly instead of executing.
      std::fill(memory_.data() + base, memory_.data() + base + block.size,
                0xee);
      return;
    }
  }
}

ks::Result<ModuleHandle> Machine::LoadModule(
    const std::vector<kelf::ObjectFile>& objects, const std::string& name,
    SymbolResolver extra_resolver, const std::string& group) {
  KS_FAULT_POINT("kvm.load_module");
  std::unique_lock<std::recursive_mutex> lock(mu_);

  // Reject modules that redefine exported globals.
  for (const kelf::ObjectFile& obj : objects) {
    for (const kelf::Symbol& sym : obj.symbols()) {
      if (sym.defined() && sym.binding == kelf::SymbolBinding::kGlobal &&
          GlobalSymbol(sym.name).ok()) {
        return ks::AlreadyExists(ks::StrPrintf(
            "module %s redefines exported symbol '%s'", name.c_str(),
            sym.name.c_str()));
      }
    }
  }

  // A section aligned beyond a page could land past the end of its arena
  // block, which is only page-aligned. Refusing them also makes the
  // layout the same at every page-aligned base.
  for (const kelf::ObjectFile& obj : objects) {
    for (const kelf::Section& sec : obj.sections()) {
      if (sec.align > kPageAlign) {
        return ks::InvalidArgument(ks::StrPrintf(
            "module %s: section '%s' of %s is aligned to %u bytes, beyond "
            "a page",
            name.c_str(), sec.name.c_str(), obj.source_name().c_str(),
            sec.align));
      }
    }
  }

  // Record every external resolution so the module's import bindings can
  // be inspected after the fact (ModuleImports).
  std::map<std::string, uint32_t> imports;
  const kelf::ExternalResolver resolver =
      [this, &extra_resolver, &imports](
          const std::string& symbol) -> std::optional<uint32_t> {
        std::optional<uint32_t> value;
        ks::Result<uint32_t> addr = GlobalSymbol(symbol);
        if (addr.ok()) {
          value = *addr;
        } else if (extra_resolver != nullptr) {
          value = extra_resolver(symbol);
        }
        if (value.has_value()) {
          imports[symbol] = *value;
        }
        return value;
      };

  KS_ASSIGN_OR_RETURN(uint32_t base, ArenaAlloc(kelf::LayOut(objects, 0)));
  ks::Result<kelf::LinkedImage> image = kelf::Link(objects, base, resolver);
  if (!image.ok()) {
    ArenaFree(base);
    return ks::Status(image.status())
        .WithContext(ks::StrPrintf("loading module %s", name.c_str()));
  }
  std::copy(image->bytes.begin(), image->bytes.end(),
            memory_.data() + base);

  Module module;
  module.name = name;
  module.group = group;
  module.base = base;
  module.size = static_cast<uint32_t>(image->bytes.size());
  module.placements = std::move(image->placements);
  module.imports.assign(imports.begin(), imports.end());
  ModuleHandle handle = AddModule(std::move(module));
  for (kelf::LinkedSymbol& sym : image->symbols) {
    const uint32_t hash = SymbolTable::Hash(sym.name);
    module_symbols_.push_back(ModuleSymbol{hash, handle.id, std::move(sym)});
  }
  RegisterHowtoRegions(modules_.at(handle.id).placements, handle.id);
  return handle;
}

ModuleHandle Machine::AddModule(Module module) {
  ModuleHandle handle;
  handle.id = next_module_id_++;
  modules_.emplace(handle.id, std::move(module));
  ArenaBytesGauge().Set(ModuleArenaBytesInUse());
  return handle;
}

ks::Result<const Machine::Module*> Machine::FindModule(
    ModuleHandle handle) const {
  auto it = modules_.find(handle.id);
  if (it != modules_.end()) {
    return &it->second;
  }
  if (handle.id < 0 || handle.id >= next_module_id_) {
    return ks::InvalidArgument("bad module handle");
  }
  return ks::FailedPrecondition("module is unloaded");
}

ks::Status Machine::UnloadModule(ModuleHandle handle) {
  KS_FAULT_POINT("kvm.unload_module");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  KS_ASSIGN_OR_RETURN(const Module* found, FindModule(handle));
  const Module& module = *found;
  ArenaFree(module.base);
  UnregisterHowtoRegions(handle.id);

  std::erase_if(module_symbols_, [&handle](const ModuleSymbol& entry) {
    return entry.module_id == handle.id;
  });
  modules_.erase(handle.id);
  ArenaBytesGauge().Set(ModuleArenaBytesInUse());
  return ks::OkStatus();
}

ks::Result<ModuleInfo> Machine::GetModuleInfo(ModuleHandle handle) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  KS_ASSIGN_OR_RETURN(const Module* module, FindModule(handle));
  ModuleInfo info;
  info.name = module->name;
  info.base = module->base;
  info.size = module->size;
  return info;
}

ks::Result<int> Machine::UnloadGroup(const std::string& group) {
  KS_FAULT_POINT("kvm.unload_group");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (group.empty()) {
    return ks::InvalidArgument("cannot unload the ungrouped modules");
  }
  std::vector<int> members;
  for (const auto& [id, module] : modules_) {
    if (module.group == group) {
      members.push_back(id);
    }
  }
  // Newest first: later modules of a group may resolve against earlier
  // ones, and unloading in reverse keeps kallsyms consistent throughout.
  int unloaded = 0;
  for (auto it = members.rbegin(); it != members.rend(); ++it) {
    KS_RETURN_IF_ERROR(UnloadModule(ModuleHandle{*it}));
    ++unloaded;
  }
  return unloaded;
}

size_t Machine::LoadedModuleCount() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return modules_.size();
}

ks::Result<std::vector<std::pair<std::string, uint32_t>>>
Machine::ModuleImports(ModuleHandle handle) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  KS_ASSIGN_OR_RETURN(const Module* module, FindModule(handle));
  return module->imports;
}

ks::Result<ModuleHandle> Machine::LoadBlob(const std::string& name,
                                           uint32_t size,
                                           const std::string& group) {
  KS_FAULT_POINT("kvm.load_blob");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  KS_ASSIGN_OR_RETURN(uint32_t base, ArenaAlloc(size));
  Module module;
  module.name = name;
  module.group = group;
  module.base = base;
  module.size = size;
  return AddModule(std::move(module));
}

ks::Result<std::vector<kelf::PlacedSection>> Machine::ModulePlacements(
    ModuleHandle handle) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  KS_ASSIGN_OR_RETURN(const Module* module, FindModule(handle));
  return module->placements;
}

// ---------------------------------------------------------------------------
// Howto regions

void Machine::RegisterHowtoRegions(
    const std::vector<kelf::PlacedSection>& placements, int module_id) {
  for (const kelf::PlacedSection& placement : placements) {
    if (placement.howto == kelf::Howto::kNone || placement.size == 0) {
      continue;
    }
    howto_regions_.push_back(HowtoRegion{
        .howto = placement.howto,
        .base = placement.address,
        .size = placement.size,
        .name = placement.name,
        .module_id = module_id,
    });
  }
}

void Machine::UnregisterHowtoRegions(int module_id) {
  howto_regions_.erase(
      std::remove_if(howto_regions_.begin(), howto_regions_.end(),
                     [module_id](const HowtoRegion& region) {
                       return region.module_id == module_id;
                     }),
      howto_regions_.end());
}

std::optional<uint32_t> Machine::ExtableFixupFor(uint32_t pc) const {
  for (const HowtoRegion& region : howto_regions_) {
    if (region.howto != kelf::Howto::kExtable) {
      continue;
    }
    // Entries are (faulting insn addr, fixup addr) word pairs, read from
    // guest memory so patched table bytes take effect immediately.
    for (uint32_t off = 0; off + kelf::kHowtoEntrySize <= region.size;
         off += kelf::kHowtoEntrySize) {
      if (!InBounds(region.base + off, kelf::kHowtoEntrySize)) {
        break;
      }
      uint32_t insn = ks::ReadLe32(memory_.data() + region.base + off);
      if (insn == pc) {
        return ks::ReadLe32(memory_.data() + region.base + off + 4);
      }
    }
  }
  return std::nullopt;
}

std::optional<std::pair<std::string, uint32_t>> Machine::BugEntryFor(
    uint32_t pc) const {
  for (const HowtoRegion& region : howto_regions_) {
    if (region.howto != kelf::Howto::kBug) {
      continue;
    }
    // Entries are (trap addr, source line) word pairs.
    for (uint32_t off = 0; off + kelf::kHowtoEntrySize <= region.size;
         off += kelf::kHowtoEntrySize) {
      if (!InBounds(region.base + off, kelf::kHowtoEntrySize)) {
        break;
      }
      uint32_t trap = ks::ReadLe32(memory_.data() + region.base + off);
      if (trap == pc) {
        return std::make_pair(
            region.name, ks::ReadLe32(memory_.data() + region.base + off + 4));
      }
    }
  }
  return std::nullopt;
}

std::vector<HowtoRegion> Machine::HowtoRegions() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return howto_regions_;
}

uint64_t Machine::ExtableFixups() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return extable_fixups_;
}

ks::Result<uint32_t> Machine::CallFunction(uint32_t entry, uint32_t arg,
                                           uint64_t max_ticks) {
  KS_FAULT_POINT("kvm.call_function");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (hook_stack_top_ == 0) {
    uint32_t bytes = AlignUp(kDefaultStackBytes, 16);
    if (stack_cursor_ < stack_limit_ + bytes) {
      return ks::ResourceExhausted("out of stack space for hook calls");
    }
    hook_stack_top_ = stack_cursor_;
    stack_cursor_ -= bytes;
  }
  Thread thread;
  thread.tid = 0;  // synthetic; not in threads_, invisible to the scheduler
  thread.stack_top = hook_stack_top_;
  thread.stack_base = hook_stack_top_ - kDefaultStackBytes;
  thread.pc = entry;
  uint32_t sp = hook_stack_top_;
  sp -= 4;
  ks::WriteLe32(memory_.data() + sp, arg);
  sp -= 4;
  ks::WriteLe32(memory_.data() + sp, kThreadExitMagic);
  thread.regs[7] = sp;
  thread.regs[6] = sp;

  uint64_t spent = 0;
  while (thread.state == ThreadState::kRunnable && spent < max_ticks) {
    spent += ExecThread(thread, config_.slice_instructions);
  }
  switch (thread.state) {
    case ThreadState::kDone:
      return thread.regs[0];
    case ThreadState::kFaulted:
      return ks::Aborted(
          ks::StrPrintf("hook call faulted: %s", thread.fault.c_str()));
    case ThreadState::kSleeping:
    case ThreadState::kLockWait:
      return ks::FailedPrecondition(
          "hook call blocked (hooks must not sleep or take the kernel lock)");
    case ThreadState::kRunnable:
      return ks::Aborted("hook call exceeded its tick budget");
  }
  return ks::Internal("unreachable hook state");
}

uint32_t Machine::ModuleArenaBytesInUse() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  uint32_t total = 0;
  for (const Block& block : arena_.blocks) {
    if (!block.free) {
      total += block.size;
    }
  }
  return total;
}

// ---------------------------------------------------------------------------
// Heap

ks::Result<uint32_t> Machine::HeapAlloc(uint32_t size) {
  return TakeBlock(heap_, AlignUp(size == 0 ? 4 : size, 16),
                   /*zero_reused=*/true, "kernel heap exhausted");
}

ks::Status Machine::HeapFree(uint32_t addr) {
  for (Block& block : heap_.blocks) {
    if (block.base == addr && !block.free) {
      block.free = true;
      return ks::OkStatus();
    }
  }
  return ks::InvalidArgument(
      ks::StrPrintf("bad kfree of %s", ks::Hex32(addr).c_str()));
}

ks::Result<uint32_t> Machine::HostKmalloc(uint32_t size) {
  KS_FAULT_POINT("kvm.host_kmalloc");
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return HeapAlloc(size);
}

ks::Status Machine::HostKfree(uint32_t addr) {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return HeapFree(addr);
}

ks::Result<uint32_t> Machine::HostShadowGet(uint32_t obj, uint32_t key) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  auto it = shadows_.find({obj, key});
  if (it == shadows_.end()) {
    return ks::NotFound("no shadow for object");
  }
  return it->second;
}

// ---------------------------------------------------------------------------
// Threads and scheduling

ks::Result<int> Machine::Spawn(uint32_t entry, uint32_t arg,
                               uint32_t stack_bytes) {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  if (stack_bytes == 0) {
    stack_bytes = kDefaultStackBytes;
  }
  stack_bytes = AlignUp(stack_bytes, 16);
  // Reuse the most recently reaped stack of this size; reaping zeroed it.
  auto reaped = std::find_if(
      free_stacks_.rbegin(), free_stacks_.rend(),
      [stack_bytes](const FreeStack& s) { return s.bytes == stack_bytes; });
  uint32_t top = stack_cursor_;
  if (reaped != free_stacks_.rend()) {
    top = reaped->top;
    free_stacks_.erase(std::next(reaped).base());
  } else if (stack_cursor_ < stack_limit_ + stack_bytes) {
    return ks::ResourceExhausted("out of stack space");
  } else {
    stack_cursor_ -= stack_bytes;
  }

  Thread thread;
  thread.tid = next_tid_++;
  thread.stack_base = top - stack_bytes;
  thread.stack_top = top;
  thread.pc = entry;
  // The thread starts as if called with one argument: [arg][return->exit].
  uint32_t sp = top;
  sp -= 4;
  ks::WriteLe32(memory_.data() + sp, arg);
  sp -= 4;
  ks::WriteLe32(memory_.data() + sp, kThreadExitMagic);
  thread.regs[7] = sp;
  thread.regs[6] = sp;  // fp; callee prologue re-establishes it
  threads_.push_back(thread);
  return thread.tid;
}

ks::Result<int> Machine::SpawnNamed(const std::string& function_name,
                                    uint32_t arg, uint32_t stack_bytes) {
  KS_ASSIGN_OR_RETURN(uint32_t entry, GlobalSymbol(function_name));
  return Spawn(entry, arg, stack_bytes);
}

std::vector<ThreadInfo> Machine::Threads() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  std::vector<ThreadInfo> out;
  out.reserve(threads_.size());
  for (const Thread& thread : threads_) {
    ThreadInfo info;
    info.tid = thread.tid;
    info.state = thread.state;
    info.pc = thread.pc;
    info.sp = thread.regs[7];
    info.stack_base = thread.stack_base;
    info.stack_top = thread.stack_top;
    info.fault = thread.fault;
    out.push_back(std::move(info));
  }
  return out;
}

bool Machine::HasLiveThreads() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  for (const Thread& thread : threads_) {
    if (thread.state == ThreadState::kRunnable ||
        thread.state == ThreadState::kSleeping ||
        thread.state == ThreadState::kLockWait) {
      return true;
    }
  }
  return false;
}

uint64_t Machine::Ticks() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return ticks_;
}

void Machine::WakeSleepers() {
  for (Thread& thread : threads_) {
    if (thread.state == ThreadState::kSleeping &&
        thread.wake_tick <= ticks_) {
      thread.state = ThreadState::kRunnable;
    }
  }
}

void Machine::ReapIfDone(size_t idx) {
  const Thread& thread = threads_[idx];
  if (thread.state != ThreadState::kDone) {
    return;
  }
  std::fill(memory_.data() + thread.stack_base,
            memory_.data() + thread.stack_top, 0);
  free_stacks_.push_back(
      FreeStack{thread.stack_top, thread.stack_top - thread.stack_base});
  threads_.erase(threads_.begin() + static_cast<long>(idx));
  // The cursor names the thread after `idx`, which moved down one slot, so
  // the next scan visits the survivors in the same order as before.
  if (sched_cursor_ > idx) {
    --sched_cursor_;
  }
}

int Machine::NextRunnable(size_t start_hint, uint64_t deadline) {
  WakeSleepers();
  size_t n = threads_.size();
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (start_hint + i) % n;
    if (threads_[idx].state == ThreadState::kRunnable) {
      return static_cast<int>(idx);
    }
  }
  // Nobody runnable: fast-forward virtual time to the next wake, if any,
  // but never past the caller's deadline.
  uint64_t min_wake = UINT64_MAX;
  for (const Thread& thread : threads_) {
    if (thread.state == ThreadState::kSleeping) {
      min_wake = std::min(min_wake, thread.wake_tick);
    }
  }
  if (min_wake == UINT64_MAX) {
    return -1;
  }
  if (min_wake > deadline) {
    ticks_ = std::max(ticks_, deadline);
    return -1;
  }
  ticks_ = min_wake;
  WakeSleepers();
  for (size_t i = 0; i < n; ++i) {
    size_t idx = (start_hint + i) % n;
    if (threads_[idx].state == ThreadState::kRunnable) {
      return static_cast<int>(idx);
    }
  }
  return -1;
}

ks::Status Machine::RunLocked(uint64_t max_ticks) {
  uint64_t deadline = ticks_ + max_ticks;
  while (ticks_ < deadline && !halted_) {
    if (threads_.empty()) {
      return ks::OkStatus();
    }
    int idx = NextRunnable(sched_cursor_, deadline);
    if (idx < 0) {
      return ks::OkStatus();  // idle until the deadline
    }
    sched_cursor_ = static_cast<size_t>(idx) + 1;
    uint64_t budget =
        std::min<uint64_t>(static_cast<uint64_t>(config_.slice_instructions),
                           deadline - ticks_);
    ExecThread(threads_[static_cast<size_t>(idx)],
               static_cast<int>(budget));
    ReapIfDone(static_cast<size_t>(idx));
  }
  return ks::OkStatus();
}

ks::Status Machine::Run(uint64_t max_ticks) {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return RunLocked(max_ticks);
}

ks::Status Machine::RunToCompletion(uint64_t safety_cap) {
  uint64_t executed = 0;
  while (executed < safety_cap) {
    uint64_t before = Ticks();
    KS_RETURN_IF_ERROR(Run(100'000));
    uint64_t after = Ticks();
    executed += after - before;
    if (Halted()) {
      return ks::Aborted("machine halted (kernel panic)");
    }
    if (!HasLiveThreads()) {
      return ks::OkStatus();
    }
    if (after == before) {
      return ks::Aborted(
          "machine stalled: live threads but no runnable/sleeping progress");
    }
  }
  return ks::Aborted("run-to-completion safety cap reached");
}

void Machine::StartCpus(int count) {
  StopCpus();
  {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    cpus_should_stop_ = false;
  }
  for (int i = 0; i < count; ++i) {
    cpus_.emplace_back([this]() {
      while (true) {
        {
          std::unique_lock<std::recursive_mutex> lock(mu_);
          if (cpus_should_stop_) {
            return;
          }
          if (!threads_.empty() && !halted_) {
            int idx = NextRunnable(sched_cursor_, UINT64_MAX);
            if (idx >= 0) {
              sched_cursor_ = static_cast<size_t>(idx) + 1;
              ExecThread(threads_[static_cast<size_t>(idx)],
                         config_.slice_instructions);
              ReapIfDone(static_cast<size_t>(idx));
            }
          }
        }
        std::this_thread::yield();
      }
    });
  }
}

void Machine::StopCpus() {
  {
    std::unique_lock<std::recursive_mutex> lock(mu_);
    cpus_should_stop_ = true;
  }
  for (std::thread& cpu : cpus_) {
    if (cpu.joinable()) {
      cpu.join();
    }
  }
  cpus_.clear();
}

int Machine::ActiveCpus() const {
  return static_cast<int>(cpus_.size());
}

ks::Status Machine::Advance(uint64_t ticks) {
  if (!cpus_.empty()) {
    std::this_thread::sleep_for(std::chrono::microseconds(200));
    return ks::OkStatus();
  }
  return Run(ticks);
}

ks::Status Machine::StopMachine(
    const std::function<ks::Status(Machine&)>& fn) {
  KS_FAULT_POINT("kvm.stop_machine");
  static ks::Counter& calls =
      ks::Metrics().GetCounter("kvm.stop_machine_calls");
  static ks::Histogram& rendezvous =
      ks::Metrics().GetHistogram("kvm.stop_rendezvous_ns");
  // Taking the machine lock captures every virtual CPU: slices are atomic
  // with respect to it, so no thread is mid-instruction while fn runs. The
  // wait for the lock is the rendezvous latency.
  auto wait_begin = std::chrono::steady_clock::now();
  std::unique_lock<std::recursive_mutex> lock(mu_);
  calls.Add(1);
  rendezvous.Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - wait_begin)
          .count()));
  return fn(*this);
}

std::vector<uint32_t> Machine::RecordsWithKey(uint32_t key) const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  std::vector<uint32_t> out;
  for (const auto& [k, v] : records_) {
    if (k == key) {
      out.push_back(v);
    }
  }
  return out;
}

std::string FaultRecord::ToString() const {
  return ks::StrPrintf("tid %d at %s: %s", tid, ks::Hex32(pc).c_str(),
                       reason.c_str());
}

std::vector<std::string> Machine::Faults() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  std::vector<std::string> lines;
  lines.reserve(fault_records_.size());
  for (const FaultRecord& record : fault_records_) {
    lines.push_back(record.ToString());
  }
  return lines;
}

std::vector<FaultRecord> Machine::FaultRecords() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return fault_records_;
}

uint64_t Machine::FaultCount() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return total_faults_;
}

uint64_t Machine::DroppedLogLines() const {
  std::unique_lock<std::recursive_mutex> lock(mu_);
  return dropped_log_lines_;
}

}  // namespace kvm
