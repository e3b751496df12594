// End-to-end tests of the simulated kernel: compile KC source with kcc,
// boot it, run threads, and observe behaviour. These exercise the entire
// substrate stack (kcc -> kas -> kelf link -> kvm execution).

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <regex>
#include <set>
#include <thread>
#include <tuple>

#include "base/faultinject.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/rendezvous.h"
#include "kvm/machine.h"
#include "kvx/isa.h"

namespace kvm {
namespace {

using kdiff::SourceTree;

std::unique_ptr<Machine> BootTree(const SourceTree& tree,
                                  const kcc::CompileOptions& options = {},
                                  const MachineConfig& config = {}) {
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, options);
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  if (!objects.ok()) {
    return nullptr;
  }
  ks::Result<std::unique_ptr<Machine>> machine =
      Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  return machine.ok() ? std::move(machine).value() : nullptr;
}

std::unique_ptr<Machine> BootSource(const std::string& source,
                                    const kcc::CompileOptions& options = {}) {
  SourceTree tree;
  tree.Write("kernel.kc", source);
  return BootTree(tree, options);
}

// Runs `source`'s global function `entry(arg)` in a fresh machine and
// returns the values recorded with key 100.
std::vector<uint32_t> RunAndRecord(const std::string& source,
                                   const std::string& entry,
                                   uint32_t arg = 0) {
  std::unique_ptr<Machine> machine = BootSource(source);
  if (machine == nullptr) {
    return {};
  }
  ks::Result<int> tid = machine->SpawnNamed(entry, arg);
  EXPECT_TRUE(tid.ok()) << tid.status().ToString();
  ks::Status run = machine->RunToCompletion();
  EXPECT_TRUE(run.ok()) << run.ToString();
  for (const std::string& fault : machine->Faults()) {
    ADD_FAILURE() << "unexpected fault: " << fault;
  }
  return machine->RecordsWithKey(100);
}

TEST(MachineTest, ArithmeticAndRecord) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
void main(int arg) {
  record(100, 2 + arg * 10);
}
)",
                                            "main", 4);
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, ControlFlowLoops) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
void main(int n) {
  int total = 0;
  int i;
  for (i = 1; i <= n; i++) {
    if (i % 3 == 0) { continue; }
    total += i;
  }
  while (total > 100) {
    total -= 100;
  }
  record(100, total);
}
)",
                                            "main", 10);
  // 1+2+4+5+7+8+10 = 37.
  EXPECT_EQ(vals, std::vector<uint32_t>{37});
}

TEST(MachineTest, GlobalsAndPointers) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int counter = 5;
int *alias;
void main(int unused) {
  alias = &counter;
  *alias = *alias + 37;
  record(100, counter);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, ArraysAndCharData) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
char buf[8];
int table[4] = {10, 20, 30, 40};
void main(int unused) {
  int i;
  for (i = 0; i < 8; i++) {
    buf[i] = (char)(i * 2);
  }
  record(100, buf[3] + table[2]);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{36});
}

TEST(MachineTest, CharTruncationSemantics) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
char c;
void main(int unused) {
  c = (char)300;     /* 300 & 0xff == 44 */
  record(100, c);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{44});
}

TEST(MachineTest, StructsAndLinkedList) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
struct node {
  int value;
  struct node *next;
};
struct node a;
struct node b;
struct node c;
void main(int unused) {
  a.value = 1; a.next = &b;
  b.value = 2; b.next = &c;
  c.value = 39; c.next = 0;
  int total = 0;
  struct node *cur = &a;
  while (cur != 0) {
    total += cur->value;
    cur = cur->next;
  }
  record(100, total);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, FunctionCallsAndRecursion) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int fib(int n) {
  if (n < 2) { return n; }
  return fib(n - 1) + fib(n - 2);
}
void main(int n) {
  record(100, fib(n));
}
)",
                                            "main", 10);
  EXPECT_EQ(vals, std::vector<uint32_t>{55});
}

TEST(MachineTest, StaticLocalsPersistAcrossCalls) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int bump() {
  static int count = 40;
  count++;
  return count;
}
void main(int unused) {
  bump();
  record(100, bump());
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, InlinedCalleeBehavesIdentically) {
  // `twice` is small enough to inline; semantics must not change.
  std::vector<uint32_t> vals = RunAndRecord(R"(
int twice(int x) { return x * 2; }
void main(int n) {
  record(100, twice(n) + twice(1));
}
)",
                                            "main", 20);
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, KmallocAndKfree) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
void main(int unused) {
  int *p = (int*)kmalloc(sizeof(int) * 4);
  if (p == 0) {
    record(100, 0);
    return;
  }
  p[0] = 40;
  p[3] = 2;
  record(100, p[0] + p[3]);
  kfree((char*)p);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, ShadowDataStructures) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int object = 7;
void main(int unused) {
  int *shadow = (int*)shadow_attach((int)&object, 1, sizeof(int));
  *shadow = 41;
  int *again = (int*)shadow_get((int)&object, 1);
  record(100, *again + 1);
  shadow_detach((int)&object, 1);
  record(100, shadow_get((int)&object, 1));
}
)",
                                            "main");
  EXPECT_EQ(vals, (std::vector<uint32_t>{42, 0}));
}

TEST(MachineTest, KthreadAndSleep) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int done = 0;
void worker(int value) {
  sleep(50);
  done = value;
}
void main(int unused) {
  kthread(worker, 42);
  while (done == 0) {
    sleep(10);
  }
  record(100, done);
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, BigKernelLockExcludesConcurrentCritical) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
int shared = 0;
void bump_many(int n) {
  int i;
  for (i = 0; i < n; i++) {
    lock_kernel();
    int old = shared;
    yield();               /* invite a preemption inside the critical section */
    shared = old + 1;
    unlock_kernel();
  }
}
void main(int n) {
  int t1 = kthread(bump_many, n);
  int t2 = kthread(bump_many, n);
  bump_many(n);
  sleep(100000);
  record(100, shared);
}
)",
                                            "main", 50);
  EXPECT_EQ(vals, std::vector<uint32_t>{150});
}

TEST(MachineTest, PrintkLog) {
  std::unique_ptr<Machine> machine = BootSource(R"(
void main(int unused) {
  printk("hello from the kernel\n");
  printk("second line");
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("main", 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  std::vector<std::string> log = machine->PrintkLog();
  ASSERT_EQ(log.size(), 2u);
  EXPECT_EQ(log[0], "hello from the kernel\n");
  EXPECT_EQ(log[1], "second line");
}

TEST(MachineTest, NullDereferenceFaults) {
  std::unique_ptr<Machine> machine = BootSource(R"(
void main(int unused) {
  int *p = 0;
  *p = 1;
  record(100, 999);
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("main", 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->Faults().size(), 1u);
  EXPECT_TRUE(machine->RecordsWithKey(100).empty());
  std::vector<ThreadInfo> threads = machine->Threads();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].state, ThreadState::kFaulted);
}

TEST(MachineTest, DivisionByZeroFaults) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int denom = 0;
void main(int n) {
  record(100, n / denom);
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("main", 10).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_EQ(machine->Faults().size(), 1u);
  EXPECT_NE(machine->Faults()[0].find("division by zero"),
            std::string::npos);
}

TEST(MachineTest, StackOverflowFaults) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int infinite(int n) {
  return infinite(n + 1);
}
void main(int unused) {
  record(100, infinite(0));
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("main", 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_EQ(machine->Faults().size(), 1u);
  EXPECT_NE(machine->Faults()[0].find("stack overflow"), std::string::npos);
}

TEST(MachineTest, BoundedFaultLogCountsEachEvictionOnce) {
  // Faults() renders the fault records, so evicting one fault drops one
  // line: 6 faults under a 4-line cap report 2 dropped lines, and the
  // surviving lines are the newest 4 of an unbounded run's log.
  SourceTree tree;
  tree.Write("kernel.kc", R"(
void poke(int addr) {
  int *p = (int*)addr;
  *p = 1;
}
)");
  auto six_faults = [&tree](uint32_t max_log_lines) {
    MachineConfig config;
    config.max_log_lines = max_log_lines;
    std::unique_ptr<Machine> machine = BootTree(tree, {}, config);
    for (uint32_t addr = 0; machine != nullptr && addr < 24; addr += 4) {
      EXPECT_TRUE(machine->SpawnNamed("poke", addr).ok());
      EXPECT_TRUE(machine->RunToCompletion().ok());
    }
    return machine;
  };
  std::unique_ptr<Machine> capped = six_faults(4);
  std::unique_ptr<Machine> unbounded = six_faults(0);
  ASSERT_NE(capped, nullptr);
  ASSERT_NE(unbounded, nullptr);

  EXPECT_EQ(capped->FaultCount(), 6u);
  EXPECT_EQ(capped->DroppedLogLines(), 2u);
  EXPECT_EQ(unbounded->DroppedLogLines(), 0u);
  std::vector<std::string> all = unbounded->Faults();
  ASSERT_EQ(all.size(), 6u);
  EXPECT_EQ(capped->Faults(),
            std::vector<std::string>(all.begin() + 2, all.end()));
  for (size_t i = 0; i < all.size(); ++i) {
    EXPECT_TRUE(std::regex_match(
        all[i], std::regex(ks::StrPrintf(
                    "tid [0-9]+ at 0x[0-9a-f]{8}: bad store at 0x%08zx",
                    4 * i))))
        << all[i];
  }
}

TEST(MachineTest, SleepingThreadKeepsStackFrames) {
  // The §5.2 quiescence scenario: a thread blocked in a sleep-like kernel
  // function keeps its caller chain on the stack; the paused pc sits
  // inside the schedule-analogue.
  // my_schedule is padded past the inline threshold, like the real
  // schedule(): callers reach it through a genuine call frame.
  std::unique_ptr<Machine> machine = BootSource(R"(
int sched_stat_a; int sched_stat_b; int sched_stat_c;
void my_schedule() {
  sched_stat_a += 1; sched_stat_b += 2; sched_stat_c += 3;
  sched_stat_a += sched_stat_b; sched_stat_b += sched_stat_c;
  sched_stat_c += sched_stat_a; sched_stat_a += 4; sched_stat_b += 5;
  sleep(1000000);
  sched_stat_c += 6;
}
void waiter(int unused) {
  my_schedule();
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("waiter", 0).ok());
  ASSERT_TRUE(machine->Run(10'000).ok());

  std::vector<ThreadInfo> threads = machine->Threads();
  ASSERT_EQ(threads.size(), 1u);
  EXPECT_EQ(threads[0].state, ThreadState::kSleeping);

  std::vector<kelf::LinkedSymbol> sched =
      machine->SymbolsNamed("my_schedule");
  ASSERT_EQ(sched.size(), 1u);
  // pc paused inside my_schedule (it is too small to matter whether it was
  // inlined — check the return-address fallback too).
  bool pc_inside = threads[0].pc >= sched[0].address &&
                   threads[0].pc < sched[0].address + sched[0].size;
  bool retaddr_inside = false;
  for (uint32_t sp = threads[0].sp; sp + 4 <= threads[0].stack_top;
       sp += 4) {
    uint32_t word = *machine->ReadWord(sp);
    if (word >= sched[0].address &&
        word < sched[0].address + sched[0].size) {
      retaddr_inside = true;
    }
  }
  EXPECT_TRUE(pc_inside || retaddr_inside);
}

TEST(MachineTest, AssemblyUnitRuns) {
  SourceTree tree;
  tree.Write("entry.kvs", R"(
.text
.global asm_entry
asm_entry:
    push fp
    mov fp, sp
    mov r0, =result
    mov r1, 42
    store [r0], r1
    mov r0, =result
    load r0, [r0]
    mov r1, r0
    mov r0, 100
    sys 7          ; record(100, 42)
    mov sp, fp
    pop fp
    ret
.data
.global result
result:
    .word 0
)");
  kcc::CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  MachineConfig config;
  ks::Result<std::unique_ptr<Machine>> machine =
      Machine::Boot(std::move(objects).value(), config);
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ASSERT_TRUE((*machine)->SpawnNamed("asm_entry", 0).ok());
  ASSERT_TRUE((*machine)->RunToCompletion().ok());
  EXPECT_EQ((*machine)->RecordsWithKey(100), std::vector<uint32_t>{42});
}

TEST(MachineTest, CrossUnitCallsAndData) {
  SourceTree tree;
  tree.Write("lib.h", "int libfunc(int x);\nextern int lib_state;\n");
  tree.Write("lib.kc", R"(
int lib_state = 30;
int libfunc(int x) {
  lib_state += x;
  return lib_state;
}
)");
  tree.Write("main.kc", R"(
#include "lib.h"
void main(int unused) {
  libfunc(4);
  record(100, libfunc(8));
}
)");
  kcc::CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  MachineConfig config;
  ks::Result<std::unique_ptr<Machine>> machine =
      Machine::Boot(std::move(objects).value(), config);
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ASSERT_TRUE((*machine)->SpawnNamed("main", 0).ok());
  ASSERT_TRUE((*machine)->RunToCompletion().ok());
  EXPECT_EQ((*machine)->RecordsWithKey(100), std::vector<uint32_t>{42});
}

TEST(MachineTest, MonolithicAndSectionedKernelsBehaveIdentically) {
  std::string src = R"(
int acc = 0;
int helper(int x) { return x + 1; }
void main(int n) {
  int i;
  for (i = 0; i < n; i++) {
    acc += helper(i);
  }
  record(100, acc);
}
)";
  for (bool sections : {false, true}) {
    kcc::CompileOptions options;
    options.function_sections = sections;
    options.data_sections = sections;
    std::unique_ptr<Machine> machine = BootSource(src, options);
    ASSERT_NE(machine, nullptr);
    ASSERT_TRUE(machine->SpawnNamed("main", 8).ok());
    ASSERT_TRUE(machine->RunToCompletion().ok());
    // sum over i in [0,8) of (i+1) = 36.
    EXPECT_EQ(machine->RecordsWithKey(100), std::vector<uint32_t>{36})
        << "sections=" << sections;
  }
}

TEST(MachineTest, ModuleLoadAndUnload) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int kernel_value = 40;
int kernel_add(int x) {
  kernel_value += x;
  return kernel_value;
}
)");
  ASSERT_NE(machine, nullptr);

  SourceTree mod_tree;
  mod_tree.Write("mod.kc", R"(
extern int kernel_value;
int kernel_add(int x);
void mod_entry(int unused) {
  record(100, kernel_add(2));
}
)");
  kcc::CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod_tree, options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();

  uint32_t before = machine->ModuleArenaBytesInUse();
  ks::Result<ModuleHandle> handle =
      machine->LoadModule(*objects, "testmod");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  EXPECT_GT(machine->ModuleArenaBytesInUse(), before);

  ASSERT_TRUE(machine->SpawnNamed("mod_entry", 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->RecordsWithKey(100), std::vector<uint32_t>{42});

  ASSERT_TRUE(machine->UnloadModule(*handle).ok());
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), before);
  // Unloaded module's symbols are gone.
  EXPECT_TRUE(machine->SymbolsNamed("mod_entry").empty());
  // Double unload fails.
  EXPECT_FALSE(machine->UnloadModule(*handle).ok());
}

TEST(MachineTest, ModuleCannotRedefineExportedGlobal) {
  std::unique_ptr<Machine> machine = BootSource("int exported = 1;\n");
  ASSERT_NE(machine, nullptr);
  SourceTree mod_tree;
  mod_tree.Write("mod.kc", "int exported = 2;\n");
  kcc::CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod_tree, options);
  ASSERT_TRUE(objects.ok());
  EXPECT_EQ(machine->LoadModule(*objects, "dup").status().code(),
            ks::ErrorCode::kAlreadyExists);
}

TEST(MachineTest, ModuleWithUnresolvedImportFails) {
  std::unique_ptr<Machine> machine = BootSource("int x = 1;\n");
  ASSERT_NE(machine, nullptr);
  SourceTree mod_tree;
  mod_tree.Write("mod.kc",
                 "int missing_fn(int);\nvoid e(int u) { missing_fn(1); }\n");
  kcc::CompileOptions options;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod_tree, options);
  ASSERT_TRUE(objects.ok());
  EXPECT_FALSE(machine->LoadModule(*objects, "bad").ok());
}

std::vector<kelf::ObjectFile> BuildObjects(const std::string& source) {
  SourceTree tree;
  tree.Write("kernel.kc", source);
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, kcc::CompileOptions());
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  return objects.ok() ? std::move(objects).value()
                      : std::vector<kelf::ObjectFile>();
}

// A section aligned beyond a page is refused before the module takes an
// arena block. Its layout would otherwise depend on the block's base: here
// it would reuse a freed one-page block that sits right below a live
// neighbour, and spill into it.
TEST(MachineTest, OverAlignedModuleSectionIsRefused) {
  std::unique_ptr<Machine> machine = BootSource("int kernel_value = 40;\n");
  ASSERT_NE(machine, nullptr);
  std::vector<kelf::ObjectFile> first = BuildObjects(
      "int first_value = 1;\nint first_get(int x) { return x; }\n");
  std::vector<kelf::ObjectFile> neighbour = BuildObjects(
      "int next_value = 2;\nint next_get(int x) { return next_value + x; }\n");
  std::vector<kelf::ObjectFile> wide =
      BuildObjects("int wide_get(int x) { return x + 3; }\n");
  ASSERT_FALSE(first.empty() || neighbour.empty() || wide.empty());

  ks::Result<ModuleHandle> first_handle = machine->LoadModule(first, "first");
  ASSERT_TRUE(first_handle.ok()) << first_handle.status().ToString();
  ks::Result<ModuleHandle> next_handle =
      machine->LoadModule(neighbour, "neighbour");
  ASSERT_TRUE(next_handle.ok()) << next_handle.status().ToString();
  ks::Result<ModuleInfo> first_info = machine->GetModuleInfo(*first_handle);
  ks::Result<ModuleInfo> next_info = machine->GetModuleInfo(*next_handle);
  ASSERT_TRUE(first_info.ok() && next_info.ok());
  ASSERT_EQ(first_info->base + 0x1000, next_info->base);
  ks::Result<std::vector<uint8_t>> next_bytes =
      machine->ReadBytes(next_info->base, next_info->size);
  ASSERT_TRUE(next_bytes.ok());
  ASSERT_TRUE(machine->UnloadModule(*first_handle).ok());
  const uint32_t arena = machine->ModuleArenaBytesInUse();

  wide[0].sections()[0].align = 0x10000;
  const std::string section = wide[0].sections()[0].name;
  ks::Result<ModuleHandle> refused = machine->LoadModule(wide, "wide");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ks::ErrorCode::kInvalidArgument);
  EXPECT_NE(refused.status().message().find("module wide"), std::string::npos)
      << refused.status().ToString();
  EXPECT_NE(refused.status().message().find("'" + section + "'"),
            std::string::npos)
      << refused.status().ToString();
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena);
  EXPECT_EQ(machine->ReadBytes(next_info->base, next_info->size).value(),
            *next_bytes);
}

// The loader sizes a module with a layout-only pass and links it once, at
// its arena block's base.
TEST(KvmTest, LoadModuleLinksOnce) {
  std::unique_ptr<Machine> machine = BootSource("int kernel_value = 40;\n");
  ASSERT_NE(machine, nullptr);
  std::vector<kelf::ObjectFile> objects = BuildObjects(
      "extern int kernel_value;\n"
      "int mod_get(int x) { return kernel_value + x; }\n");
  ASSERT_FALSE(objects.empty());

  // Any armed site makes the injector count hits at every site.
  ks::ScopedFaultPlan plan;
  ASSERT_TRUE(plan.Arm("kvm.test.sentinel=nth:1000000000").ok());
  for (int load = 0; load < 3; ++load) {
    const uint64_t before = ks::Faults().Hits("kelf.link");
    ks::Result<ModuleHandle> handle = machine->LoadModule(objects, "mod");
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    EXPECT_EQ(ks::Faults().Hits("kelf.link"), before + 1) << "load " << load;
    ASSERT_TRUE(machine->UnloadModule(*handle).ok());
  }
}

TEST(MachineTest, StopMachineRunsQuiesced) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int spin = 1;
void worker(int unused) {
  while (spin) {
    yield();
  }
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  ASSERT_TRUE(machine->Run(5000).ok());

  bool ran = false;
  ks::Status status = machine->StopMachine([&](Machine& m) {
    ran = true;
    // Flip the spin flag from "inside" stop_machine.
    uint32_t addr = *m.GlobalSymbol("spin");
    return m.WriteWord(addr, 0);
  });
  ASSERT_TRUE(status.ok()) << status.ToString();
  EXPECT_TRUE(ran);
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_TRUE(machine->Faults().empty());
}

TEST(MachineTest, StopMachineWithVirtualCpus) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int spin = 1;
int progress = 0;
void worker(int unused) {
  while (spin) {
    progress += 1;
    yield();
  }
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  machine->StartCpus(2);
  EXPECT_EQ(machine->ActiveCpus(), 2);

  // stop_machine while CPUs churn: must not crash or deadlock, and the
  // write must be atomic with respect to slices.
  for (int i = 0; i < 10; ++i) {
    ks::Status status = machine->StopMachine(
        [](Machine& m) { return m.WriteWord(*m.GlobalSymbol("spin"), 1); });
    ASSERT_TRUE(status.ok());
  }
  ks::Status stop = machine->StopMachine(
      [](Machine& m) { return m.WriteWord(*m.GlobalSymbol("spin"), 0); });
  ASSERT_TRUE(stop.ok());
  // Workers exit on their own now.
  for (int i = 0; i < 2000 && machine->HasLiveThreads(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  machine->StopCpus();
  EXPECT_FALSE(machine->HasLiveThreads());
  EXPECT_TRUE(machine->Faults().empty());
}

TEST(MachineTest, DeterministicExecution) {
  std::string src = R"(
void main(int n) {
  int total = 0;
  int i;
  for (i = 0; i < n; i++) {
    total += krand() % 100;
  }
  record(100, total);
}
)";
  std::vector<uint32_t> a = RunAndRecord(src, "main", 25);
  std::vector<uint32_t> b = RunAndRecord(src, "main", 25);
  ASSERT_EQ(a.size(), 1u);
  EXPECT_EQ(a, b);
}

TEST(MachineTest, NestedStructsByValue) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
struct point {
  int x;
  int y;
};
struct rect {
  struct point lo;
  struct point hi;
  char label;
};
struct rect r;
int area(struct rect *p) {
  int w = p->hi.x - p->lo.x;
  int h = p->hi.y - p->lo.y;
  return w * h;
}
void main(int unused) {
  r.lo.x = 2;
  r.lo.y = 3;
  r.hi.x = 8;
  r.hi.y = 10;
  r.label = 'q';
  record(100, area(&r) + r.label - 'q');
}
)",
                                            "main");
  EXPECT_EQ(vals, std::vector<uint32_t>{42});
}

TEST(MachineTest, SizeofNestedStructRoundsUp) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
struct inner {
  char tag;
  int v;
};
struct outer {
  struct inner a;
  char pad;
};
void main(int unused) {
  record(100, sizeof(struct outer));
}
)",
                                            "main");
  // inner: tag at 0, v at 4 -> 8; outer: a at 0 (8), pad at 8 -> 12.
  EXPECT_EQ(vals, std::vector<uint32_t>{12});
}

TEST(MachineTest, SignedDivisionAndModuloCorners) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
void main(int unused) {
  int a = -7;
  int b = 2;
  record(100, a / b);        /* -3: truncation toward zero */
  record(100, a % b);        /* -1 */
  int min = -2147483647 - 1;
  record(100, min / -1);     /* wraps to INT_MIN, no trap */
  record(100, 7 / -2);       /* -3 */
  record(100, -7 % -2);      /* -1 */
}
)",
                                            "main");
  ASSERT_EQ(vals.size(), 5u);
  EXPECT_EQ(static_cast<int32_t>(vals[0]), -3);
  EXPECT_EQ(static_cast<int32_t>(vals[1]), -1);
  EXPECT_EQ(vals[2], 0x80000000u);
  EXPECT_EQ(static_cast<int32_t>(vals[3]), -3);
  EXPECT_EQ(static_cast<int32_t>(vals[4]), -1);
}

TEST(MachineTest, ShiftAmountsAreMasked) {
  std::vector<uint32_t> vals = RunAndRecord(R"(
void main(int unused) {
  int x = 1;
  int k = 33;                /* masked to 1 */
  record(100, x << k);
  int y = -2147483647 - 1;   /* logical right shift */
  record(100, y >> 31);
}
)",
                                            "main");
  ASSERT_EQ(vals.size(), 2u);
  EXPECT_EQ(vals[0], 2u);
  EXPECT_EQ(vals[1], 1u);
}

TEST(MachineTest, MutuallyRecursiveSmallFunctions) {
  // Both halves are under the inline threshold; the emitter's inline
  // stack must break the cycle and still produce correct code.
  std::vector<uint32_t> vals = RunAndRecord(R"(
int is_odd(int n);
int is_even(int n) {
  if (n == 0) { return 1; }
  return is_odd(n - 1);
}
int is_odd(int n) {
  if (n == 0) { return 0; }
  return is_even(n - 1);
}
void main(int n) {
  record(100, is_even(n) * 10 + is_odd(n));
}
)",
                                            "main", 9);
  EXPECT_EQ(vals, std::vector<uint32_t>{1});  // 9: even=0, odd=1
}

TEST(MachineTest, TicksAdvance) {
  std::unique_ptr<Machine> machine = BootSource(R"(
void main(int unused) {
  int start = ticks();
  int i;
  for (i = 0; i < 100; i++) { }
  record(100, ticks() > start);
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("main", 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->RecordsWithKey(100), std::vector<uint32_t>{1});
}

// ---------------------------------------------------------------------------
// Boot from a linked image, and the guest memory model.

kelf::LinkedImage LinkObjects(const std::vector<kelf::ObjectFile>& objects,
                              uint32_t base) {
  ks::Result<kelf::LinkedImage> image = kelf::Link(objects, base);
  EXPECT_TRUE(image.ok()) << image.status().ToString();
  return image.ok() ? std::move(image).value() : kelf::LinkedImage();
}

// A kernel with an exception table and a bug table, so boot registers
// howto regions.
constexpr char kHowtoKernel[] = R"(
int slots[4];
int guarded_read(int addr) {
  if (addr >= 0 && addr < 4) {
    return slots[addr];
  }
  return try_load(addr, 4095);
}
int checked(int x) {
  if (x == 9) {
    BUG();
  }
  return x + 1;
}
void main(int arg) {
  slots[1] = arg;
  record(100, guarded_read(1) + checked(arg));
}
)";

auto SymbolKey(const kelf::LinkedSymbol& sym) {
  return std::make_tuple(sym.name, sym.address, sym.size, sym.binding,
                         sym.kind, sym.unit);
}

auto RegionKey(const HowtoRegion& region) {
  return std::make_tuple(region.howto, region.base, region.size, region.name,
                         region.module_id);
}

TEST(MachineBootTest, ObjectAndImageBootsAreIdentical) {
  std::vector<kelf::ObjectFile> objects = BuildObjects(kHowtoKernel);
  ASSERT_FALSE(objects.empty());
  MachineConfig config;
  kelf::LinkedImage image = LinkObjects(objects, config.kernel_base);
  ks::Result<std::unique_ptr<Machine>> from_objects =
      Machine::Boot(objects, config);
  ks::Result<std::unique_ptr<Machine>> from_image =
      Machine::Boot(image, config);
  ASSERT_TRUE(from_objects.ok()) << from_objects.status().ToString();
  ASSERT_TRUE(from_image.ok()) << from_image.status().ToString();
  const Machine& a = **from_objects;
  const Machine& b = **from_image;

  ASSERT_EQ(a.kernel_end(), b.kernel_end());
  ASSERT_EQ(b.kernel_end(), image.end());
  uint32_t size = image.end() - config.kernel_base;
  ks::Result<std::vector<uint8_t>> a_bytes =
      a.ReadBytes(config.kernel_base, size);
  ks::Result<std::vector<uint8_t>> b_bytes =
      b.ReadBytes(config.kernel_base, size);
  ASSERT_TRUE(a_bytes.ok() && b_bytes.ok());
  EXPECT_EQ(*a_bytes, *b_bytes);
  EXPECT_EQ(*b_bytes, image.bytes);

  std::vector<kelf::LinkedSymbol> a_syms = a.Kallsyms();
  std::vector<kelf::LinkedSymbol> b_syms = b.Kallsyms();
  ASSERT_EQ(a_syms.size(), b_syms.size());
  ASSERT_FALSE(a_syms.empty());
  for (size_t i = 0; i < a_syms.size(); ++i) {
    EXPECT_EQ(SymbolKey(a_syms[i]), SymbolKey(b_syms[i])) << i;
  }

  std::vector<HowtoRegion> a_regions = a.HowtoRegions();
  std::vector<HowtoRegion> b_regions = b.HowtoRegions();
  ASSERT_EQ(a_regions.size(), b_regions.size());
  bool extable = false;
  bool bug = false;
  for (size_t i = 0; i < a_regions.size(); ++i) {
    EXPECT_EQ(RegionKey(a_regions[i]), RegionKey(b_regions[i])) << i;
    extable = extable || a_regions[i].howto == kelf::Howto::kExtable;
    bug = bug || a_regions[i].howto == kelf::Howto::kBug;
  }
  EXPECT_TRUE(extable);
  EXPECT_TRUE(bug);
}

TEST(MachineBootTest, MachinesBootedFromOneImageAreIndependent) {
  std::vector<kelf::ObjectFile> objects = BuildObjects(kHowtoKernel);
  MachineConfig config;
  const kelf::LinkedImage image = LinkObjects(objects, config.kernel_base);
  ks::Result<std::unique_ptr<Machine>> first = Machine::Boot(image, config);
  ks::Result<std::unique_ptr<Machine>> second = Machine::Boot(image, config);
  ASSERT_TRUE(first.ok() && second.ok());
  Machine& a = **first;
  Machine& b = **second;

  ks::Result<uint32_t> slots = a.GlobalSymbol("slots");
  ASSERT_TRUE(slots.ok());
  ASSERT_TRUE(a.WriteWord(*slots, 0xdeadbeef).ok());
  ASSERT_TRUE(a.WriteBytes(config.kernel_base, {0xee, 0xee}).ok());
  EXPECT_EQ(*a.ReadWord(*slots), 0xdeadbeefu);
  EXPECT_EQ(*b.ReadWord(*slots), 0u);
  ks::Result<std::vector<uint8_t>> b_text =
      b.ReadBytes(config.kernel_base, 2);
  ASSERT_TRUE(b_text.ok());
  EXPECT_EQ(*b_text, std::vector<uint8_t>(image.bytes.begin(),
                                          image.bytes.begin() + 2));

  // Running one machine leaves the other untouched too.
  ASSERT_TRUE(b.SpawnNamed("main", 5).ok());
  ASSERT_TRUE(b.RunToCompletion().ok());
  EXPECT_EQ(b.RecordsWithKey(100), std::vector<uint32_t>{11});
  EXPECT_EQ(*a.ReadWord(*slots + 4), 0u);
  EXPECT_EQ(*b.ReadWord(*slots + 4), 5u);
}

TEST(MachineBootTest, UntouchedMemoryAtTopOfLargeImageReadsZero) {
  std::vector<kelf::ObjectFile> objects = BuildObjects(kHowtoKernel);
  MachineConfig config;
  config.memory_bytes = 0xfffff000u;  // ~4 GiB, only touched pages backed
  ks::Result<std::unique_ptr<Machine>> booted =
      Machine::Boot(LinkObjects(objects, config.kernel_base), config);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  Machine& machine = **booted;

  // Below the stacks, in the heap/stack gap nothing has written to.
  uint32_t probe = config.memory_bytes - (64u << 20);
  ks::Result<std::vector<uint8_t>> page = machine.ReadBytes(probe, 4096);
  ASSERT_TRUE(page.ok());
  EXPECT_EQ(*page, std::vector<uint8_t>(4096, 0));
  ks::Result<uint32_t> last = machine.ReadWord(config.memory_bytes - 4);
  ASSERT_TRUE(last.ok());
  EXPECT_EQ(*last, 0u);
  // Bounds are the configured size, not the host mapping's.
  EXPECT_FALSE(machine.ReadWord(config.memory_bytes - 2).ok());
  EXPECT_FALSE(machine.ReadByte(config.memory_bytes).ok());
  EXPECT_FALSE(machine.WriteByte(config.memory_bytes, 1).ok());

  // A thread's stack lives at the very top and works as usual.
  ASSERT_TRUE(machine.SpawnNamed("main", 2).ok());
  ASSERT_TRUE(machine.RunToCompletion().ok());
  EXPECT_EQ(machine.RecordsWithKey(100), std::vector<uint32_t>{5});
}

TEST(MachineBootTest, RejectsMisplacedOrOversizedImage) {
  std::vector<kelf::ObjectFile> objects = BuildObjects(kHowtoKernel);
  MachineConfig config;
  kelf::LinkedImage elsewhere =
      LinkObjects(objects, config.kernel_base + 0x100000);
  EXPECT_EQ(Machine::Boot(elsewhere, config).status().code(),
            ks::ErrorCode::kInvalidArgument);

  kelf::LinkedImage image = LinkObjects(objects, config.kernel_base);
  MachineConfig tiny = config;
  tiny.memory_bytes = image.end();  // no room for arena, heap or stacks
  EXPECT_EQ(Machine::Boot(image, tiny).status().code(),
            ks::ErrorCode::kResourceExhausted);
  EXPECT_EQ(Machine::Boot(objects, tiny).status().code(),
            ks::ErrorCode::kResourceExhausted);
}

// ---------------------------------------------------------------------------
// Symbol index maintenance across module unloads.

// SymbolsNamed/GlobalSymbol must answer for every name exactly as an index
// rebuilt from the current kallsyms table would: every binding of the name
// in table order, and the first global among them.
void ExpectIndexMatchesKallsyms(const Machine& machine,
                                const std::set<std::string>& names) {
  std::vector<kelf::LinkedSymbol> table = machine.Kallsyms();
  for (const std::string& name : names) {
    std::vector<std::tuple<std::string, uint32_t, uint32_t,
                           kelf::SymbolBinding, kelf::SymbolKind,
                           std::string>>
        expected;
    std::optional<uint32_t> global;
    for (const kelf::LinkedSymbol& sym : table) {
      if (sym.name == name) {
        expected.push_back(SymbolKey(sym));
        if (!global.has_value() &&
            sym.binding == kelf::SymbolBinding::kGlobal) {
          global = sym.address;
        }
      }
    }
    std::vector<kelf::LinkedSymbol> named = machine.SymbolsNamed(name);
    ASSERT_EQ(named.size(), expected.size()) << name;
    for (size_t i = 0; i < named.size(); ++i) {
      EXPECT_EQ(SymbolKey(named[i]), expected[i]) << name << " #" << i;
    }
    ks::Result<uint32_t> resolved = machine.GlobalSymbol(name);
    ASSERT_EQ(resolved.ok(), global.has_value()) << name;
    if (global.has_value()) {
      EXPECT_EQ(*resolved, *global) << name;
    }
  }
}

TEST(MachineTest, SymbolIndexSurvivesOutOfOrderUnloads) {
  std::unique_ptr<Machine> machine = BootSource(R"(
static int helper(int x) { return x * 3; }
int kernel_add(int x) { return helper(x) + 1; }
)");
  ASSERT_NE(machine, nullptr);

  // Every module has a local `helper` (colliding with the kernel's and with
  // each other) and a global of its own; `twin` is defined by two modules
  // that are never loaded at once.
  auto module_source = [](const std::string& tag, bool twin) {
    std::string src = "int kernel_add(int x);\n"
                      "static int helper(int x) { return x + " +
                      std::to_string(tag.size()) + "; }\n"
                      "int " + tag + "_entry(int x) {\n"
                      "  return kernel_add(helper(x));\n}\n"
                      "int " + tag + "_state = 7;\n";
    if (twin) {
      src += "int twin(int x) { return helper(x); }\n";
    }
    return src;
  };
  std::set<std::string> names;
  for (const kelf::LinkedSymbol& sym : machine->Kallsyms()) {
    names.insert(sym.name);
  }
  std::map<std::string, ModuleHandle> loaded;
  auto load = [&](const std::string& tag, bool twin) {
    SourceTree tree;
    tree.Write(tag + ".kc", module_source(tag, twin));
    ks::Result<std::vector<kelf::ObjectFile>> objects =
        kcc::BuildTree(tree, kcc::CompileOptions());
    ASSERT_TRUE(objects.ok()) << objects.status().ToString();
    ks::Result<ModuleHandle> handle = machine->LoadModule(*objects, tag);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    loaded[tag] = *handle;
    for (const kelf::LinkedSymbol& sym : machine->Kallsyms()) {
      names.insert(sym.name);
    }
    ExpectIndexMatchesKallsyms(*machine, names);
  };
  auto unload = [&](const std::string& tag) {
    ASSERT_TRUE(machine->UnloadModule(loaded.at(tag)).ok()) << tag;
    loaded.erase(tag);
    ExpectIndexMatchesKallsyms(*machine, names);
  };
  auto blob = [&](const std::string& tag) {
    ks::Result<ModuleHandle> handle = machine->LoadBlob(tag, 4096);
    ASSERT_TRUE(handle.ok());
    loaded[tag] = *handle;
    ExpectIndexMatchesKallsyms(*machine, names);
  };

  ASSERT_NO_FATAL_FAILURE(load("alpha", /*twin=*/true));
  ASSERT_NO_FATAL_FAILURE(load("beta", false));
  ASSERT_NO_FATAL_FAILURE(blob("blob1"));
  ASSERT_NO_FATAL_FAILURE(load("gamma", false));
  ASSERT_NO_FATAL_FAILURE(unload("beta"));  // middle of the table
  ASSERT_NO_FATAL_FAILURE(load("delta", false));
  ASSERT_NO_FATAL_FAILURE(unload("alpha"));  // first module
  ASSERT_NO_FATAL_FAILURE(load("epsilon", /*twin=*/true));
  ASSERT_NO_FATAL_FAILURE(unload("blob1"));
  ASSERT_NO_FATAL_FAILURE(unload("delta"));
  ASSERT_NO_FATAL_FAILURE(load("zeta", false));
  ASSERT_NO_FATAL_FAILURE(unload("epsilon"));
  ASSERT_NO_FATAL_FAILURE(unload("zeta"));  // last module
  ASSERT_NO_FATAL_FAILURE(load("beta", /*twin=*/true));

  // The survivors still link and run through the index.
  ks::Result<uint32_t> entry = machine->GlobalSymbol("gamma_entry");
  ASSERT_TRUE(entry.ok());
  ks::Result<uint32_t> result = machine->CallFunction(*entry, 2);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, (2u + 5u) * 3u + 1u);
  EXPECT_TRUE(machine->SymbolsNamed("alpha_entry").empty());
  EXPECT_EQ(machine->SymbolsNamed("twin").size(), 1u);
}

// Builds a one-unit module `tag`.kc from `source` (kcc defaults).
std::vector<kelf::ObjectFile> BuildModule(const std::string& tag,
                                          const std::string& source) {
  SourceTree tree;
  tree.Write(tag + ".kc", source);
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, kcc::CompileOptions());
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  return objects.ok() ? std::move(objects).value()
                      : std::vector<kelf::ObjectFile>();
}

std::vector<std::tuple<std::string, uint32_t, uint32_t, std::string>>
KallsymsKey(const Machine& machine) {
  std::vector<std::tuple<std::string, uint32_t, uint32_t, std::string>> key;
  for (const kelf::LinkedSymbol& sym : machine.Kallsyms()) {
    key.emplace_back(sym.name, sym.address, sym.size, sym.unit);
  }
  return key;
}

// The module table holds live modules only: load/unload churn (every
// apply and undo loads a helper blob and a primary module) leaves it, and
// the kallsyms index, exactly where it started.
TEST(MachineTest, ModuleChurnKeepsTableAtLiveSize) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int kernel_add(int x) { return x + 1; }
)");
  ASSERT_NE(machine, nullptr);
  std::vector<kelf::ObjectFile> objects = BuildModule("churn", R"(
int kernel_add(int x);
static int helper(int x) { return x * 2; }
int churn_entry(int x) { return kernel_add(helper(x)); }
)");
  ASSERT_FALSE(objects.empty());
  ks::Result<ModuleHandle> resident = machine->LoadBlob("resident", 4096);
  ASSERT_TRUE(resident.ok());
  const auto kallsyms = KallsymsKey(*machine);
  const uint32_t arena = machine->ModuleArenaBytesInUse();
  ASSERT_EQ(machine->LoadedModuleCount(), 1u);

  for (int i = 0; i < 1000; ++i) {
    ks::Result<ModuleHandle> helper =
        machine->LoadBlob("churn-helper", 8192, "churn");
    ASSERT_TRUE(helper.ok()) << i;
    ks::Result<ModuleHandle> primary =
        machine->LoadModule(objects, "churn-primary", nullptr, "churn");
    ASSERT_TRUE(primary.ok()) << i << ": " << primary.status().ToString();
    ASSERT_EQ(machine->LoadedModuleCount(), 3u) << i;
    ASSERT_EQ(machine->SymbolsNamed("churn_entry").size(), 1u) << i;
    // Alternate the unload order: primary first, then helper first.
    if (i % 2 == 0) {
      ASSERT_TRUE(machine->UnloadModule(*primary).ok()) << i;
      ASSERT_TRUE(machine->UnloadModule(*helper).ok()) << i;
    } else {
      ASSERT_TRUE(machine->UnloadModule(*helper).ok()) << i;
      ASSERT_TRUE(machine->UnloadModule(*primary).ok()) << i;
    }
    ASSERT_EQ(machine->LoadedModuleCount(), 1u) << i;
  }
  EXPECT_EQ(KallsymsKey(*machine), kallsyms);
  EXPECT_TRUE(machine->SymbolsNamed("churn_entry").empty());
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena);
  ks::Result<ModuleInfo> info = machine->GetModuleInfo(*resident);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "resident");
}

// Everything a machine answers about symbols: its kallsyms table, and for
// each of `names` the SymbolsNamed entries and the GlobalSymbol value.
std::vector<std::string> SymbolAnswers(const Machine& machine,
                                       const std::set<std::string>& names) {
  auto format = [](const kelf::LinkedSymbol& sym) {
    return ks::StrPrintf("%s %08x %u %d %d %s", sym.name.c_str(), sym.address,
                         sym.size, static_cast<int>(sym.binding),
                         static_cast<int>(sym.kind), sym.unit.c_str());
  };
  std::vector<std::string> answers;
  for (const kelf::LinkedSymbol& sym : machine.Kallsyms()) {
    answers.push_back("kallsyms " + format(sym));
  }
  for (const std::string& name : names) {
    for (const kelf::LinkedSymbol& sym : machine.SymbolsNamed(name)) {
      answers.push_back("named " + format(sym));
    }
    ks::Result<uint32_t> global = machine.GlobalSymbol(name);
    answers.push_back(ks::StrPrintf(
        "global %s %s", name.c_str(),
        global.ok() ? ks::Hex32(*global).c_str() : "none"));
  }
  return answers;
}

// Every node of one release boots with the release's one symbol table.
// Module loads and unloads on one node (out of order, with names that
// collide with kernel symbols) edit only that node's overlay: its sibling
// and a machine booted with a private table answer exactly as before, and
// both agree throughout.
TEST(MachineBootTest, ReleaseSymbolTableIsSharedModulesStayPerMachine) {
  ks::Result<std::unique_ptr<Machine>> first =
      corpus::BootKernelVersion(0, 4u << 20);
  ks::Result<std::unique_ptr<Machine>> second =
      corpus::BootKernelVersion(0, 4u << 20);
  ks::Result<std::unique_ptr<Machine>> other_release =
      corpus::BootKernelVersion(1, 4u << 20);
  ASSERT_TRUE(first.ok() && second.ok() && other_release.ok());
  Machine& node = **first;
  const Machine& sibling = **second;
  EXPECT_EQ(node.kernel_symbols(), sibling.kernel_symbols());
  EXPECT_NE(node.kernel_symbols(), (*other_release)->kernel_symbols());

  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(corpus::KernelSource(), corpus::RunBuildOptions());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  MachineConfig config;
  config.memory_bytes = 4u << 20;
  ks::Result<std::unique_ptr<Machine>> booted =
      Machine::Boot(std::move(objects).value(), config);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  const Machine& private_table = **booted;
  EXPECT_NE(private_table.kernel_symbols(), sibling.kernel_symbols());

  // Each module has a global of its own, a local `fpu_read` colliding with
  // the kernel's global, and a local `helper` colliding with the others'.
  auto module_source = [](const std::string& tag) {
    return "extern int fpu_state[4];\n"
           "static int helper(int x) { return x + " +
           std::to_string(tag.size()) +
           "; }\n"
           "static int fpu_read(int reg) { return fpu_state[reg]; }\n"
           "int " + tag + "_entry(int x) { return helper(fpu_read(x)); }\n";
  };
  std::set<std::string> names = {"fpu_read", "fpu_state", "helper",
                                 "kernel_init"};
  for (const char* tag : {"alpha", "beta", "gamma", "delta"}) {
    names.insert(std::string(tag) + "_entry");
  }
  const std::vector<std::string> expected = SymbolAnswers(sibling, names);
  ASSERT_EQ(SymbolAnswers(private_table, names), expected);

  std::map<std::string, ModuleHandle> loaded;
  auto check = [&] {
    ExpectIndexMatchesKallsyms(node, names);
    EXPECT_EQ(SymbolAnswers(sibling, names), expected);
    EXPECT_EQ(SymbolAnswers(private_table, names), expected);
  };
  auto load = [&](const std::string& tag) {
    std::vector<kelf::ObjectFile> module =
        BuildModule(tag, module_source(tag));
    ASSERT_FALSE(module.empty());
    ks::Result<ModuleHandle> handle = node.LoadModule(module, tag);
    ASSERT_TRUE(handle.ok()) << handle.status().ToString();
    loaded[tag] = *handle;
    check();
  };
  auto unload = [&](const std::string& tag) {
    ASSERT_TRUE(node.UnloadModule(loaded.at(tag)).ok()) << tag;
    loaded.erase(tag);
    check();
  };

  ASSERT_NO_FATAL_FAILURE(load("alpha"));
  ASSERT_NO_FATAL_FAILURE(load("beta"));
  ASSERT_NO_FATAL_FAILURE(load("gamma"));
  EXPECT_EQ(node.SymbolsNamed("fpu_read").size(), 4u);
  EXPECT_EQ(node.SymbolsNamed("helper").size(),
            sibling.SymbolsNamed("helper").size() + 3);
  EXPECT_EQ(*node.GlobalSymbol("fpu_read"), *sibling.GlobalSymbol("fpu_read"));
  ASSERT_NO_FATAL_FAILURE(unload("beta"));  // middle of the overlay
  ASSERT_NO_FATAL_FAILURE(load("delta"));
  ASSERT_NO_FATAL_FAILURE(unload("alpha"));  // first module
  ASSERT_NO_FATAL_FAILURE(unload("delta"));  // last module
  ASSERT_NO_FATAL_FAILURE(unload("gamma"));
  EXPECT_EQ(SymbolAnswers(node, names), expected);
}

// A handle outlives its module: once unloaded it is refused with
// FailedPrecondition by every call that takes a handle, and it never
// names the module loaded after it. A handle that was never issued is
// InvalidArgument.
TEST(MachineTest, StaleModuleHandleNeverReachesANewerModule) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int kernel_add(int x) { return x + 1; }
)");
  ASSERT_NE(machine, nullptr);
  std::vector<kelf::ObjectFile> first = BuildModule("first", R"(
int kernel_add(int x);
int first_entry(int x) { return kernel_add(x); }
)");
  std::vector<kelf::ObjectFile> second = BuildModule("second", R"(
int kernel_add(int x);
int second_entry(int x) { return kernel_add(x) + 1; }
)");
  ks::Result<ModuleHandle> stale = machine->LoadModule(first, "first");
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  ASSERT_TRUE(machine->UnloadModule(*stale).ok());
  ks::Result<ModuleHandle> newer = machine->LoadModule(second, "second");
  ASSERT_TRUE(newer.ok()) << newer.status().ToString();
  ASSERT_NE(newer->id, stale->id);

  const ks::ErrorCode unloaded = ks::ErrorCode::kFailedPrecondition;
  EXPECT_EQ(machine->UnloadModule(*stale).code(), unloaded);
  EXPECT_EQ(machine->GetModuleInfo(*stale).status().code(), unloaded);
  EXPECT_EQ(machine->ModuleImports(*stale).status().code(), unloaded);
  EXPECT_EQ(machine->ModulePlacements(*stale).status().code(), unloaded);

  const ks::ErrorCode bogus = ks::ErrorCode::kInvalidArgument;
  for (ModuleHandle never : {ModuleHandle{}, ModuleHandle{newer->id + 1},
                             ModuleHandle{newer->id + 1000}}) {
    EXPECT_EQ(machine->UnloadModule(never).code(), bogus) << never.id;
    EXPECT_EQ(machine->GetModuleInfo(never).status().code(), bogus)
        << never.id;
    EXPECT_EQ(machine->ModuleImports(never).status().code(), bogus)
        << never.id;
    EXPECT_EQ(machine->ModulePlacements(never).status().code(), bogus)
        << never.id;
  }

  // None of the refusals touched the live module.
  EXPECT_EQ(machine->LoadedModuleCount(), 1u);
  ks::Result<ModuleInfo> info = machine->GetModuleInfo(*newer);
  ASSERT_TRUE(info.ok());
  EXPECT_EQ(info->name, "second");
  EXPECT_EQ(machine->SymbolsNamed("second_entry").size(), 1u);
  EXPECT_TRUE(machine->SymbolsNamed("first_entry").empty());
  ks::Result<uint32_t> entry = machine->GlobalSymbol("second_entry");
  ASSERT_TRUE(entry.ok());
  ks::Result<uint32_t> result = machine->CallFunction(*entry, 4);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 6u);
}

// UnloadGroup drops exactly the live members of its group, newest first:
// a fault injected on the second unload leaves the newest member gone and
// the older ones loaded.
TEST(MachineTest, UnloadGroupUnloadsOnlyItsLiveModulesNewestFirst) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int kernel_add(int x) { return x + 1; }
)");
  ASSERT_NE(machine, nullptr);
  auto blob = [&](const std::string& name, const std::string& group) {
    ks::Result<ModuleHandle> handle = machine->LoadBlob(name, 4096, group);
    EXPECT_TRUE(handle.ok());
    return handle.ok() ? *handle : ModuleHandle{};
  };
  ModuleHandle g_oldest = blob("g-oldest", "g");
  ModuleHandle other = blob("other", "h");
  ModuleHandle g_gone = blob("g-gone", "g");
  ModuleHandle ungrouped = blob("ungrouped", "");
  ModuleHandle g_middle = blob("g-middle", "g");
  ModuleHandle g_newest = blob("g-newest", "g");
  ASSERT_TRUE(machine->UnloadModule(g_gone).ok());
  ASSERT_EQ(machine->LoadedModuleCount(), 5u);

  auto live = [&](ModuleHandle handle) {
    return machine->GetModuleInfo(handle).ok();
  };
  {
    ks::ScopedFaultPlan plan;
    ASSERT_TRUE(plan.Arm("kvm.unload_module=nth:2").ok());
    EXPECT_FALSE(machine->UnloadGroup("g").ok());
  }
  EXPECT_FALSE(live(g_newest));
  EXPECT_TRUE(live(g_middle));
  EXPECT_TRUE(live(g_oldest));

  ks::Result<int> unloaded = machine->UnloadGroup("g");
  ASSERT_TRUE(unloaded.ok()) << unloaded.status().ToString();
  EXPECT_EQ(*unloaded, 2);
  EXPECT_FALSE(live(g_middle));
  EXPECT_FALSE(live(g_oldest));
  EXPECT_TRUE(live(other));
  EXPECT_TRUE(live(ungrouped));
  EXPECT_EQ(machine->LoadedModuleCount(), 2u);
  ks::Result<int> again = machine->UnloadGroup("g");
  ASSERT_TRUE(again.ok());
  EXPECT_EQ(*again, 0);
}

// ---------------------------------------------------------------------------
// Instruction fetch: whoever rewrites code, the next fetch runs the new
// bytes. The interpreter caches decodes per host thread, tagged with the
// bytes they came from; these are the oracles that no write path needs to
// tell the cache anything.

// Boots `source` built with inlining off, so every function the tests
// splice or patch is a real call target.
std::unique_ptr<Machine> BootNoInline(const std::string& source) {
  kcc::CompileOptions options;
  options.inline_threshold = 0;
  return BootSource(source, options);
}

uint32_t Address(const Machine& machine, const std::string& name) {
  ks::Result<uint32_t> address = machine.GlobalSymbol(name);
  EXPECT_TRUE(address.ok()) << name;
  return address.ok() ? *address : 0;
}

// The paper's text poke plus I-cache flush (§5.2): a thread parked inside
// a function that calls a hot, cached function runs the trampoline the
// first time it fetches that function's entry after the splice.
TEST(DecodeCacheTest, ParkedThreadRunsTheSpliceOnItsNextFetch) {
  std::unique_ptr<Machine> machine = BootNoInline(R"(
int hot(int x) { return x + 1; }
int hot_v2(int x) { return x + 100; }
void spinner(int n) {
  int i = 0;
  while (i < n) {
    record(100, hot(i));
    sleep(1000);
    i++;
  }
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("spinner", 100).ok());
  // Each Run retires one loop iteration and parks the thread in sleep().
  while (machine->RecordsWithKey(100).size() < 50) {
    ASSERT_TRUE(machine->Run(200).ok());
  }
  std::vector<kelf::LinkedSymbol> spinner = machine->SymbolsNamed("spinner");
  ASSERT_EQ(spinner.size(), 1u);
  const uint32_t hot = Address(*machine, "hot");
  ks::Status spliced = machine->StopMachine([&](Machine& m) {
    std::vector<ThreadInfo> threads = m.Threads();
    EXPECT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0].state, ThreadState::kSleeping);
    EXPECT_GE(threads[0].pc, spinner[0].address);
    EXPECT_LT(threads[0].pc, spinner[0].address + spinner[0].size);
    return m.WriteBytes(hot, kvx::EncodeTrampoline(hot, Address(m, "hot_v2")));
  });
  ASSERT_TRUE(spliced.ok()) << spliced.ToString();
  ASSERT_TRUE(machine->RunToCompletion().ok());

  std::vector<uint32_t> values = machine->RecordsWithKey(100);
  ASSERT_EQ(values.size(), 100u);
  for (uint32_t i = 0; i < values.size(); ++i) {
    EXPECT_EQ(values[i], i < 50 ? i + 1 : i + 100) << "iteration " << i;
  }
  EXPECT_TRUE(machine->Faults().empty());
}

// A host write over an instruction that has run hot, outside any stop
// window, changes what the very next call executes.
TEST(DecodeCacheTest, HostWriteOverHotInstructionTakesEffectOnNextFetch) {
  std::unique_ptr<Machine> machine = BootNoInline(R"(
int answer(int unused) { return 7000; }
)");
  ASSERT_NE(machine, nullptr);
  const uint32_t entry = Address(*machine, "answer");
  for (int i = 0; i < 100; ++i) {
    ks::Result<uint32_t> result = machine->CallFunction(entry, 0);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(*result, 7000u);
  }
  // Rewrite the imm32 of the `mov r0, 7000` in place.
  ks::Result<std::vector<uint8_t>> code = machine->ReadBytes(entry, 32);
  ASSERT_TRUE(code.ok());
  const std::vector<uint8_t> old_imm = {0x58, 0x1b, 0x00, 0x00};  // 7000
  auto at = std::search(code->begin(), code->end(), old_imm.begin(),
                        old_imm.end());
  ASSERT_NE(at, code->end());
  const uint32_t imm_addr = entry + static_cast<uint32_t>(at - code->begin());
  ASSERT_TRUE(machine->WriteBytes(imm_addr, {0x28, 0x23, 0x00, 0x00}).ok());

  ks::Result<uint32_t> result = machine->CallFunction(entry, 0);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 9000u);
}

// Unloading poisons the module arena; code that ran hot before the unload
// must fault as an illegal instruction, not run from a stale decode.
TEST(DecodeCacheTest, UnloadedModuleCodeFaultsEvenAfterRunningHot) {
  std::unique_ptr<Machine> machine = BootNoInline(R"(
int kernel_value = 5;
)");
  ASSERT_NE(machine, nullptr);
  SourceTree mod_tree;
  mod_tree.Write("mod.kc", R"(
extern int kernel_value;
int mod_double(int x) { return (x + kernel_value) * 2; }
)");
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod_tree, kcc::CompileOptions());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ks::Result<ModuleHandle> handle = machine->LoadModule(*objects, "mod");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  const uint32_t entry = Address(*machine, "mod_double");
  for (uint32_t i = 0; i < 100; ++i) {
    ks::Result<uint32_t> result = machine->CallFunction(entry, i);
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    ASSERT_EQ(*result, (i + 5) * 2);
  }
  ASSERT_TRUE(machine->UnloadModule(*handle).ok());

  ks::Result<uint32_t> call = machine->CallFunction(entry, 1);
  ASSERT_FALSE(call.ok());
  EXPECT_NE(call.status().message().find("illegal instruction"),
            std::string::npos)
      << call.status().ToString();
  ASSERT_TRUE(machine->Spawn(entry, 1).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  std::vector<FaultRecord> faults = machine->FaultRecords();
  ASSERT_EQ(faults.size(), 2u);
  EXPECT_EQ(faults[1].pc, entry);
  EXPECT_NE(faults[1].reason.find("illegal instruction"), std::string::npos);
}

// Two releases with different code at the same address, run alternately
// on one host thread (and so through one decode table): each machine
// executes its own bytes.
TEST(DecodeCacheTest, MachinesOfTwoReleasesShareOneHostThread) {
  auto release = [](int delta) {
    return "int step(int x) { return x + " + std::to_string(delta) +
           "; }\n"
           "void main(int n) { record(100, step(n)); }\n";
  };
  std::unique_ptr<Machine> v1 = BootNoInline(release(1));
  std::unique_ptr<Machine> v2 = BootNoInline(release(2));
  ASSERT_NE(v1, nullptr);
  ASSERT_NE(v2, nullptr);
  std::vector<kelf::LinkedSymbol> step = v1->SymbolsNamed("step");
  ASSERT_EQ(step.size(), 1u);
  ASSERT_EQ(Address(*v2, "step"), step[0].address);
  ASSERT_NE(*v1->ReadBytes(step[0].address, step[0].size),
            *v2->ReadBytes(step[0].address, step[0].size));

  std::vector<uint32_t> want1, want2;
  for (uint32_t n = 0; n < 50; ++n) {
    for (Machine* machine : {v1.get(), v2.get()}) {
      ASSERT_TRUE(machine->SpawnNamed("main", n).ok());
      ASSERT_TRUE(machine->RunToCompletion().ok());
    }
    want1.push_back(n + 1);
    want2.push_back(n + 2);
  }
  EXPECT_EQ(v1->RecordsWithKey(100), want1);
  EXPECT_EQ(v2->RecordsWithKey(100), want2);
}

// ---------------------------------------------------------------------------
// Straight-line runs: the interpreter executes a checked run of decodes
// with no per-instruction fetch and advances the tick count once per run.
// These oracles pin what must look per-instruction from the guest and the
// host: self-modifying code, slice boundaries, fault records and `sys
// ticks`.

std::unique_ptr<Machine> BootAsm(const std::string& source) {
  SourceTree tree;
  tree.Write("entry.kvs", source);
  return BootTree(tree);
}

// The word store and the byte store each rewrite the imm32 of a `mov`
// further down the same straight line, so the first run entered at
// `self_mod` holds a stale decode of both. The rewritten instructions must
// run with the new immediates, on the first call and on a call entering a
// run built from the bytes the first call left behind. The targets are
// addressed from the entry, not by labels: the assembler pads before a
// label, and the pad (a nopn) would end the run.
TEST(DecodedRunTest, StoreIntoTheExecutingRunTakesEffect) {
  std::unique_ptr<Machine> machine = BootAsm(R"(
.text
.global self_mod
self_mod:
    mov r1, sp         ; +0
    add r1, 4          ; +3
    load r1, [r1]      ; +9   r1 = arg
    mov r0, =self_mod  ; +12
    add r0, 44         ; +18
    store [r0], r1     ; +24  the imm32 of `mov r2, 5`
    mov r0, =self_mod  ; +27
    add r0, 50         ; +33
    storeb [r0], r1    ; +39  the low imm byte of `mov r3, 1`
    mov r2, 5          ; +42
    mov r3, 1          ; +48
    mov r0, 100        ; +54
    mov r1, r2
    sys 7              ; record(100, r2)
    mov r0, 101
    mov r1, r3
    sys 7              ; record(101, r3)
    ret
)");
  ASSERT_NE(machine, nullptr);
  const uint32_t entry = Address(*machine, "self_mod");
  ASSERT_EQ(*machine->ReadBytes(entry + 42, 12),
            (std::vector<uint8_t>{0x10, 2, 5, 0, 0, 0, 0x10, 3, 1, 0, 0, 0}));
  for (uint32_t arg : {77u, 78u, 0x1234u}) {
    ASSERT_TRUE(machine->SpawnNamed("self_mod", arg).ok());
    ASSERT_TRUE(machine->RunToCompletion().ok());
  }
  EXPECT_EQ(machine->RecordsWithKey(100),
            (std::vector<uint32_t>{77, 78, 0x1234}));
  EXPECT_EQ(machine->RecordsWithKey(101),
            (std::vector<uint32_t>{77, 78, 0x34}));
  EXPECT_TRUE(machine->Faults().empty());
}

// Everything a single-threaded program can observe, and the instruction
// count, is independent of where slices end: a slice of one instruction
// cuts every run, a slice of seven cuts runs mid-way, and a slice of 1000
// lets runs go to their natural end.
TEST(DecodedRunTest, SliceLengthDoesNotChangeAnything) {
  SourceTree tree;
  tree.Write("finish.kvs", R"(
.text
.global finish
finish:                ; records (200 + i, ri) for every register
    push r1
    push r0
    mov r0, 202
    mov r1, r2
    sys 7
    mov r0, 203
    mov r1, r3
    sys 7
    mov r0, 204
    mov r1, r4
    sys 7
    mov r0, 205
    mov r1, r5
    sys 7
    mov r0, 206
    mov r1, r6
    sys 7
    mov r0, 207
    mov r1, r7
    sys 7
    pop r1
    mov r0, 200
    sys 7
    pop r1
    mov r0, 201
    sys 7
    ret
)");
  tree.Write("kernel.kc", R"(
void finish(int x);
int table[8];
int mix(int x) {
  int i;
  int acc = x;
  for (i = 0; i < 8; i++) {
    table[i] = table[i] * 3 + acc;
    acc = acc ^ (table[i] / 7);
  }
  return acc;
}
void main(int rounds) {
  int i;
  int acc = 1;
  for (i = 0; i < rounds; i++) {
    acc = acc + mix(acc + i);
    if (i % 5 == 0) {
      record(100, ticks());
    }
    if (i % 9 == 0) {
      sleep(3);
    }
  }
  record(101, acc);
  finish(acc);
}
)");
  struct Outcome {
    std::vector<std::pair<uint32_t, uint32_t>> records;
    uint64_t ticks = 0;
    uint64_t instructions = 0;
    bool operator==(const Outcome&) const = default;
  };
  ks::Counter& instructions = ks::Metrics().GetCounter("kvm.instructions");
  std::vector<Outcome> outcomes;
  for (int slice : {1, 7, 1000}) {
    MachineConfig config;
    config.slice_instructions = slice;
    std::unique_ptr<Machine> machine =
        BootTree(tree, kcc::CompileOptions(), config);
    ASSERT_NE(machine, nullptr);
    const uint64_t before = instructions.value();
    ASSERT_TRUE(machine->SpawnNamed("main", 40).ok());
    ASSERT_TRUE(machine->RunToCompletion().ok());
    EXPECT_TRUE(machine->Faults().empty()) << "slice " << slice;
    Outcome outcome{machine->Records(), machine->Ticks(),
                    instructions.value() - before};
    ASSERT_EQ(machine->RecordsWithKey(100).size(), 8u) << "slice " << slice;
    for (uint32_t key = 200; key < 208; ++key) {
      ASSERT_EQ(machine->RecordsWithKey(key).size(), 1u) << key;
    }
    outcomes.push_back(std::move(outcome));
  }
  EXPECT_GT(outcomes[0].instructions, 1000u);
  EXPECT_TRUE(outcomes[0] == outcomes[1]);
  EXPECT_TRUE(outcomes[0] == outcomes[2]);
}

// A bad load after a straight line of ALU instructions faults at the
// load's own pc, and at the tick of the load: the instructions before it
// in the run have retired, the load has not yet.
TEST(DecodedRunTest, FaultInsideARunRecordsItsPcAndTick) {
  std::unique_ptr<Machine> machine = BootAsm(R"(
.text
.global bad_load
bad_load:
    mov r1, 1
    add r1, 2
    mov r3, r1
    add r3, r1
    mov r2, 0
.global bad_load_site
bad_load_site:
    load r0, [r2]
    ret
)");
  ASSERT_NE(machine, nullptr);
  // Run once so the second attempt enters a built run.
  for (int attempt = 0; attempt < 2; ++attempt) {
    const uint64_t start = machine->Ticks();
    ASSERT_TRUE(machine->SpawnNamed("bad_load", 0).ok());
    ASSERT_TRUE(machine->RunToCompletion().ok());
    std::vector<FaultRecord> faults = machine->FaultRecords();
    ASSERT_EQ(faults.size(), static_cast<size_t>(attempt + 1));
    EXPECT_EQ(faults.back().pc, Address(*machine, "bad_load_site"));
    EXPECT_EQ(faults.back().tick, start + 5);
    EXPECT_EQ(faults.back().reason, "bad load at 0x00000000");
    EXPECT_EQ(machine->Ticks(), start + 6);  // the faulting load retires
  }
}

// `sys ticks` after a straight line of instructions returns the tick of
// the sys instruction itself, however far into its run it sits.
TEST(DecodedRunTest, SysTicksInsideARunIsExact) {
  std::unique_ptr<Machine> machine = BootAsm(R"(
.text
.global ticks_mid
ticks_mid:
    mov r1, 5
    add r1, 1
    add r1, 1
    mov r2, r1
    sys 1              ; r0 = ticks
    mov r1, r0
    mov r0, 100
    sys 7              ; record(100, ticks)
    ret
)");
  ASSERT_NE(machine, nullptr);
  std::vector<uint32_t> want;
  for (int attempt = 0; attempt < 3; ++attempt) {
    const uint64_t start = machine->Ticks();
    ASSERT_TRUE(machine->SpawnNamed("ticks_mid", 0).ok());
    ASSERT_TRUE(machine->RunToCompletion().ok());
    want.push_back(static_cast<uint32_t>(start + 4));
    EXPECT_EQ(machine->Ticks(), start + 9);
  }
  EXPECT_EQ(machine->RecordsWithKey(100), want);
  EXPECT_TRUE(machine->Faults().empty());
}

// ---------------------------------------------------------------------------
// Thread lifetime: exited threads are reaped at the end of their slice.

// Sequential spawn-and-exit on a default machine never runs out of stack
// (each exited thread's stack is recycled), Threads() holds only the live
// and faulted threads, tids keep increasing, and fault records survive.
TEST(MachineTest, ReapsExitedThreadsAndRecyclesTheirStacks) {
  std::unique_ptr<Machine> machine = BootSource(R"(
int scratch[16];
void work(int n) {
  int local[8];
  local[n % 8] = n;
  scratch[n % 16] = local[n % 8];
}
void crash(int unused) {
  int *p = 0;
  *p = 1;
}
)");
  ASSERT_NE(machine, nullptr);
  ks::Result<int> crashed = machine->SpawnNamed("crash", 0);
  ASSERT_TRUE(crashed.ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_EQ(machine->FaultCount(), 1u);

  int last_tid = *crashed;
  for (uint32_t n = 0; n < 10'000; ++n) {
    ks::Result<int> tid = machine->SpawnNamed("work", n);
    ASSERT_TRUE(tid.ok()) << "spawn " << n << ": " << tid.status().ToString();
    ASSERT_GT(*tid, last_tid);
    last_tid = *tid;
    ASSERT_TRUE(machine->RunToCompletion().ok());
    std::vector<ThreadInfo> threads = machine->Threads();
    ASSERT_EQ(threads.size(), 1u);  // only the faulted thread remains
    ASSERT_EQ(threads[0].tid, *crashed);
    ASSERT_EQ(threads[0].state, ThreadState::kFaulted);
  }
  EXPECT_EQ(machine->FaultCount(), 1u);
  ASSERT_EQ(machine->FaultRecords().size(), 1u);
  EXPECT_EQ(machine->FaultRecords()[0].tid, *crashed);

  // A recycled stack is zero apart from the words Spawn pushed.
  ks::Result<int> fresh = machine->SpawnNamed("work", 3);
  ASSERT_TRUE(fresh.ok());
  EXPECT_EQ(*fresh, last_tid + 1);
  std::vector<ThreadInfo> threads = machine->Threads();
  ASSERT_EQ(threads.size(), 2u);
  const ThreadInfo& info = threads[1];
  ASSERT_EQ(info.tid, *fresh);
  ks::Result<std::vector<uint8_t>> below_sp =
      machine->ReadBytes(info.stack_base, info.sp - info.stack_base);
  ASSERT_TRUE(below_sp.ok());
  EXPECT_EQ(std::count(below_sp->begin(), below_sp->end(), 0),
            static_cast<long>(below_sp->size()));
}

// Reaping a thread mid-table leaves the round-robin order of the others
// as it was with the exited thread still in place.
TEST(MachineTest, ReapingKeepsRoundRobinOrder) {
  std::unique_ptr<Machine> machine = BootSource(R"(
void once(int id) { record(100, id); }
void loop(int id) {
  int i = 0;
  while (i < 3) {
    record(100, id);
    yield();
    i++;
  }
}
)");
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("loop", 1).ok());
  ASSERT_TRUE(machine->SpawnNamed("once", 2).ok());
  ASSERT_TRUE(machine->SpawnNamed("loop", 3).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->RecordsWithKey(100),
            (std::vector<uint32_t>{1, 2, 3, 1, 3, 1, 3}));
}

// The stop_machine quiescence scan walks Threads(): after thousands of
// threads have come and gone it visits the one live thread only.
TEST(MachineTest, QuiescenceScanVisitsOnlyLiveThreads) {
  std::unique_ptr<Machine> machine = BootNoInline(R"(
void nap() { sleep(100000000); }
void parked(int unused) { nap(); }
void quick(int n) { record(100, n); }
)");
  ASSERT_NE(machine, nullptr);
  ks::Result<int> parked = machine->SpawnNamed("parked", 0);
  ASSERT_TRUE(parked.ok());
  // 2,000 threads in batches of 100: more than the stacks of a default
  // machine could hold at once, had the exited ones not been reaped.
  constexpr uint32_t kExited = 2000;
  for (uint32_t i = 0; i < kExited; ++i) {
    ASSERT_TRUE(machine->SpawnNamed("quick", i).ok()) << i;
    if (i % 100 == 99) {
      ASSERT_TRUE(machine->Run(100'000).ok());
    }
  }
  ASSERT_EQ(machine->RecordsWithKey(100).size(), kExited);

  // Every address is "patched", so every thread the scan visits blocks.
  std::vector<ksplice::QuiescenceBlocker> blockers;
  ASSERT_TRUE(machine
                  ->StopMachine([&](Machine& m) {
                    EXPECT_EQ(m.Threads().size(), 1u);
                    blockers = ksplice::ThreadsIn(
                        m, {{0u, m.config().memory_bytes}});
                    return ks::OkStatus();
                  })
                  .ok());
  ASSERT_EQ(blockers.size(), 1u);
  EXPECT_EQ(blockers[0].tid, *parked);
}

// Race check (run under TSan by scripts/check_tsan.sh): the stress pair
// runs on four virtual CPUs, each with its own decode table, while the
// host thread splices a function the pair calls and restores it, 100
// times, under stop_machine.
TEST(MachineTest, StressPairOnFourCpusSurvivesHotSplices) {
  ks::Result<std::unique_ptr<Machine>> booted = corpus::BootKernelVersion(0);
  ASSERT_TRUE(booted.ok()) << booted.status().ToString();
  Machine& machine = **booted;
  SourceTree mod_tree;
  mod_tree.Write("fpu_v2.kc", R"(
extern int fpu_state[4];
extern int fpu_scratch;
int fpu_read_v2(int reg) {
  if (reg < 0 || reg > 4) {
    return -1;
  }
  if (reg == 4) {
    return fpu_scratch;
  }
  return fpu_state[reg];
}
)");
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod_tree, kcc::CompileOptions());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ASSERT_TRUE(machine.LoadModule(*objects, "fpu_v2").ok());
  const uint32_t from = Address(machine, "fpu_read");
  const std::vector<uint8_t> trampoline =
      kvx::EncodeTrampoline(from, Address(machine, "fpu_read_v2"));
  ks::Result<std::vector<uint8_t>> original =
      machine.ReadBytes(from, kvx::kTrampolineSize);
  ASSERT_TRUE(original.ok());

  size_t pairs = 0;
  auto spawn_pair = [&] {
    ASSERT_TRUE(machine.SpawnNamed("stress_main", 4).ok());
    ASSERT_TRUE(machine.SpawnNamed("stress_worker", 4).ok());
    ++pairs;
  };
  ASSERT_NO_FATAL_FAILURE(spawn_pair());
  machine.StartCpus(4);
  int splices = 0;
  for (int attempt = 0; splices < 100 && attempt < 100'000; ++attempt) {
    if (!machine.HasLiveThreads()) {
      ASSERT_NO_FATAL_FAILURE(spawn_pair());
    }
    // A thread inside the first kTrampolineSize bytes would resume in the
    // middle of the jump: not quiescent, try again.
    ks::Status spliced = machine.StopMachine([&](Machine& m) {
      for (const ThreadInfo& thread : m.Threads()) {
        if (thread.pc > from && thread.pc < from + kvx::kTrampolineSize) {
          return ks::FailedPrecondition("fpu_read in use");
        }
      }
      return m.WriteBytes(from, trampoline);
    });
    if (!spliced.ok()) {
      continue;
    }
    std::this_thread::yield();
    ASSERT_TRUE(machine
                    .StopMachine([&](Machine& m) {
                      return m.WriteBytes(from, *original);
                    })
                    .ok());
    ++splices;
  }
  machine.StopCpus();
  ASSERT_TRUE(machine.RunToCompletion().ok());
  EXPECT_EQ(splices, 100);
  EXPECT_EQ(machine.FaultCount(), 0u) << machine.Faults().front();
  EXPECT_FALSE(machine.Halted());
  EXPECT_EQ(machine.RecordsWithKey(corpus::kKeyStress).size(), 2 * pairs);
  EXPECT_TRUE(machine.Threads().empty());
}

}  // namespace
}  // namespace kvm
