// Reverse hooks (§5.3), automatic quiescence retry (§5.2), SMP-mode apply
// with virtual CPUs running, and direct tests of the kvm facilities the
// core relies on (CallFunction, LoadBlob, ModulePlacements).

#include <gtest/gtest.h>

#include <span>

#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kvm/machine.h"
#include "json_checker.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

kcc::CompileOptions Monolithic() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

std::unique_ptr<kvm::Machine> Boot(const SourceTree& tree) {
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, Monolithic());
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  return machine.ok() ? std::move(machine).value() : nullptr;
}

TEST(ReverseHooksTest, AllSixHookStagesRun) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int mode = 1;
int hook_trace = 0;
int get_mode() {
  return mode + 100;
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  SourceTree post = tree;
  std::string contents = *tree.Read("m.kc");
  contents.replace(contents.find("return mode + 100;"),
                   std::string("return mode + 100;").size(),
                   "return mode + 200;");
  contents +=
      "void h_pre_apply() { hook_trace = hook_trace * 10 + 1; }\n"
      "void h_apply() { hook_trace = hook_trace * 10 + 2; }\n"
      "void h_post_apply() { hook_trace = hook_trace * 10 + 3; }\n"
      "void h_pre_reverse() { hook_trace = hook_trace * 10 + 4; }\n"
      "void h_reverse() { hook_trace = hook_trace * 10 + 5; }\n"
      "void h_post_reverse() { hook_trace = hook_trace * 10 + 6; }\n"
      "ksplice_pre_apply(h_pre_apply);\n"
      "ksplice_apply(h_apply);\n"
      "ksplice_post_apply(h_post_apply);\n"
      "ksplice_pre_reverse(h_pre_reverse);\n"
      "ksplice_reverse(h_reverse);\n"
      "ksplice_post_reverse(h_post_reverse);\n";
  post.Write("m.kc", contents);

  CreateOptions options;
  options.compile = Monolithic();
  ks::Result<CreateResult> created =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  KspliceCore core(machine.get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_EQ(core.applied().size(), 1u);
  const AppliedUpdate& update = core.applied()[0];
  EXPECT_EQ(update.hooks.pre_apply.size(), 1u);
  EXPECT_EQ(update.hooks.apply.size(), 1u);
  EXPECT_EQ(update.hooks.post_apply.size(), 1u);
  EXPECT_EQ(update.hooks.reverse.size(), 1u);

  uint32_t trace_addr = *machine->GlobalSymbol("hook_trace");
  EXPECT_EQ(*machine->ReadWord(trace_addr), 123u)
      << "pre_apply, apply, post_apply in order";

  ASSERT_TRUE(core.Undo(applied->id).ok());
  EXPECT_EQ(*machine->ReadWord(trace_addr), 123456u)
      << "pre_reverse, reverse, post_reverse in order";
}

// A kernel whose busy_op sleeps mid-body, and an update that changes it.
SourceTree BusyTree() {
  SourceTree tree;
  tree.Write("m.kc", R"(
int busy_stat_a; int busy_stat_b; int busy_stat_c; int busy_stat_d;
int busy_op(int n) {
  busy_stat_a += 1; busy_stat_b += 2; busy_stat_c += 3; busy_stat_d += 4;
  busy_stat_a += busy_stat_b; busy_stat_c += busy_stat_d;
  sleep(n);
  busy_stat_b += busy_stat_c;
  return 7;
}
void runner(int n) {
  record(1, busy_op(n));
}
)");
  return tree;
}

ks::Result<CreateResult> CreateBusyUpdate(const SourceTree& tree) {
  SourceTree post = tree;
  std::string contents = *tree.Read("m.kc");
  contents.replace(contents.find("return 7;"), 9, "return 8;");
  post.Write("m.kc", contents);
  CreateOptions options;
  options.compile = Monolithic();
  return CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
}

TEST(QuiescenceTest, ApplyRetriesUntilFunctionQuiesces) {
  // A thread sleeps *inside* the patched function briefly; apply's retry
  // loop must advance the machine and succeed automatically (§5.2's
  // "tries again after a short delay").
  SourceTree tree = BusyTree();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("runner", 30'000).ok());
  ASSERT_TRUE(machine->Run(5'000).ok());  // park inside busy_op's sleep

  ks::Result<CreateResult> created = CreateBusyUpdate(tree);
  ASSERT_TRUE(created.ok());

  KspliceCore core(machine.get());
  ApplyOptions apply_options;
  apply_options.rendezvous.max_attempts = 10;
  // Backoff from 10k ticks doubles past the sleeper's 30k-tick nap well
  // within the attempt budget.
  apply_options.rendezvous.backoff_base_ticks = 10'000;
  ks::Result<ApplyReport> applied =
      core.Apply(created->package, apply_options);
  ASSERT_TRUE(applied.ok())
      << "apply must succeed after the sleeper leaves: "
      << applied.status().ToString();

  // The in-flight call completed with the OLD code (7); new calls get 8.
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->RecordsWithKey(1).front(), 7u);
  ASSERT_TRUE(machine->SpawnNamed("runner", 1).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  EXPECT_EQ(machine->RecordsWithKey(1).back(), 8u);
}

// The stop-window fields of `json` read back equal to `window`'s.
void ExpectWindowInJson(const StopWindow& window, const std::string& json) {
  EXPECT_EQ(ks::test::JsonNumberAt(json, "attempts"),
            static_cast<double>(window.attempts))
      << json;
  EXPECT_EQ(ks::test::JsonNumberAt(json, "quiescence_retries"),
            static_cast<double>(window.quiescence_retries()))
      << json;
  EXPECT_EQ(ks::test::JsonNumberAt(json, "pause_ns"),
            static_cast<double>(window.pause_ns))
      << json;
  EXPECT_EQ(ks::test::JsonNumberAt(json, "retry_ticks"),
            static_cast<double>(window.retry_ticks))
      << json;
  EXPECT_EQ(ks::test::JsonArrayLengthAt(json, "blockers"),
            window.blockers.size())
      << json;
}

// A batch apply and an undo that both had to wait for a sleeper: every
// report's JSON carries the window it waited through, value for value.
TEST(QuiescenceTest, RetriedWindowRoundTripsThroughReportJson) {
  SourceTree tree = BusyTree();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ks::Result<CreateResult> created = CreateBusyUpdate(tree);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  ASSERT_TRUE(machine->SpawnNamed("runner", 30'000).ok());
  ASSERT_TRUE(machine->Run(5'000).ok());  // park inside busy_op's sleep
  KspliceCore core(machine.get());
  ApplyOptions options;
  options.rendezvous.max_attempts = 10;
  ks::Result<BatchApplyReport> batch =
      core.ApplyAll(std::span(&created->package, 1), options);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_GE(batch->attempts, 2);
  EXPECT_EQ(batch->quiescence_retries(), batch->attempts - 1);
  EXPECT_GT(batch->retry_ticks, 0u);
  EXPECT_FALSE(batch->blockers.empty());
  ExpectWindowInJson(*batch, batch->ToJson());
  ASSERT_EQ(batch->updates.size(), 1u);
  const ApplyReport& applied = batch->updates[0];
  EXPECT_EQ(applied.attempts, batch->attempts);
  EXPECT_EQ(applied.blockers.size(), batch->blockers.size());
  ExpectWindowInJson(applied, applied.ToJson());

  // Now park a caller inside the replacement code: undo has to wait too.
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_TRUE(machine->SpawnNamed("runner", 30'000).ok());
  ASSERT_TRUE(machine->Run(5'000).ok());
  ks::Result<UndoReport> undone =
      core.Undo(applied.id, options.rendezvous);
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  ASSERT_GE(undone->attempts, 2);
  EXPECT_FALSE(undone->blockers.empty());
  ExpectWindowInJson(*undone, undone->ToJson());
}

TEST(SmpTest, ApplyWhileVirtualCpusChurn) {
  // The §5.2 scenario proper: worker threads run on virtual CPUs (host
  // threads) while the update applies through stop_machine.
  SourceTree tree;
  tree.Write("m.kc", R"(
int spin = 1;
int iterations = 0;
int cls_a; int cls_b; int cls_c; int cls_d;
int classify(int x) {
  cls_a += 1; cls_b += 2; cls_c += 3; cls_d += 4;
  cls_a += cls_b; cls_c += cls_d; cls_b += cls_c; cls_d += cls_a;
  if (x > 10) {
    return 1;
  }
  return 0;
}
void worker(int unused) {
  while (spin) {
    iterations += classify(iterations % 20);
    yield();
  }
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  machine->StartCpus(2);

  SourceTree post = tree;
  std::string contents = *tree.Read("m.kc");
  contents.replace(contents.find("if (x > 10) {"),
                   std::string("if (x > 10) {").size(), "if (x > 5) {");
  post.Write("m.kc", contents);
  CreateOptions options;
  options.compile = Monolithic();
  ks::Result<CreateResult> created =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
  ASSERT_TRUE(created.ok());

  KspliceCore core(machine.get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  EXPECT_TRUE(applied.ok()) << applied.status().ToString();

  // Stop the workers and check nothing faulted.
  ASSERT_TRUE(machine
                  ->StopMachine([](kvm::Machine& m) {
                    return m.WriteWord(*m.GlobalSymbol("spin"), 0);
                  })
                  .ok());
  for (int i = 0; i < 2000 && machine->HasLiveThreads(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  machine->StopCpus();
  EXPECT_FALSE(machine->HasLiveThreads());
  EXPECT_TRUE(machine->Faults().empty());
  if (applied.ok()) {
    EXPECT_TRUE(core.Undo(applied->id).ok());
  }
}

TEST(SmpTest, RepeatedApplyUndoSoak) {
  // Twenty apply/undo cycles while two virtual CPUs churn: shakes out
  // races between stop_machine, the module arena, and the registry.
  SourceTree tree;
  tree.Write("m.kc", R"(
int spin = 1;
int sum = 0;
int s_a; int s_b; int s_c; int s_d;
int step(int x) {
  s_a += 1; s_b += 2; s_c += 3; s_d += 4;
  s_a += s_b; s_c += s_d; s_b += s_c; s_d += s_a;
  return x + 1;
}
void worker(int unused) {
  while (spin) {
    sum += step(sum % 13);
    yield();
  }
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  ASSERT_TRUE(machine->SpawnNamed("worker", 0).ok());
  machine->StartCpus(2);

  SourceTree post = tree;
  std::string contents = *tree.Read("m.kc");
  contents.replace(contents.find("return x + 1;"),
                   std::string("return x + 1;").size(), "return x + 2;");
  post.Write("m.kc", contents);
  CreateOptions options;
  options.compile = Monolithic();
  ks::Result<CreateResult> created =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
  ASSERT_TRUE(created.ok());

  KspliceCore core(machine.get());
  ApplyOptions apply_options;
  apply_options.rendezvous.max_attempts = 50;
  int cycles = 0;
  for (int i = 0; i < 20; ++i) {
    ks::Result<ApplyReport> applied =
        core.Apply(created->package, apply_options);
    ASSERT_TRUE(applied.ok()) << "cycle " << i << ": "
                              << applied.status().ToString();
    ks::Result<UndoReport> undone =
        core.Undo(applied->id, apply_options.rendezvous);
    ASSERT_TRUE(undone.ok()) << "cycle " << i << ": " << undone.status().ToString();
    ++cycles;
  }
  EXPECT_EQ(cycles, 20);

  ASSERT_TRUE(machine
                  ->StopMachine([](kvm::Machine& m) {
                    return m.WriteWord(*m.GlobalSymbol("spin"), 0);
                  })
                  .ok());
  for (int i = 0; i < 2000 && machine->HasLiveThreads(); ++i) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  machine->StopCpus();
  EXPECT_TRUE(machine->Faults().empty());
  EXPECT_TRUE(core.applied().empty());
}

// ------------------------------------------------------------------- kvm

TEST(KvmFacilityTest, CallFunctionReturnsValueAndReportsFaults) {
  SourceTree tree;
  tree.Write("m.kc", R"(
int doubler(int x) {
  return x * 2;
}
int crasher(int x) {
  int *p = 0;
  return *p + x;
}
int sleeper(int x) {
  sleep(100);
  return x;
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  uint32_t doubler = *machine->GlobalSymbol("doubler");
  ks::Result<uint32_t> result = machine->CallFunction(doubler, 21);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(*result, 42u);

  // Repeated calls reuse the hook stack.
  for (uint32_t i = 0; i < 50; ++i) {
    EXPECT_EQ(*machine->CallFunction(doubler, i), i * 2);
  }

  uint32_t crasher = *machine->GlobalSymbol("crasher");
  ks::Result<uint32_t> crash = machine->CallFunction(crasher, 1);
  ASSERT_FALSE(crash.ok());
  EXPECT_EQ(crash.status().code(), ks::ErrorCode::kAborted);

  uint32_t sleeper = *machine->GlobalSymbol("sleeper");
  ks::Result<uint32_t> blocked = machine->CallFunction(sleeper, 1);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), ks::ErrorCode::kFailedPrecondition);
}

TEST(KvmFacilityTest, LoadBlobAccountsAndFrees) {
  SourceTree tree;
  tree.Write("m.kc", "int x = 1;\n");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  uint32_t before = machine->ModuleArenaBytesInUse();
  ks::Result<kvm::ModuleHandle> blob = machine->LoadBlob("helper", 10'000);
  ASSERT_TRUE(blob.ok());
  EXPECT_GE(machine->ModuleArenaBytesInUse(), before + 10'000);
  ks::Result<kvm::ModuleInfo> info = machine->GetModuleInfo(*blob);
  ASSERT_TRUE(info.ok());
  // Blob memory is writable/readable.
  ASSERT_TRUE(machine->WriteWord(info->base, 0xabcd).ok());
  EXPECT_EQ(*machine->ReadWord(info->base), 0xabcdu);
  ASSERT_TRUE(machine->UnloadModule(*blob).ok());
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), before);
}

TEST(KvmFacilityTest, ModulePlacementsExposeSections) {
  SourceTree tree;
  tree.Write("m.kc", "int x = 1;\n");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  SourceTree mod;
  mod.Write("mod.kc", R"(
extern int x;
int mod_data = 7;
int mod_fn(int a) {
  return mod_data + a + x;
}
)");
  kcc::CompileOptions options;
  options.function_sections = true;
  options.data_sections = true;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(mod, options);
  ASSERT_TRUE(objects.ok());
  ks::Result<kvm::ModuleHandle> handle =
      machine->LoadModule(*objects, "m");
  ASSERT_TRUE(handle.ok()) << handle.status().ToString();
  ks::Result<std::vector<kelf::PlacedSection>> placements =
      machine->ModulePlacements(*handle);
  ASSERT_TRUE(placements.ok());
  bool text = false;
  bool data = false;
  for (const kelf::PlacedSection& placement : *placements) {
    if (placement.name == ".text.mod_fn") {
      text = true;
    }
    if (placement.name == ".data.mod_data") {
      data = true;
    }
  }
  EXPECT_TRUE(text);
  EXPECT_TRUE(data);
  ks::Result<std::vector<std::pair<std::string, uint32_t>>> imports =
      machine->ModuleImports(*handle);
  ASSERT_TRUE(imports.ok());
  ks::Result<uint32_t> x = machine->GlobalSymbol("x");
  ASSERT_TRUE(x.ok());
  EXPECT_EQ(*imports, (std::vector<std::pair<std::string, uint32_t>>{
                          {"x", *x}}));
  // Placements and imports of an unloaded module are released, not kept.
  ASSERT_TRUE(machine->UnloadModule(*handle).ok());
  EXPECT_EQ(machine->ModulePlacements(*handle).status().code(),
            ks::ErrorCode::kFailedPrecondition);
  EXPECT_EQ(machine->ModuleImports(*handle).status().code(),
            ks::ErrorCode::kFailedPrecondition);
}

}  // namespace
}  // namespace ksplice
