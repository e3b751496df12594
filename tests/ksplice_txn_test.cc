// Transaction-engine tests: batched apply with a single shared
// stop_machine rendezvous, match-stage results independent of the worker
// count, whole-batch rollback on any stage failure, pre_apply side-effect
// compensation, out-of-order undo of mid-stack updates (chain rewriting
// and the import dependency check), and UndoAll's stop-at-first-failure
// contract.

#include <gtest/gtest.h>

#include "base/faultinject.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kvm/machine.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

kcc::CompileOptions Monolithic() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

// Three independently patchable units so a batch of three packages has
// disjoint targets.
SourceTree TriKernel() {
  SourceTree tree;
  // Each op is padded past kcc's inline threshold so patches stay
  // localized to the op itself (no caller re-splicing).
  tree.Write("alpha.kc", R"(
int alpha_state = 100;
int alpha_op(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  return a + b + c + d + e + f + g + h + alpha_state;
}
void alpha_probe(int x) {
  record(11, alpha_op(x));
}
)");
  tree.Write("beta.kc", R"(
int beta_state = 200;
int beta_op(int x) {
  int a = x * 2; int b = a + 5; int c = b * 2; int d = c + 7;
  int e = d + 3; int f = e * 2; int g = f + 9; int h = g + 4;
  return a + b + c + d + e + f + g + h + beta_state;
}
void beta_probe(int x) {
  record(22, beta_op(x));
}
)");
  tree.Write("gamma.kc", R"(
int gamma_state = 300;
int gamma_op(int x) {
  int a = x + 9; int b = a * 3; int c = b - 2; int d = c + 1;
  int e = d + 8; int f = e - 3; int g = f * 2; int h = g + 6;
  return a + b + c + d + e + f + g + h + gamma_state;
}
void gamma_probe(int x) {
  record(33, gamma_op(x));
}
)");
  return tree;
}

std::unique_ptr<kvm::Machine> Boot(const SourceTree& tree) {
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, Monolithic());
  EXPECT_TRUE(objects.ok());
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok());
  return machine.ok() ? std::move(machine).value() : nullptr;
}

std::string EditTree(const SourceTree& tree, const std::string& path,
                     const std::string& from, const std::string& to,
                     SourceTree* post_out = nullptr) {
  SourceTree post = tree;
  std::string contents = *tree.Read(path);
  size_t at = contents.find(from);
  EXPECT_NE(at, std::string::npos);
  contents.replace(at, from.size(), to);
  post.Write(path, contents);
  if (post_out != nullptr) {
    *post_out = post;
  }
  return kdiff::MakeUnifiedDiff(tree, post);
}

ks::Result<CreateResult> Create(const SourceTree& tree,
                                const std::string& patch,
                                const std::string& id) {
  CreateOptions options;
  options.compile = Monolithic();
  options.id = id;
  return CreateUpdate(tree, patch, options);
}

// Runs the named probe to completion and returns the last value it
// recorded under `key`.
uint32_t Probe(kvm::Machine& machine, const std::string& probe, uint32_t arg,
               uint32_t key) {
  EXPECT_TRUE(machine.SpawnNamed(probe, arg).ok());
  EXPECT_TRUE(machine.RunToCompletion().ok());
  std::vector<uint32_t> values = machine.RecordsWithKey(key);
  EXPECT_FALSE(values.empty());
  return values.empty() ? 0 : values.back();
}

// --------------------------------------------------------------- batching

TEST(BatchApplyTest, ThreePackagesOneRendezvous) {
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  uint32_t before_alpha = Probe(*machine, "alpha_probe", 1, 11);
  uint32_t before_beta = Probe(*machine, "beta_probe", 1, 22);
  uint32_t before_gamma = Probe(*machine, "gamma_probe", 1, 33);

  std::vector<UpdatePackage> packages;
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "batch-alpha");
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  packages.push_back(u1->package);
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "batch-beta");
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  packages.push_back(u2->package);
  ks::Result<CreateResult> u3 = Create(
      tree, EditTree(tree, "gamma.kc", "int c = b - 2;", "int c = b - 20;"),
      "batch-gamma");
  ASSERT_TRUE(u3.ok()) << u3.status().ToString();
  packages.push_back(u3->package);

  // The whole point of ApplyAll: N packages, exactly ONE stop_machine
  // rendezvous (one combined quiescence check and pause).
  ks::Counter& stops = ks::Metrics().GetCounter("kvm.stop_machine_calls");
  uint64_t stops_before = stops.value();
  KspliceCore core(machine.get());
  ks::Result<BatchApplyReport> batch = core.ApplyAll(packages);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(stops.value() - stops_before, 1u);

  EXPECT_EQ(batch->packages, 3u);
  EXPECT_EQ(batch->updates.size(), 3u);
  EXPECT_EQ(batch->functions_spliced, 3u);
  EXPECT_EQ(batch->attempts, 1);
  EXPECT_EQ(core.applied().size(), 3u);
  // Every member report carries the shared rendezvous numbers plus the six
  // stage timings.
  for (const ApplyReport& report : batch->updates) {
    EXPECT_EQ(report.attempts, batch->attempts);
    EXPECT_EQ(report.pause_ns, batch->pause_ns);
    ASSERT_EQ(report.stages.size(), 6u);
    EXPECT_EQ(report.stages[0].stage, "prepare");
    EXPECT_EQ(report.stages[4].stage, "rendezvous");
  }

  // All three functions redirected (executed in kvm, not just bookkept).
  EXPECT_NE(Probe(*machine, "alpha_probe", 1, 11), before_alpha);
  EXPECT_NE(Probe(*machine, "beta_probe", 1, 22), before_beta);
  EXPECT_NE(Probe(*machine, "gamma_probe", 1, 33), before_gamma);

  // Status reflects the stack.
  StatusReport status = core.Status();
  ASSERT_EQ(status.updates.size(), 3u);
  EXPECT_EQ(status.updates[0].id, "batch-alpha");
  EXPECT_EQ(status.updates[0].functions, 1u);
  EXPECT_FALSE(status.updates[0].helper_loaded);
  EXPECT_GT(status.updates[0].primary_bytes, 0u);
  EXPECT_GT(status.arena_bytes_in_use, 0u);
}

TEST(BatchApplyTest, OverlappingTargetsRejectedUpFront) {
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  std::vector<UpdatePackage> packages;
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "overlap-1");
  ASSERT_TRUE(u1.ok());
  packages.push_back(u1->package);
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "alpha.kc", "int b = a + 2;", "int b = a + 20;"),
      "overlap-2");
  ASSERT_TRUE(u2.ok());
  packages.push_back(u2->package);

  uint32_t arena_before = machine->ModuleArenaBytesInUse();
  KspliceCore core(machine.get());
  ks::Result<BatchApplyReport> batch = core.ApplyAll(packages);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), ks::ErrorCode::kInvalidArgument);
  EXPECT_NE(batch.status().message().find("separate transactions"),
            std::string::npos);
  EXPECT_TRUE(core.applied().empty());
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena_before);
}

TEST(BatchApplyTest, QuiescenceFailureRollsBackWholeBatch) {
  // One of the three patched functions hosts a sleeping thread; with a
  // tiny retry budget the shared rendezvous never succeeds and the WHOLE
  // batch must roll back — including the two packages whose functions
  // were idle.
  SourceTree tree = TriKernel();
  tree.Write("sleeper.kc", R"(
int sleepy_a; int sleepy_b; int sleepy_c; int sleepy_d;
int sleepy_op(int n) {
  sleepy_a += 1; sleepy_b += 2; sleepy_c += 3; sleepy_d += 4;
  sleepy_a += sleepy_b; sleepy_c += sleepy_d;
  sleep(n);
  sleepy_b += sleepy_c;
  return 7;
}
void sleeper(int n) {
  record(44, sleepy_op(n));
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("sleeper", 500'000).ok());
  ASSERT_TRUE(machine->Run(10'000).ok());  // let it reach the sleep

  std::vector<UpdatePackage> packages;
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "qf-alpha");
  ASSERT_TRUE(u1.ok());
  packages.push_back(u1->package);
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "sleeper.kc", "return 7;", "return 8;"),
      "qf-sleeper");
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  packages.push_back(u2->package);
  ks::Result<CreateResult> u3 = Create(
      tree, EditTree(tree, "gamma.kc", "int c = b - 2;", "int c = b - 20;"),
      "qf-gamma");
  ASSERT_TRUE(u3.ok());
  packages.push_back(u3->package);

  uint32_t arena_before = machine->ModuleArenaBytesInUse();
  size_t kallsyms_before = machine->Kallsyms().size();

  KspliceCore core(machine.get());
  ApplyOptions options;
  options.rendezvous.max_attempts = 2;
  options.rendezvous.backoff_base_ticks = 1'000;
  options.rendezvous.backoff_max_ticks = 1'000;
  options.rendezvous.backoff_jitter = 0.0;
  ks::Result<BatchApplyReport> batch = core.ApplyAll(packages, options);
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), ks::ErrorCode::kResourceExhausted);
  EXPECT_NE(batch.status().message().find("in use"), std::string::npos);

  // Nothing applied, nothing leaked: no update registered, every module
  // unloaded, kallsyms back to the boot set.
  EXPECT_TRUE(core.applied().empty());
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena_before);
  EXPECT_EQ(machine->Kallsyms().size(), kallsyms_before);

  // The machine still runs the original code everywhere.
  ASSERT_TRUE(machine->RunToCompletion().ok());
  uint32_t alpha_orig;
  {
    std::unique_ptr<kvm::Machine> fresh = Boot(tree);
    ASSERT_NE(fresh, nullptr);
    alpha_orig = Probe(*fresh, "alpha_probe", 1, 11);
  }
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), alpha_orig);
}

// Reads the whole linked kernel image (text, trampolines included).
std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  uint32_t base = machine.config().kernel_base;
  ks::Result<std::vector<uint8_t>> bytes =
      machine.ReadBytes(base, machine.kernel_end() - base);
  EXPECT_TRUE(bytes.ok()) << bytes.status().ToString();
  return bytes.ok() ? std::move(bytes).value() : std::vector<uint8_t>{};
}

// A batch matches every helper unit of every package in turn. Batching
// must be invisible to the match: each update's stats equal those of
// applying that package alone on a fresh machine, and after UndoAll the
// boot image is back.
TEST(BatchApplyTest, MatchJobsLeaveDecisionsAndTextUnchanged) {
  SourceTree tree = TriKernel();
  std::vector<UpdatePackage> packages;
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "match-alpha");
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  packages.push_back(u1->package);
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "match-beta");
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  packages.push_back(u2->package);
  size_t units = 0;
  for (const UpdatePackage& package : packages) {
    units += package.helper_objects.size();
  }
  ASSERT_EQ(units, 2u);

  std::vector<std::string> alone;  // MatchStats JSON per package
  for (const UpdatePackage& package : packages) {
    std::unique_ptr<kvm::Machine> machine = Boot(tree);
    ASSERT_NE(machine, nullptr);
    KspliceCore core(machine.get());
    ks::Result<ApplyReport> applied = core.Apply(package);
    ASSERT_TRUE(applied.ok()) << package.id << ": "
                              << applied.status().ToString();
    alone.push_back(applied->match.ToJson());
  }

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  std::vector<uint8_t> boot = KernelImage(*machine);
  KspliceCore core(machine.get());
  ks::Result<BatchApplyReport> batch = core.ApplyAll(packages);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  std::vector<std::string> batched;
  for (const ApplyReport& report : batch->updates) {
    EXPECT_GT(report.match.sections_matched, 0u) << report.id;
    batched.push_back(report.match.ToJson());
  }
  EXPECT_EQ(batched, alone);
  EXPECT_NE(KernelImage(*machine), boot);
  ks::Result<std::vector<UndoReport>> undone = core.UndoAll();
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_EQ(KernelImage(*machine), boot);
}

// --------------------------------------------------------- stage rollback

TEST(TxnRollbackTest, PreApplyFailureCompensatesSideEffects) {
  // The patch's first pre_apply hook mutates live kernel state; the second
  // faults. The transaction must roll back the completed stage work by
  // running the package's post_reverse hooks (the stage that undoes
  // pre_apply in a reversed update), leaving the machine byte-identical.
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  SourceTree post = tree;
  std::string contents = *tree.Read("alpha.kc");
  size_t at = contents.find("int a = x + 1;");
  contents.replace(at, std::string("int a = x + 1;").size(),
                   "int a = x + 10;");
  contents +=
      "void setup_hook() {\n"
      "  alpha_state = alpha_state + 9000;\n"
      "}\n"
      "void crash_hook() {\n"
      "  int *p = 0;\n"
      "  *p = 1;\n"
      "}\n"
      "void teardown_hook() {\n"
      "  alpha_state = alpha_state - 9000;\n"
      "}\n"
      "ksplice_pre_apply(setup_hook);\n"
      "ksplice_pre_apply(crash_hook);\n"
      "ksplice_post_reverse(teardown_hook);\n";
  post.Write("alpha.kc", contents);

  CreateOptions options;
  options.compile = Monolithic();
  options.id = "hook-rollback";
  ks::Result<CreateResult> created =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  uint32_t state_addr = *machine->GlobalSymbol("alpha_state");
  uint32_t state_before = *machine->ReadWord(state_addr);
  uint32_t arena_before = machine->ModuleArenaBytesInUse();
  size_t kallsyms_before = machine->Kallsyms().size();

  KspliceCore core(machine.get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_FALSE(applied.ok());
  EXPECT_NE(applied.status().message().find("hook"), std::string::npos);
  EXPECT_TRUE(core.applied().empty());

  // setup_hook's mutation was compensated by teardown_hook; modules gone.
  EXPECT_EQ(*machine->ReadWord(state_addr), state_before);
  EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena_before);
  EXPECT_EQ(machine->Kallsyms().size(), kallsyms_before);
}

// ------------------------------------------------- rollback in the window

// Appends an apply hook and a reverse hook to `path` in `post`; each
// records `key` (apply) or `key + 1` (reverse) when it runs.
void AddHookPair(SourceTree* post, const std::string& path,
                 const std::string& name, uint32_t key) {
  std::string contents = *post->Read(path);
  contents += ks::StrPrintf(
      "void %s_apply_hook() {\n  record(%u, 1);\n}\n"
      "void %s_reverse_hook() {\n  record(%u, 1);\n}\n"
      "ksplice_apply(%s_apply_hook);\n"
      "ksplice_reverse(%s_reverse_hook);\n",
      name.c_str(), key, name.c_str(), key + 1, name.c_str(), name.c_str());
  post->Write(path, contents);
}

// A splice that fails partway through the window undoes every trampoline
// it wrote and runs the reverse hooks of exactly the packages whose apply
// hooks ran, inside the same window. The batch splices four functions
// (alpha_op and alpha_probe, beta_op, gamma_op) in package order, so
// nth:k faults the k-th splice for every k.
TEST(TxnRollbackTest, SpliceFailureInsideWindowUnwindsEveryWrite) {
  ks::Faults().Reset();
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  struct Edit {
    const char* path;
    const char* name;
    const char* from;
    const char* to;
  };
  const Edit edits[] = {
      {"alpha.kc", "alpha", "int a = x + 1;", "int a = x + 10;"},
      {"beta.kc", "beta", "int b = a + 5;", "int b = a + 50;"},
      {"gamma.kc", "gamma", "int c = b - 2;", "int c = b - 20;"},
  };
  std::vector<UpdatePackage> packages;
  std::vector<size_t> splices_before;  // splices of earlier packages
  size_t splices = 0;
  for (size_t p = 0; p < std::size(edits); ++p) {
    SourceTree post;
    EditTree(tree, edits[p].path, edits[p].from, edits[p].to, &post);
    if (p == 0) {
      SourceTree edited = post;
      EditTree(edited, "alpha.kc", "record(11, alpha_op(x));",
               "record(11, alpha_op(x) + 1);", &post);
    }
    AddHookPair(&post, edits[p].path, edits[p].name,
                static_cast<uint32_t>(100 + 10 * p));
    ks::Result<CreateResult> created =
        Create(tree, kdiff::MakeUnifiedDiff(tree, post),
               std::string("window-") + edits[p].name);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    splices_before.push_back(splices);
    splices += created->package.targets.size();
    packages.push_back(created->package);
  }
  ASSERT_EQ(splices, 4u);

  std::vector<uint8_t> boot = KernelImage(*machine);
  uint32_t arena_before = machine->ModuleArenaBytesInUse();
  KspliceCore core(machine.get());
  for (size_t k = 1; k <= splices; ++k) {
    SCOPED_TRACE("ksplice.txn.splice=nth:" + std::to_string(k));
    std::vector<size_t> applied_before, reversed_before;
    for (size_t p = 0; p < packages.size(); ++p) {
      uint32_t key = static_cast<uint32_t>(100 + 10 * p);
      applied_before.push_back(machine->RecordsWithKey(key).size());
      reversed_before.push_back(machine->RecordsWithKey(key + 1).size());
    }
    {
      ks::ScopedFaultPlan plan;
      ASSERT_TRUE(
          plan.Arm("ksplice.txn.splice=nth:" + std::to_string(k)).ok());
      ks::Result<BatchApplyReport> batch = core.ApplyAll(packages);
      ASSERT_FALSE(batch.ok());
      EXPECT_NE(batch.status().message().find("ksplice.txn.splice"),
                std::string::npos)
          << batch.status().ToString();
    }
    EXPECT_EQ(KernelImage(*machine), boot);
    EXPECT_TRUE(core.applied().empty());
    EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena_before);
    for (size_t p = 0; p < packages.size(); ++p) {
      uint32_t key = static_cast<uint32_t>(100 + 10 * p);
      // Package p's apply hooks ran iff its splices start before the
      // faulted one.
      size_t ran = splices_before[p] < k ? 1 : 0;
      EXPECT_EQ(machine->RecordsWithKey(key).size() - applied_before[p], ran)
          << packages[p].id;
      EXPECT_EQ(machine->RecordsWithKey(key + 1).size() - reversed_before[p],
                ran)
          << packages[p].id;
    }
  }

  // The unwound machine still takes the whole batch.
  ks::Result<BatchApplyReport> batch = core.ApplyAll(packages);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  EXPECT_EQ(batch->functions_spliced, splices);
  ASSERT_TRUE(core.UndoAll().ok());
  EXPECT_EQ(KernelImage(*machine), boot);
}

// An undo whose k-th restore fails writes the earlier restores back and
// re-runs the apply hooks inside the window: the update stays fully
// applied, and a clean undo afterwards returns the boot image.
TEST(TxnRollbackTest, RestoreFailureInsideWindowKeepsUpdateApplied) {
  ks::Faults().Reset();
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const uint32_t before_alpha = Probe(*machine, "alpha_probe", 1, 11);
  const uint32_t before_beta = Probe(*machine, "beta_probe", 1, 22);
  const uint32_t before_gamma = Probe(*machine, "gamma_probe", 1, 33);
  std::vector<uint8_t> boot = KernelImage(*machine);

  SourceTree post;
  EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;", &post);
  SourceTree step = post;
  EditTree(step, "beta.kc", "int b = a + 5;", "int b = a + 50;", &post);
  step = post;
  EditTree(step, "gamma.kc", "int c = b - 2;", "int c = b - 20;", &post);
  ks::Result<CreateResult> created =
      Create(tree, kdiff::MakeUnifiedDiff(tree, post), "window-undo");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const size_t restores = created->package.targets.size();
  ASSERT_EQ(restores, 3u);

  KspliceCore core(machine.get());
  for (size_t k = 1; k <= restores; ++k) {
    SCOPED_TRACE("ksplice.undo.restore=nth:" + std::to_string(k));
    ASSERT_TRUE(core.Apply(created->package).ok());
    std::vector<uint8_t> patched = KernelImage(*machine);
    const uint32_t alpha = Probe(*machine, "alpha_probe", 1, 11);
    const uint32_t beta = Probe(*machine, "beta_probe", 1, 22);
    const uint32_t gamma = Probe(*machine, "gamma_probe", 1, 33);
    EXPECT_NE(alpha, before_alpha);
    EXPECT_NE(beta, before_beta);
    EXPECT_NE(gamma, before_gamma);
    {
      ks::ScopedFaultPlan plan;
      ASSERT_TRUE(
          plan.Arm("ksplice.undo.restore=nth:" + std::to_string(k)).ok());
      EXPECT_FALSE(core.Undo("window-undo").ok());
    }
    EXPECT_TRUE(core.IsApplied("window-undo"));
    EXPECT_EQ(KernelImage(*machine), patched);
    EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), alpha);
    EXPECT_EQ(Probe(*machine, "beta_probe", 1, 22), beta);
    EXPECT_EQ(Probe(*machine, "gamma_probe", 1, 33), gamma);

    ks::Result<UndoReport> undone = core.Undo("window-undo");
    ASSERT_TRUE(undone.ok()) << undone.status().ToString();
    EXPECT_EQ(undone->functions_restored, restores);
    EXPECT_EQ(KernelImage(*machine), boot);
  }
}

// ------------------------------------------------------ out-of-order undo

TEST(OutOfOrderUndoTest, MidStackUndoKeepsNewerUpdatesLive) {
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  uint32_t before_alpha = Probe(*machine, "alpha_probe", 1, 11);
  uint32_t before_beta = Probe(*machine, "beta_probe", 1, 22);
  uint32_t before_gamma = Probe(*machine, "gamma_probe", 1, 33);

  KspliceCore core(machine.get());
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "mid-1");
  ASSERT_TRUE(u1.ok());
  ASSERT_TRUE(core.Apply(u1->package).ok());
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "mid-2");
  ASSERT_TRUE(u2.ok());
  ASSERT_TRUE(core.Apply(u2->package).ok());
  ks::Result<CreateResult> u3 = Create(
      tree, EditTree(tree, "gamma.kc", "int c = b - 2;", "int c = b - 20;"),
      "mid-3");
  ASSERT_TRUE(u3.ok());
  ASSERT_TRUE(core.Apply(u3->package).ok());

  uint32_t patched_alpha = Probe(*machine, "alpha_probe", 1, 11);
  uint32_t patched_gamma = Probe(*machine, "gamma_probe", 1, 33);
  ASSERT_NE(patched_alpha, before_alpha);

  // Remove the middle update. The other two patch different functions, so
  // no chains need rewriting — but the registry is no longer LIFO.
  ks::Result<UndoReport> undone = core.Undo("mid-2");
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_TRUE(undone->out_of_order);
  EXPECT_EQ(undone->chains_rewritten, 0u);
  EXPECT_EQ(undone->functions_restored, 1u);
  ASSERT_EQ(core.applied().size(), 2u);
  EXPECT_EQ(core.applied()[0].id, "mid-1");
  EXPECT_EQ(core.applied()[1].id, "mid-3");

  // beta is back to original; alpha and gamma still redirected — and still
  // execute correctly in the vm.
  EXPECT_EQ(Probe(*machine, "beta_probe", 1, 22), before_beta);
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), patched_alpha);
  EXPECT_EQ(Probe(*machine, "gamma_probe", 1, 33), patched_gamma);

  // Remaining updates undo cleanly in any order.
  ASSERT_TRUE(core.Undo("mid-1").ok());
  ASSERT_TRUE(core.Undo("mid-3").ok());
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), before_alpha);
  EXPECT_EQ(Probe(*machine, "gamma_probe", 1, 33), before_gamma);
  EXPECT_TRUE(core.applied().empty());
}

TEST(OutOfOrderUndoTest, HelperUnloadThenMidStackUndo) {
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  uint32_t before_alpha = Probe(*machine, "alpha_probe", 1, 11);

  KspliceCore core(machine.get());
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "hu-1");
  ASSERT_TRUE(u1.ok());
  ApplyOptions keep;
  keep.keep_helper = true;
  ASSERT_TRUE(core.Apply(u1->package, keep).ok());
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "hu-2");
  ASSERT_TRUE(u2.ok());
  ASSERT_TRUE(core.Apply(u2->package).ok());

  StatusReport status = core.Status();
  ASSERT_EQ(status.updates.size(), 2u);
  EXPECT_TRUE(status.updates[0].helper_loaded);
  ASSERT_TRUE(core.UnloadHelper("hu-1").ok());
  EXPECT_FALSE(core.Status().updates[0].helper_loaded);

  // Undo the bottom of the stack after its helper is gone.
  ks::Result<UndoReport> undone = core.Undo("hu-1");
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_TRUE(undone->out_of_order);
  EXPECT_EQ(undone->helper_bytes_reclaimed, 0u);
  EXPECT_GT(undone->primary_bytes_reclaimed, 0u);
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), before_alpha);
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_EQ(core.applied()[0].id, "hu-2");
}

TEST(OutOfOrderUndoTest, RefusedWhileNewerUpdateImportsItsModule) {
  // Update 1 introduces a new function; update 2 (built on the patched
  // source) calls it, so its primary links against update 1's module.
  // Removing update 1 from under it must be refused.
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  uint32_t before_alpha = Probe(*machine, "alpha_probe", 1, 11);
  uint32_t before_beta = Probe(*machine, "beta_probe", 1, 22);

  const std::string alpha_ret =
      "return a + b + c + d + e + f + g + h + alpha_state;";
  SourceTree post1 = tree;
  std::string alpha = *tree.Read("alpha.kc");
  size_t at = alpha.find(alpha_ret);
  ASSERT_NE(at, std::string::npos);
  alpha.replace(at, alpha_ret.size(),
                "return audit(a + b + c + d + e + f + g + h + alpha_state);");
  alpha +=
      "int audit(int v) {\n"
      "  record(99, v);\n"
      "  return v + 1;\n"
      "}\n";
  post1.Write("alpha.kc", alpha);
  CreateOptions options1;
  options1.compile = Monolithic();
  options1.id = "dep-base";
  ks::Result<CreateResult> u1 =
      CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post1), options1);
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();

  KspliceCore core(machine.get());
  ASSERT_TRUE(core.Apply(u1->package).ok());

  // Update 2: beta_op starts calling audit() — an import that resolves
  // into dep-base's primary module.
  const std::string beta_ret =
      "return a + b + c + d + e + f + g + h + beta_state;";
  SourceTree post2 = post1;
  std::string beta = "int audit(int v);\n" + *post1.Read("beta.kc");
  at = beta.find(beta_ret);
  ASSERT_NE(at, std::string::npos);
  beta.replace(at, beta_ret.size(),
               "return audit(a + b + c + d + e + f + g + h + beta_state);");
  post2.Write("beta.kc", beta);
  CreateOptions options2;
  options2.compile = Monolithic();
  options2.id = "dep-user";
  ks::Result<CreateResult> u2 =
      CreateUpdate(post1, kdiff::MakeUnifiedDiff(post1, post2), options2);
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  ASSERT_TRUE(core.Apply(u2->package).ok());

  // dep-user's beta_op calls into dep-base's module: removal refused.
  ks::Result<UndoReport> refused = core.Undo("dep-base");
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ks::ErrorCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("depends on"),
            std::string::npos);
  ASSERT_EQ(core.applied().size(), 2u);

  // Both updates still live and executable.
  EXPECT_NE(Probe(*machine, "beta_probe", 1, 22), before_beta);
  EXPECT_FALSE(machine->RecordsWithKey(99).empty());

  // LIFO order still works.
  ASSERT_TRUE(core.Undo("dep-user").ok());
  ASSERT_TRUE(core.Undo("dep-base").ok());
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), before_alpha);
  EXPECT_EQ(Probe(*machine, "beta_probe", 1, 22), before_beta);
}

// ----------------------------------------------------------------- UndoAll

// UndoAll stops at the first failed undo; the updates it already reversed
// stay reversed and the failed one stays fully applied, so a second
// UndoAll finishes the job and returns the boot image byte for byte.
TEST(UndoAllTest, StopsAtFirstFailureLeavingReversedUpdatesReversed) {
  ks::Faults().Reset();
  SourceTree tree = TriKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  std::vector<uint8_t> boot = KernelImage(*machine);

  KspliceCore core(machine.get());
  ks::Result<CreateResult> u1 = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "all-1");
  ASSERT_TRUE(u1.ok()) << u1.status().ToString();
  ASSERT_TRUE(core.Apply(u1->package).ok());
  ks::Result<CreateResult> u2 = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "all-2");
  ASSERT_TRUE(u2.ok()) << u2.status().ToString();
  ASSERT_TRUE(core.Apply(u2->package).ok());
  std::vector<uint8_t> first_two = KernelImage(*machine);
  ks::Result<CreateResult> u3 = Create(
      tree, EditTree(tree, "gamma.kc", "int c = b - 2;", "int c = b - 20;"),
      "all-3");
  ASSERT_TRUE(u3.ok()) << u3.status().ToString();
  ASSERT_TRUE(core.Apply(u3->package).ok());
  ASSERT_NE(KernelImage(*machine), first_two);

  // Each update patches one function, so each undo restores one
  // trampoline: the second restore belongs to the second undo (all-2).
  ASSERT_TRUE(ks::Faults().Configure("ksplice.undo.restore=nth:2").ok());
  ks::Result<std::vector<UndoReport>> failed = core.UndoAll();
  EXPECT_FALSE(failed.ok());
  EXPECT_EQ(core.AppliedIds(), (std::vector<std::string>{"all-1", "all-2"}));
  EXPECT_EQ(KernelImage(*machine), first_two);

  ks::Faults().Reset();
  ks::Result<std::vector<UndoReport>> undone = core.UndoAll();
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  ASSERT_EQ(undone->size(), 2u);
  EXPECT_EQ((*undone)[0].id, "all-2");
  EXPECT_EQ((*undone)[1].id, "all-1");
  EXPECT_TRUE(core.AppliedIds().empty());
  EXPECT_EQ(KernelImage(*machine), boot);
}

}  // namespace
}  // namespace ksplice
