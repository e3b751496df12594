// Integration tests for the Ksplice core: create -> run-pre match -> apply
// -> undo, on a live simulated kernel. Covers the paper's §3-§5 behaviours:
// pre-post differencing, ambiguous local symbols, inlining, header
// prototype changes, static locals (state preservation!), custom hooks,
// quiescence aborts, stacking, assembly units, and data-change rejection.

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "base/strings.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kcc/preprocess.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/prepost.h"
#include "kvm/machine.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

// ------------------------------------------------------------------------
// The miniature kernel used throughout these tests.

SourceTree TestKernelTree() {
  SourceTree tree;
  tree.Write("kapi.h", R"(
int check_access(int uid, int requested);
int ca_get_value(int idx);
int dst_get_value(int idx);
int compute_sum(int a, int b);
int slow_op(int n);
int count_events(int delta);
int check_limit(int v);
int fast_syscall();
int narrow_channel(char c);
)");

  // The "vulnerable" access check (patched by most tests).
  tree.Write("sys/vuln.kc", R"(
int check_access(int uid, int requested) {
  if (requested > 100) {
    return 1;
  }
  if (uid == 0) {
    return 1;
  }
  return 0;
}
)");

  // Two units with identically-named file-scope statics (the paper's
  // dst.c / dst_ca.c "debug" ambiguity, §6.3).
  tree.Write("drv/dst.kc", R"(
static int debug = 5;
int dst_get_value(int idx) {
  if (debug > 0) {
    return idx + debug;
  }
  return idx;
}
)");
  tree.Write("drv/dst_ca.kc", R"(
static int debug = 7;
int ca_get_value(int idx) {
  if (debug > 0) {
    return idx + debug;
  }
  return idx;
}
)");

  // A tiny callee that the compiler inlines into its caller (§4.2).
  tree.Write("lib/math.kc", R"(
int helper_small(int x) {
  return x + 1;
}
int compute_sum(int a, int b) {
  return helper_small(a) + helper_small(b);
}
)");

  // A function threads can sleep inside (quiescence tests). Padded past
  // the inline threshold.
  tree.Write("sys/slow.kc", R"(
int slow_stat_a; int slow_stat_b; int slow_stat_c; int slow_stat_d;
int slow_op(int n) {
  slow_stat_a += 1; slow_stat_b += 2; slow_stat_c += 3; slow_stat_d += 4;
  slow_stat_a += slow_stat_b; slow_stat_c += slow_stat_d;
  sleep(n);
  slow_stat_b += slow_stat_c;
  return 7;
}
)");

  // Function-scope static (state must survive hot updates).
  tree.Write("sys/counter.kc", R"(
int count_events(int delta) {
  static int total = 0;
  total += delta;
  return total;
}
)");

  // A limit check whose data init a buggy patch wants to change.
  tree.Write("sys/limits.kc", R"(
int limit = 100;
int check_limit(int v) {
  if (v > limit) {
    return 1;
  }
  return 0;
}
)");

  // A prototype that narrows its argument (header-change tests).
  tree.Write("sys/narrow.kc", R"(
#include "kapi.h"
int narrow_channel(char c) {
  return c + 1;
}
)");

  // A pure assembly unit with a unit-local data symbol (the ia32entry.S
  // analogue, §6.3).
  tree.Write("sys/entry.kvs", R"(
.text
.global fast_syscall
fast_syscall:
    push fp
    mov fp, sp
    mov r0, =syscall_count
    load r1, [r0]
    add r1, 1
    store [r0], r1
    mov r0, 1
    mov sp, fp
    pop fp
    ret
.data
syscall_count:
    .word 0
)");

  // Probe entry points used by tests to observe kernel behaviour.
  tree.Write("sys/probes.kc", R"(
#include "kapi.h"
void probe_access(int requested) { record(200, check_access(1000, requested)); }
void probe_ca(int idx) { record(201, ca_get_value(idx)); }
void probe_dst(int idx) { record(202, dst_get_value(idx)); }
void probe_sum(int unused) { record(203, compute_sum(20, 21)); }
void probe_slow(int n) { record(204, slow_op(n)); }
void probe_count(int d) { record(205, count_events(d)); }
void probe_limit(int v) { record(206, check_limit(v)); }
void probe_asm(int unused) { record(207, fast_syscall()); }
void probe_narrow(int v) { record(208, narrow_channel(v)); }
)");
  return tree;
}

kcc::CompileOptions RunBuildOptions() {
  // The running kernel is built monolithically, like the distribution
  // kernels in the paper's evaluation ("None of the original binary
  // kernels ... had -ffunction-sections enabled", §6.3).
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

std::unique_ptr<kvm::Machine> BootTree(const SourceTree& tree) {
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, RunBuildOptions());
  EXPECT_TRUE(objects.ok()) << objects.status().ToString();
  if (!objects.ok()) {
    return nullptr;
  }
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok()) << machine.status().ToString();
  return machine.ok() ? std::move(machine).value() : nullptr;
}

// Runs probe `name(arg)` to completion and returns the value it recorded
// under `key`.
uint32_t Probe(kvm::Machine& machine, const std::string& name, uint32_t arg,
               uint32_t key) {
  size_t before = machine.RecordsWithKey(key).size();
  EXPECT_TRUE(machine.SpawnNamed(name, arg).ok());
  EXPECT_TRUE(machine.RunToCompletion().ok());
  std::vector<uint32_t> records = machine.RecordsWithKey(key);
  EXPECT_EQ(records.size(), before + 1) << name;
  return records.empty() ? 0xdeadbeef : records.back();
}

// Builds an update package for `patch` against `tree`.
ks::Result<CreateResult> Create(const SourceTree& tree,
                                const std::string& patch,
                                const std::string& id = "test-update") {
  CreateOptions options;
  options.compile = RunBuildOptions();
  options.id = id;
  return CreateUpdate(tree, patch, options);
}

// Produces the unified diff between `tree` and a copy with `path` edited by
// replacing `from` with `to` (first occurrence).
std::string EditPatch(const SourceTree& tree, const std::string& path,
                      const std::string& from, const std::string& to) {
  SourceTree post = tree;
  std::string contents = *tree.Read(path);
  size_t at = contents.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  contents.replace(at, from.size(), to);
  post.Write(path, contents);
  return kdiff::MakeUnifiedDiff(tree, post);
}

class KspliceIntegration : public ::testing::Test {
 protected:
  void SetUp() override {
    tree_ = TestKernelTree();
    machine_ = BootTree(tree_);
    ASSERT_NE(machine_, nullptr);
    core_ = std::make_unique<KspliceCore>(machine_.get());
  }

  SourceTree tree_;
  std::unique_ptr<kvm::Machine> machine_;
  std::unique_ptr<KspliceCore> core_;
};

// ------------------------------------------------------------------------

TEST_F(KspliceIntegration, CreateProducesWellFormedPackage) {
  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const UpdatePackage& pkg = created->package;
  EXPECT_EQ(pkg.id, "test-update");
  ASSERT_EQ(pkg.targets.size(), 1u);
  EXPECT_EQ(pkg.targets[0].unit, "sys/vuln.kc");
  EXPECT_EQ(pkg.targets[0].symbol, "check_access");
  ASSERT_EQ(pkg.helper_objects.size(), 1u);
  // Helper carries the whole unit, not just the changed function.
  EXPECT_NE(pkg.helper_objects[0].SectionByName(".text.check_access"),
            nullptr);
  ASSERT_EQ(pkg.primary_objects.size(), 1u);
  EXPECT_NE(pkg.primary_objects[0].SectionByName(".text.check_access"),
            nullptr);

  // Serialization round trip.
  std::vector<uint8_t> bytes = pkg.Serialize();
  ks::Result<UpdatePackage> parsed = UpdatePackage::Parse(bytes);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
  EXPECT_EQ(parsed->Serialize(), bytes);
  EXPECT_EQ(parsed->targets.size(), 1u);
}

TEST_F(KspliceIntegration, ApplyFixesVulnerabilityWithoutReboot) {
  // Exploit works before the update...
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 1u);

  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  // ...and stops working after, on the same running machine.
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);
  // Legitimate behaviour unchanged.
  EXPECT_EQ(Probe(*machine_, "probe_access", 50, 200), 0u);
  // The update is registered.
  ASSERT_EQ(core_->applied().size(), 1u);
  EXPECT_EQ(core_->applied()[0].functions.size(), 1u);
}

TEST_F(KspliceIntegration, UndoRestoresOriginalBehaviour) {
  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(core_->Apply(created->package).ok());
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);

  ks::Result<UndoReport> undone = core_->Undo("test-update");
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 1u);
  EXPECT_TRUE(core_->applied().empty());
}

TEST_F(KspliceIntegration, DoubleApplyAndBadUndoFail) {
  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok());
  ASSERT_TRUE(core_->Apply(created->package).ok());
  EXPECT_EQ(core_->Apply(created->package).status().code(),
            ks::ErrorCode::kAlreadyExists);
  EXPECT_EQ(core_->Undo("nonexistent").status().code(),
            ks::ErrorCode::kFailedPrecondition);
}

TEST_F(KspliceIntegration, RunPreAbortsOnWrongSource) {
  // "Original" source that does NOT correspond to the running kernel
  // (paper §4.2: protect against a user providing wrong source).
  SourceTree wrong = tree_;
  std::string contents = *wrong.Read("sys/vuln.kc");
  size_t at = contents.find("uid == 0");
  ASSERT_NE(at, std::string::npos);
  contents.replace(at, 8, "uid == 1");
  wrong.Write("sys/vuln.kc", contents);

  std::string patch = EditPatch(wrong, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(wrong, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kAborted);
  EXPECT_NE(applied.status().message().find("run-pre"), std::string::npos);
  // Nothing was left loaded.
  EXPECT_EQ(core_->applied().size(), 0u);
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 1u);
}

TEST_F(KspliceIntegration, AmbiguousLocalSymbolResolvedByRunPre) {
  // Patch dst_ca.kc's function, which references *its* `debug` — a name
  // defined by two units (§4.1, CVE-2005-4639 analogue). Resolution must
  // bind the dst_ca copy: idx*debug with debug==7, not dst's 5.
  EXPECT_EQ(Probe(*machine_, "probe_ca", 10, 201), 17u);  // 10 + 7
  std::string patch = EditPatch(tree_, "drv/dst_ca.kc",
                                "return idx + debug;", "return idx * debug;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(Probe(*machine_, "probe_ca", 10, 201), 70u);  // 10 * 7: dst_ca's debug
  // dst.kc untouched.
  EXPECT_EQ(Probe(*machine_, "probe_dst", 10, 202), 15u);
}

TEST_F(KspliceIntegration, PatchingInlinedFunctionReplacesCallersToo) {
  // helper_small is inlined into compute_sum (it lacks the `inline`
  // keyword); patching it must replace compute_sum as well (§4.2).
  EXPECT_EQ(Probe(*machine_, "probe_sum", 0, 203), 43u);  // 21 + 22
  std::string patch = EditPatch(tree_, "lib/math.kc", "return x + 1;",
                                "return x + 2;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::vector<std::string> target_symbols;
  for (const Target& target : created->package.targets) {
    target_symbols.push_back(target.symbol);
  }
  EXPECT_NE(std::find(target_symbols.begin(), target_symbols.end(),
                      "compute_sum"),
            target_symbols.end())
      << "caller that inlined the patched function must be a target";
  EXPECT_NE(std::find(target_symbols.begin(), target_symbols.end(),
                      "helper_small"),
            target_symbols.end());

  ASSERT_TRUE(core_->Apply(created->package).ok());
  EXPECT_EQ(Probe(*machine_, "probe_sum", 0, 203), 45u);  // 22 + 23
}

TEST_F(KspliceIntegration, HeaderPrototypeChangeUpdatesCallers) {
  // §3.1: widening narrow_channel's parameter from char to int changes the
  // *callers'* object code (the truncation disappears) though their source
  // is untouched.
  EXPECT_EQ(Probe(*machine_, "probe_narrow", 300, 208), 45u);  // (300&0xff)+1
  SourceTree post = tree_;
  post.Write("kapi.h", [&] {
    std::string h = *tree_.Read("kapi.h");
    size_t at = h.find("int narrow_channel(char c);");
    EXPECT_NE(at, std::string::npos);
    h.replace(at, std::string("int narrow_channel(char c);").size(),
              "int narrow_channel(int c);");
    return h;
  }());
  post.Write("sys/narrow.kc", [&] {
    std::string c = *tree_.Read("sys/narrow.kc");
    size_t at = c.find("int narrow_channel(char c)");
    EXPECT_NE(at, std::string::npos);
    c.replace(at, std::string("int narrow_channel(char c)").size(),
              "int narrow_channel(int c)");
    return c;
  }());
  std::string patch = kdiff::MakeUnifiedDiff(tree_, post);

  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  // The probe unit includes kapi.h, so its caller is rebuilt and changed.
  bool probe_unit_rebuilt = false;
  for (const std::string& unit : created->prepost.rebuilt_units) {
    if (unit == "sys/probes.kc") {
      probe_unit_rebuilt = true;
    }
  }
  EXPECT_TRUE(probe_unit_rebuilt);
  bool caller_target = false;
  for (const Target& target : created->package.targets) {
    if (target.symbol == "probe_narrow") {
      caller_target = true;
    }
  }
  EXPECT_TRUE(caller_target)
      << "caller's object code changed via the header; it must be spliced";

  ASSERT_TRUE(core_->Apply(created->package).ok());
  EXPECT_EQ(Probe(*machine_, "probe_narrow", 300, 208), 301u);
}

TEST_F(KspliceIntegration, StaticLocalStateSurvivesHotUpdate) {
  // check_access-style patches never reset state: the replacement code
  // must bind the *existing* static storage (total.1), mid-count.
  EXPECT_EQ(Probe(*machine_, "probe_count", 5, 205), 5u);
  EXPECT_EQ(Probe(*machine_, "probe_count", 5, 205), 10u);

  std::string patch = EditPatch(tree_, "sys/counter.kc",
                                "total += delta;", "total += delta * 2;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(core_->Apply(created->package).ok());

  // 10 (preserved) + 5*2.
  EXPECT_EQ(Probe(*machine_, "probe_count", 5, 205), 20u);
}

TEST_F(KspliceIntegration, DataInitChangeIsRejectedAtCreate) {
  std::string patch =
      EditPatch(tree_, "sys/limits.kc", "int limit = 100;",
                "int limit = 50;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), ks::ErrorCode::kFailedPrecondition);
  EXPECT_NE(created.status().message().find("data"), std::string::npos);
}

TEST_F(KspliceIntegration, CustomApplyHookChangesDataAtomically) {
  // The Table-1 pattern: instead of changing the initializer, the revised
  // patch adds custom code run while the machine is stopped (§5.3).
  EXPECT_EQ(Probe(*machine_, "probe_limit", 80, 206), 0u);  // 80 <= 100
  SourceTree post = tree_;
  std::string contents = *tree_.Read("sys/limits.kc");
  size_t at = contents.find("if (v > limit) {");
  ASSERT_NE(at, std::string::npos);
  contents.replace(at, std::string("if (v > limit) {").size(),
                   "if (v >= limit) {");
  contents +=
      "void fix_limit() {\n"
      "  limit = 50;\n"
      "}\n"
      "ksplice_apply(fix_limit);\n";
  post.Write("sys/limits.kc", contents);
  std::string patch = kdiff::MakeUnifiedDiff(tree_, post);

  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ASSERT_EQ(core_->applied().size(), 1u);
  EXPECT_EQ(core_->applied()[0].hooks.apply.size(), 1u);

  EXPECT_EQ(Probe(*machine_, "probe_limit", 80, 206), 1u);  // 80 >= 50
  EXPECT_EQ(Probe(*machine_, "probe_limit", 30, 206), 0u);
}

TEST_F(KspliceIntegration, NonQuiescentFunctionAbortsThenSucceeds) {
  // A thread is asleep inside slow_op; the update must abort (§5.2), and
  // succeed once the thread has left.
  ASSERT_TRUE(machine_->SpawnNamed("probe_slow", 500'000).ok());
  ASSERT_TRUE(machine_->Run(10'000).ok());  // let it reach the sleep

  std::string patch =
      EditPatch(tree_, "sys/slow.kc", "return 7;", "return 8;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  ApplyOptions options;
  options.rendezvous.max_attempts = 3;
  options.rendezvous.backoff_base_ticks = 1'000;
  options.rendezvous.backoff_max_ticks = 1'000;
  options.rendezvous.backoff_jitter = 0.0;
  ks::Result<ApplyReport> applied = core_->Apply(created->package, options);
  ASSERT_FALSE(applied.ok());
  EXPECT_EQ(applied.status().code(), ks::ErrorCode::kResourceExhausted);
  EXPECT_NE(applied.status().message().find("in use"), std::string::npos);
  // The exhaustion report names the blocking thread and its pc.
  EXPECT_NE(applied.status().message().find("thread"), std::string::npos);
  EXPECT_NE(applied.status().message().find("pc 0x"), std::string::npos);

  // Let the sleeper finish; the old code records 7.
  ASSERT_TRUE(machine_->RunToCompletion().ok());
  EXPECT_EQ(machine_->RecordsWithKey(204).back(), 7u);

  ks::Result<ApplyReport> retried = core_->Apply(created->package, options);
  ASSERT_TRUE(retried.ok()) << retried.status().ToString();
  EXPECT_EQ(Probe(*machine_, "probe_slow", 10, 204), 8u);
}

TEST_F(KspliceIntegration, StackedUpdatesAndOutOfOrderUndo) {
  // Update 1.
  std::string patch1 = EditPatch(tree_, "sys/vuln.kc",
                                 "if (requested > 100) {\n    return 1;",
                                 "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created1 = Create(tree_, patch1, "update-1");
  ASSERT_TRUE(created1.ok());
  ASSERT_TRUE(core_->Apply(created1->package).ok());
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);

  // Update 2 is created from the previously-patched source (§5.4).
  ks::Result<SourceTree> patched_tree = kdiff::ApplyUnifiedDiff(tree_, patch1);
  ASSERT_TRUE(patched_tree.ok());
  std::string patch2 =
      EditPatch(*patched_tree, "sys/vuln.kc", "if (uid == 0) {\n    return 1;",
                "if (uid == 0) {\n    return 2;");
  CreateOptions create_options;
  create_options.compile = RunBuildOptions();
  create_options.id = "update-2";
  ks::Result<CreateResult> created2 =
      CreateUpdate(*patched_tree, patch2, create_options);
  ASSERT_TRUE(created2.ok()) << created2.status().ToString();
  ks::Result<ApplyReport> applied2 = core_->Apply(created2->package);
  ASSERT_TRUE(applied2.ok()) << applied2.status().ToString();

  // Both changes visible: uid-0 path now returns 2, big-request path 0.
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);
  // probe_access uses uid 1000; exercise uid 0 via a direct thread: not
  // available — check the second change indirectly by undo semantics.

  // Out-of-order undo (§5.4): update-1 leaves the middle of the stack.
  // update-2 matched update-1's replacement code, so its stacked record is
  // re-pointed at what update-1 had replaced (chain rewriting) and its
  // trampoline stays live.
  ks::Result<UndoReport> undone1 = core_->Undo("update-1");
  ASSERT_TRUE(undone1.ok()) << undone1.status().ToString();
  EXPECT_TRUE(undone1->out_of_order);
  EXPECT_EQ(undone1->chains_rewritten, 1u);
  // update-2's trampoline still owns the function: it was built from the
  // patch1-patched source, so both changes remain visible.
  ASSERT_EQ(core_->applied().size(), 1u);
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);
  // Undoing update-2 now restores the *original* bytes (the rewritten
  // chain carries update-1's saved bytes).
  ks::Result<UndoReport> undone2 = core_->Undo("update-2");
  ASSERT_TRUE(undone2.ok()) << undone2.status().ToString();
  EXPECT_FALSE(undone2->out_of_order);
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 1u);  // original
}

TEST_F(KspliceIntegration, AssemblyUnitPatch) {
  // §6.3's ia32entry.S case: a patch to a pure assembly file goes through
  // the same machinery, including a scoped local data symbol.
  EXPECT_EQ(Probe(*machine_, "probe_asm", 0, 207), 1u);
  std::string patch =
      EditPatch(tree_, "sys/entry.kvs", "mov r0, 1", "mov r0, 2");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_EQ(created->package.targets.size(), 1u);
  EXPECT_EQ(created->package.targets[0].symbol, "fast_syscall");
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(Probe(*machine_, "probe_asm", 0, 207), 2u);
  // The local counter kept counting in place: two calls so far.
  // (fast_syscall increments syscall_count; value not directly probed, but
  // a run-pre resolution failure would have failed the apply.)
}

TEST_F(KspliceIntegration, HelperUnloadReclaimsMemory) {
  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok());

  ApplyOptions options;
  options.keep_helper = true;
  uint32_t before = machine_->ModuleArenaBytesInUse();
  ASSERT_TRUE(core_->Apply(created->package, options).ok());
  uint32_t with_helper = machine_->ModuleArenaBytesInUse();
  EXPECT_GT(with_helper, before);

  ASSERT_TRUE(core_->UnloadHelper("test-update").ok());
  uint32_t without_helper = machine_->ModuleArenaBytesInUse();
  EXPECT_LT(without_helper, with_helper);
  EXPECT_GT(without_helper, before);  // primary stays
  // Double unload fails.
  EXPECT_FALSE(core_->UnloadHelper("test-update").ok());
}

// The §2 overhead claim: a replaced function costs one jump per call. The
// loop kernel is bench_trampoline_overhead's; `sink` is zeroed before each
// run so the patched and unpatched loops take the same branches.
TEST(TrampolineOverheadTest, PatchedCallRetiresExactlyOneMoreInstruction) {
  SourceTree tree;
  tree.Write("loop.kc", R"(
int sink = 0;
int work_item(int x) {
  sink = sink + x;
  if (sink > 1000000) {
    sink = 0;
  }
  sink = sink ^ x;
  sink = sink + 3;
  sink = sink * 2;
  sink = sink - x;
  if (sink < 0) {
    sink = 1;
  }
  return sink;
}
void hot_loop(int n) {
  int i = 0;
  while (i < n) {
    work_item(i);
    i++;
  }
  record(700, sink);
}
)");
  std::unique_ptr<kvm::Machine> machine = BootTree(tree);
  ASSERT_NE(machine, nullptr);
  ks::Result<uint32_t> sink = machine->GlobalSymbol("sink");
  ASSERT_TRUE(sink.ok());
  auto ticks = [&](uint32_t n) {
    EXPECT_TRUE(machine->WriteWord(*sink, 0).ok());
    uint64_t before = machine->Ticks();
    EXPECT_TRUE(machine->SpawnNamed("hot_loop", n).ok());
    EXPECT_TRUE(machine->RunToCompletion().ok());
    return machine->Ticks() - before;
  };
  const uint32_t calls[] = {0, 1, 10, 10'000};
  std::vector<uint64_t> unpatched;
  for (uint32_t n : calls) {
    unpatched.push_back(ticks(n));
  }

  ks::Result<CreateResult> created =
      Create(tree, EditPatch(tree, "loop.kc",
                             "  sink = sink + 3;\n  sink = sink * 2;",
                             "  sink = sink * 2;\n  sink = sink + 6;"));
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  KspliceCore core(machine.get());
  ASSERT_TRUE(core.Apply(created->package).ok());
  for (size_t i = 0; i < std::size(calls); ++i) {
    EXPECT_EQ(ticks(calls[i]), unpatched[i] + calls[i])
        << "hot_loop(" << calls[i] << ")";
  }
}

TEST_F(KspliceIntegration, NoOpPatchIsRejected) {
  // A comment-only change produces no object code difference.
  std::string patch = EditPatch(tree_, "sys/vuln.kc", "int check_access",
                                "/* audited */ int check_access");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), ks::ErrorCode::kFailedPrecondition);
}

TEST_F(KspliceIntegration, UpdateWhileWorkloadRuns) {
  // Hot update with a stress workload in flight: no faults, behaviour
  // flips, workload completes (§6.2's correctness criterion).
  tree_ = TestKernelTree();  // (machine_ already booted from it)
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(machine_->SpawnNamed("probe_access", 150).ok());
    ASSERT_TRUE(machine_->SpawnNamed("probe_sum", 0).ok());
    ASSERT_TRUE(machine_->SpawnNamed("probe_dst", 1).ok());
  }
  ASSERT_TRUE(machine_->Run(3'000).ok());  // some probes mid-flight

  std::string patch = EditPatch(tree_, "sys/vuln.kc",
                                "if (requested > 100) {\n    return 1;",
                                "if (requested > 100) {\n    return 0;");
  ks::Result<CreateResult> created = Create(tree_, patch);
  ASSERT_TRUE(created.ok());
  ks::Result<ApplyReport> applied = core_->Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();

  ASSERT_TRUE(machine_->RunToCompletion().ok());
  EXPECT_TRUE(machine_->Faults().empty());
  // After the dust settles, fresh probes see the new behaviour.
  EXPECT_EQ(Probe(*machine_, "probe_access", 150, 200), 0u);
}

// ------------------------------------------------------------------------
// The rebuild set: RunPrePost picks units from two include graphs. The
// oracle below is the direct algorithm — preprocess every unit on both
// trees — which the graphs must reproduce exactly.

std::vector<std::string> BruteForceRebuildSet(const SourceTree& pre,
                                              const kdiff::Patch& patch) {
  ks::Result<SourceTree> post = kdiff::ApplyPatch(pre, patch);
  EXPECT_TRUE(post.ok()) << post.status().ToString();
  if (!post.ok()) {
    return {};
  }
  std::vector<std::string> paths = patch.TouchedPaths();
  std::set<std::string> touched(paths.begin(), paths.end());
  std::set<std::string> rebuilt;
  for (const SourceTree* tree : {&pre, static_cast<const SourceTree*>(&*post)}) {
    for (const std::string& unit : tree->Paths()) {
      if (!kcc::IsCompilationUnit(unit)) {
        continue;
      }
      std::vector<std::string> closure{unit};
      if (ks::EndsWith(unit, ".kc")) {
        ks::Result<kcc::PreprocessedSource> src = kcc::Preprocess(*tree, unit);
        if (!src.ok()) {
          rebuilt.insert(unit);
          continue;
        }
        closure.insert(closure.end(), src->includes.begin(),
                       src->includes.end());
      }
      for (const std::string& dep : closure) {
        if (touched.count(dep) != 0) {
          rebuilt.insert(unit);
        }
      }
    }
  }
  return std::vector<std::string>(rebuilt.begin(), rebuilt.end());
}

// Everything RunPrePost decided, for comparing runs.
std::string Describe(const PrePostResult& result) {
  std::string out = ks::Join(result.rebuilt_units, ",") + "\n";
  for (const ChangedSection& change : result.changed) {
    out += ks::StrPrintf("%s %s %d %d %s\n", change.unit.c_str(),
                         change.name.c_str(), static_cast<int>(change.kind),
                         static_cast<int>(change.change),
                         change.symbol.c_str());
  }
  for (const auto* objects : {&result.pre_objects, &result.post_objects}) {
    for (const kelf::ObjectFile& obj : *objects) {
      std::vector<uint8_t> bytes = obj.Serialize();
      out.append(bytes.begin(), bytes.end());
    }
  }
  return out;
}

// Runs RunPrePost at -j 1 and -j 4 (each with a fresh object cache, so the
// cached compiles are keyed by the graph's closures), checks the rebuild
// set against the oracle and the two runs against each other, and returns
// the -j 1 result.
ks::Result<PrePostResult> CheckRebuildSet(const SourceTree& pre,
                                          const std::string& diff,
                                          kcc::CompileOptions options) {
  KS_ASSIGN_OR_RETURN(kdiff::Patch patch, kdiff::ParseUnifiedDiff(diff));
  kcc::ObjectCache serial_cache;
  options.cache = &serial_cache;
  options.jobs = 1;
  KS_ASSIGN_OR_RETURN(PrePostResult serial, RunPrePost(pre, patch, options));
  kcc::ObjectCache parallel_cache;
  options.cache = &parallel_cache;
  options.jobs = 4;
  KS_ASSIGN_OR_RETURN(PrePostResult parallel,
                      RunPrePost(pre, patch, options));
  EXPECT_EQ(serial.rebuilt_units, BruteForceRebuildSet(pre, patch));
  EXPECT_EQ(Describe(parallel), Describe(serial));
  return serial;
}

bool Contains(const std::vector<std::string>& list, const std::string& item) {
  return std::find(list.begin(), list.end(), item) != list.end();
}

TEST(RebuildSetTest, MatchesPreprocessOracleOnAllSixtyFourCves) {
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    SCOPED_TRACE(vuln.cve);
    ks::Result<std::string> patch = corpus::AmendedPatchFor(vuln);
    ASSERT_TRUE(patch.ok()) << patch.status().ToString();
    ks::Result<PrePostResult> result = CheckRebuildSet(
        corpus::KernelSource(), *patch, corpus::RunBuildOptions());
    ASSERT_TRUE(result.ok()) << result.status().ToString();
    EXPECT_FALSE(result->rebuilt_units.empty());
  }
}

TEST(RebuildSetTest, HeaderOnlyPrototypeChangeRebuildsIncluders) {
  // §3.1: only kapi.h changes; every unit that includes it is rebuilt.
  SourceTree tree = TestKernelTree();
  std::string patch = EditPatch(tree, "kapi.h", "int narrow_channel(char c);",
                                "int narrow_channel(int c);");
  ks::Result<PrePostResult> result =
      CheckRebuildSet(tree, patch, RunBuildOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rebuilt_units,
            (std::vector<std::string>{"sys/narrow.kc", "sys/probes.kc"}));
}

TEST(RebuildSetTest, HeaderCreatedAndReachedThroughAnEditedHeader) {
  // new.h exists only after the patch and is reached only through kapi.h's
  // new include line, i.e. only through the rescanned post graph.
  SourceTree tree = TestKernelTree();
  SourceTree post = tree;
  post.Write("new.h", "int probe_extra(int x);\n");
  post.Write("kapi.h", "#include \"new.h\"\n" + *tree.Read("kapi.h"));
  ks::Result<PrePostResult> result = CheckRebuildSet(
      tree, kdiff::MakeUnifiedDiff(tree, post), RunBuildOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rebuilt_units,
            (std::vector<std::string>{"sys/narrow.kc", "sys/probes.kc"}));
  ks::Result<std::vector<std::string>> closure =
      kcc::IncludeClosure(post, "sys/probes.kc");
  ASSERT_TRUE(closure.ok()) << closure.status().ToString();
  EXPECT_TRUE(Contains(*closure, "new.h"));
}

TEST(RebuildSetTest, DeletedHeaderStillIncludedFailsCreate) {
  SourceTree tree = TestKernelTree();
  SourceTree post = tree;
  post.Remove("kapi.h");
  std::string diff = kdiff::MakeUnifiedDiff(tree, post);
  ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  std::vector<std::string> want = BruteForceRebuildSet(tree, *patch);
  EXPECT_TRUE(Contains(want, "sys/probes.kc"));
  for (int jobs : {1, 4}) {
    kcc::ObjectCache cache;
    kcc::CompileOptions options = RunBuildOptions();
    options.jobs = jobs;
    options.cache = &cache;
    ks::Result<PrePostResult> result = RunPrePost(tree, *patch, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), ks::ErrorCode::kNotFound);
    EXPECT_EQ(result.status().message(),
              "post build: preprocess: no such file: kapi.h");
  }
  // The same status through the whole create pipeline, uncached.
  ks::Result<CreateResult> created = Create(tree, diff);
  ASSERT_FALSE(created.ok());
  EXPECT_EQ(created.status().code(), ks::ErrorCode::kNotFound);
  EXPECT_EQ(created.status().message(),
            "post build: preprocess: no such file: kapi.h");
}

TEST(RebuildSetTest, UntouchedUnitWithBrokenIncludesIsRebuiltAndReported) {
  // A unit whose closure fails goes to the build, whose error names the
  // missing file, even when the patch touches nothing it includes.
  SourceTree tree = TestKernelTree();
  tree.Write("sys/broken.kc", "#include \"ghost.h\"\nint broken;\n");
  std::string diff = EditPatch(tree, "sys/vuln.kc", "requested > 100",
                               "requested > 99");
  ks::Result<kdiff::Patch> patch = kdiff::ParseUnifiedDiff(diff);
  ASSERT_TRUE(patch.ok()) << patch.status().ToString();
  EXPECT_EQ(BruteForceRebuildSet(tree, *patch),
            (std::vector<std::string>{"sys/broken.kc", "sys/vuln.kc"}));
  ks::Result<PrePostResult> result =
      RunPrePost(tree, *patch, RunBuildOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), ks::ErrorCode::kNotFound);
  EXPECT_EQ(result.status().message(),
            "pre build: preprocess: no such file: ghost.h");
}

TEST(RebuildSetTest, CreatedDeletedAndAssemblyUnits) {
  SourceTree tree = TestKernelTree();
  SourceTree post = tree;
  post.Write("sys/fresh.kc",
             "#include \"kapi.h\"\nint fresh_op(int x) { return x + 1; }\n");
  post.Remove("sys/limits.kc");
  post.Write("sys/entry.kvs", [&] {
    std::string asm_text = *tree.Read("sys/entry.kvs");
    size_t at = asm_text.find("mov r0, 1");
    EXPECT_NE(at, std::string::npos);
    asm_text.replace(at, std::string("mov r0, 1").size(), "mov r0, 2");
    return asm_text;
  }());
  ks::Result<PrePostResult> result = CheckRebuildSet(
      tree, kdiff::MakeUnifiedDiff(tree, post), RunBuildOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rebuilt_units,
            (std::vector<std::string>{"sys/entry.kvs", "sys/fresh.kc",
                                      "sys/limits.kc"}));
}

// The graph corner cases, where a build fails and RunPrePost reports no
// rebuild set: SelectRebuildSet, which RunPrePost builds from, against the
// oracle. Returns the selected units.
std::vector<std::string> ExpectSelectionMatchesOracle(const SourceTree& pre,
                                                      const SourceTree& post) {
  ks::Result<kdiff::Patch> patch =
      kdiff::ParseUnifiedDiff(kdiff::MakeUnifiedDiff(pre, post));
  EXPECT_TRUE(patch.ok()) << patch.status().ToString();
  if (!patch.ok()) {
    return {};
  }
  std::vector<std::string> units;
  for (const RebuildUnit& unit :
       SelectRebuildSet(pre, post, patch->TouchedPaths())) {
    units.push_back(unit.unit);
  }
  EXPECT_EQ(units, BruteForceRebuildSet(pre, *patch));
  return units;
}

// `deep.kc` reaches a chain of 33 headers through the touched `t.h`, so its
// closure is too deep on both sides. Untouched units include the chain at
// depths 1, 2 and 3: only the first passes the nesting limit.
TEST(RebuildSetTest, IncludeChainDeeperThanTheLimitThroughATouchedHeader) {
  SourceTree pre;
  pre.Write("deep.kc", "#include \"t.h\"\nint deep;\n");
  pre.Write("t.h", "#include \"c1.h\"\n");
  for (int i = 1; i <= 33; ++i) {
    pre.Write(ks::StrPrintf("c%d.h", i),
              i < 33 ? ks::StrPrintf("#include \"c%d.h\"\n", i + 1)
                     : std::string("int last;\n"));
  }
  pre.Write("far.kc", "#include \"c1.h\"\nint far;\n");
  pre.Write("near.kc", "#include \"c2.h\"\nint near;\n");
  pre.Write("nearer.kc", "#include \"c3.h\"\nint nearer;\n");
  SourceTree post = pre;
  post.Write("t.h", "#include \"c1.h\"\nint t;\n");
  EXPECT_EQ(ExpectSelectionMatchesOracle(pre, post),
            (std::vector<std::string>{"deep.kc", "far.kc"}));
  ks::Result<kdiff::Patch> patch =
      kdiff::ParseUnifiedDiff(kdiff::MakeUnifiedDiff(pre, post));
  ASSERT_TRUE(patch.ok());
  ks::Result<PrePostResult> result =
      RunPrePost(pre, *patch, RunBuildOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "pre build: c32.h: include nesting too deep");
}

// A cycle through the touched header rebuilds its includers; an untouched
// cycle elsewhere rebuilds nothing.
TEST(RebuildSetTest, IncludeCycleThroughATouchedHeader) {
  SourceTree pre;
  pre.Write("a.h", "#include \"b.h\"\nint a;\n");
  pre.Write("b.h", "#include \"a.h\"\nint b;\n");
  pre.Write("c.h", "#include \"d.h\"\nint c;\n");
  pre.Write("d.h", "#include \"c.h\"\nint d;\n");
  pre.Write("u.kc", "#include \"a.h\"\nint u() { return a + b; }\n");
  pre.Write("v.kc", "#include \"d.h\"\nint v() { return c + d; }\n");
  pre.Write("w.kc", "int w() { return 0; }\n");
  SourceTree post = pre;
  post.Write("b.h", "#include \"a.h\"\nint b;\nint b2;\n");
  EXPECT_EQ(ExpectSelectionMatchesOracle(pre, post),
            std::vector<std::string>{"u.kc"});
  ks::Result<PrePostResult> result = CheckRebuildSet(
      pre, kdiff::MakeUnifiedDiff(pre, post), RunBuildOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rebuilt_units, std::vector<std::string>{"u.kc"});
}

TEST(RebuildSetTest, TouchedHeaderNoUnitIncludesRebuildsNothing) {
  SourceTree pre = TestKernelTree();
  pre.Write("orphan.h", "int orphan(int x);\n");
  SourceTree post = pre;
  post.Write("orphan.h", "int orphan(char x);\n");
  EXPECT_EQ(ExpectSelectionMatchesOracle(pre, post),
            std::vector<std::string>{});
  ks::Result<PrePostResult> result = CheckRebuildSet(
      pre, kdiff::MakeUnifiedDiff(pre, post), RunBuildOptions());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_TRUE(result->rebuilt_units.empty());
}

// The touched `h.h` gains an include of `ghost.h`, which neither tree has:
// `u.kc` is untouched and its closure fails on the post side only.
TEST(RebuildSetTest, IncludeMissingOnThePostSideOnly) {
  SourceTree pre;
  pre.Write("h.h", "int h;\n");
  pre.Write("u.kc", "#include \"h.h\"\nint u() { return h; }\n");
  pre.Write("x.kc", "int x() { return 1; }\n");
  SourceTree post = pre;
  post.Write("h.h", "#include \"ghost.h\"\nint h;\n");
  EXPECT_EQ(ExpectSelectionMatchesOracle(pre, post),
            std::vector<std::string>{"u.kc"});
  ks::Result<kdiff::Patch> patch =
      kdiff::ParseUnifiedDiff(kdiff::MakeUnifiedDiff(pre, post));
  ASSERT_TRUE(patch.ok());
  ks::Result<PrePostResult> result =
      RunPrePost(pre, *patch, RunBuildOptions());
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().message(),
            "post build: preprocess: no such file: ghost.h");
}

}  // namespace
}  // namespace ksplice
