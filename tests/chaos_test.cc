// Chaos harness: drive every fault site wired into the tree (KS_FAULT_POINT,
// base/faultinject.h) through real apply/undo/batch workloads and assert the
// paper's core safety claim each time — a failed operation leaves the kernel
// byte-identical and the update registry consistent, and a subsequent clean
// operation succeeds. Three layers:
//
//   1. FaultInjector unit tests: plan grammar, modes, seeding, suppression.
//   2. Site-catalog coverage: one full create/serialize/boot/apply/undo
//      cycle must hit every site in KnownFaultSites().
//   3. Chaos proper: a per-site nth:1/nth:2 sweep over apply and undo, plus
//      seeded randomized rounds arming site combinations over random
//      apply/undo/batch sequences (KSPLICE_CHAOS_SEED reproduces a run).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "base/faultinject.h"
#include "base/hash.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/quarantine.h"
#include "ksplice/watchdog.h"
#include "kvm/machine.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

// The injector is process-global; every test starts and ends disarmed.
class ChaosTest : public ::testing::Test {
 protected:
  void SetUp() override { ks::Faults().Reset(); }
  void TearDown() override { ks::Faults().Reset(); }
};
using FaultInjectorTest = ChaosTest;
using ObjCacheChaosTest = ChaosTest;
using RendezvousChaosTest = ChaosTest;

kcc::CompileOptions Monolithic() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

// Three independently patchable units (ops padded past the inline
// threshold so patches stay localized).
SourceTree TriKernel() {
  SourceTree tree;
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
                                const std::string& id,
                                kcc::ObjectCache* cache = nullptr) {
  CreateOptions options;
  options.compile = Monolithic();
  options.compile.cache = cache;
  options.id = id;
  return CreateUpdate(tree, patch, options);
}

uint32_t Probe(kvm::Machine& machine, const std::string& probe, uint32_t arg,
               uint32_t key) {
  EXPECT_TRUE(machine.SpawnNamed(probe, arg).ok());
  EXPECT_TRUE(machine.RunToCompletion().ok());
  std::vector<uint32_t> values = machine.RecordsWithKey(key);
  EXPECT_FALSE(values.empty());
  return values.empty() ? 0 : values.back();
}

// The kernel image proper (text + data, excluding the module arena and
// stacks): the region the rollback invariant promises to leave untouched.
// Only meaningful while the injector is disarmed or suppressed — ReadBytes
// is itself a fault site.
std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
      machine.config().kernel_base,
      machine.kernel_end() - machine.config().kernel_base);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

std::vector<std::string> RegistryIds(const KspliceCore& core) {
  std::vector<std::string> ids;
  for (const AppliedUpdate& update : core.applied()) {
    ids.push_back(update.id);
  }
  return ids;
}

std::vector<std::string> StatusIds(const KspliceCore& core) {
  std::vector<std::string> ids;
  for (const UpdateStatusRow& update : core.Status().updates) {
    ids.push_back(update.id);
  }
  return ids;
}

// A two-function patch (alpha_op and alpha_probe both change) so nth:2
// sweeps can fault the second of two splice writes / restores.
ks::Result<CreateResult> CreateTwoFunctionPatch(const SourceTree& tree,
                                                const std::string& id) {
  SourceTree post;
  EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;", &post);
  std::string contents = *post.Read("alpha.kc");
  size_t at = contents.find("record(11, alpha_op(x));");
  EXPECT_NE(at, std::string::npos);
  contents.replace(at, std::string("record(11, alpha_op(x));").size(),
                   "record(11, alpha_op(x) + 1);");
  post.Write("alpha.kc", contents);
  CreateOptions options;
  options.compile = Monolithic();
  options.id = id;
  return CreateUpdate(tree, kdiff::MakeUnifiedDiff(tree, post), options);
}

// Deterministic PRNG for the randomized rounds (same core as the
// injector's, so a seed fully determines a run).
struct Rng {
  uint64_t state;
  uint64_t Below(uint64_t n) { return ks::SplitMix64(&state) % n; }
  double Unit() {
    return static_cast<double>(ks::SplitMix64(&state) >> 11) * 0x1.0p-53;
  }
};

// A seed derived from (seed, round, stream). Each round draws its plan and
// ops, and each step its fault decisions, from a stream of its own, so a
// round that takes another path shifts no other round's or step's draws.
uint64_t SubSeed(uint64_t seed, uint64_t round, uint64_t stream) {
  uint64_t state = seed;
  state = ks::SplitMix64(&state) ^ round;
  state = ks::SplitMix64(&state) ^ stream;
  return ks::SplitMix64(&state);
}

// ------------------------------------------------------ injector mechanics

TEST_F(FaultInjectorTest, PlanGrammarAcceptsFullForm) {
  ks::Status ok = ks::Faults().Configure(
      "kvm.write_bytes=nth:3,kcc.compile=prob:0.25@internal,"
      "kelf.link=always@not_found,kvm.read_bytes=once");
  ASSERT_TRUE(ok.ok()) << ok.ToString();
  EXPECT_EQ(ks::Faults().ArmedCount(), 4);
  EXPECT_TRUE(ks::Faults().Configure("kelf.link=off").ok());
  EXPECT_EQ(ks::Faults().ArmedCount(), 3);
}

TEST_F(FaultInjectorTest, BadPlansArmNothing) {
  const char* bad[] = {
      "no-equals-sign",          "site=",
      "site=wat",                "site=nth:",
      "site=nth:0",              "site=prob:1.5",
      "site=prob:x",             "site=always@bogus_code",
      "=always",                 "a=once,b=nth:zzz",
  };
  for (const char* plan : bad) {
    ks::Status st = ks::Faults().Configure(plan);
    EXPECT_FALSE(st.ok()) << "plan accepted: " << plan;
    // Rejection is atomic: even the valid clauses of a bad plan stay
    // disarmed.
    EXPECT_EQ(ks::Faults().ArmedCount(), 0) << plan;
  }
}

// A scoped plan disarms exactly the sites its plan named — `@code`
// clauses included — and leaves a site armed before the scope armed.
TEST_F(FaultInjectorTest, ScopedPlanDisarmsExactlyItsSites) {
  ASSERT_TRUE(ks::Faults().Configure("chaos.outer=always").ok());
  {
    ks::ScopedFaultPlan plan;
    ASSERT_TRUE(plan.Arm("chaos.a=always@not_found,chaos.b=nth:2").ok());
    EXPECT_EQ(ks::Faults().ArmedCount(), 3);
    EXPECT_EQ(ks::Faults().Check("chaos.a").code(),
              ks::ErrorCode::kNotFound);
  }
  EXPECT_EQ(ks::Faults().ArmedCount(), 1);
  EXPECT_TRUE(ks::Faults().Check("chaos.a").ok());
  EXPECT_TRUE(ks::Faults().Check("chaos.b").ok());
  EXPECT_TRUE(ks::Faults().Check("chaos.b").ok());
  EXPECT_FALSE(ks::Faults().Check("chaos.outer").ok());

  // A rejected plan arms nothing, so its scope exit disarms nothing.
  {
    ks::ScopedFaultPlan bad;
    EXPECT_FALSE(bad.Arm("chaos.outer=off,chaos.c=wat").ok());
  }
  EXPECT_EQ(ks::Faults().ArmedCount(), 1);
  EXPECT_FALSE(ks::Faults().Check("chaos.outer").ok());
}

TEST_F(FaultInjectorTest, NthFailsExactlyThatHitThenHeals) {
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=nth:3@aborted").ok());
  EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
  EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
  ks::Status injected = ks::Faults().Check("chaos.unit");
  ASSERT_FALSE(injected.ok());
  EXPECT_EQ(injected.code(), ks::ErrorCode::kAborted);
  EXPECT_NE(injected.message().find("chaos.unit"), std::string::npos);
  // Healed: later hits pass, and the site no longer counts as armed.
  EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
  EXPECT_EQ(ks::Faults().ArmedCount(), 0);
  EXPECT_EQ(ks::Faults().Injected("chaos.unit"), 1u);
  // Healing disarmed the last site, so the post-heal check was not
  // recorded: hit accounting only runs while something is armed.
  EXPECT_EQ(ks::Faults().Hits("chaos.unit"), 3u);
}

TEST_F(FaultInjectorTest, OnceIsNthOne) {
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=once@not_found").ok());
  ks::Status first = ks::Faults().Check("chaos.unit");
  ASSERT_FALSE(first.ok());
  EXPECT_EQ(first.code(), ks::ErrorCode::kNotFound);
  EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
}

TEST_F(FaultInjectorTest, AlwaysFailsUntilDisarmed) {
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=always").ok());
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(ks::Faults().Check("chaos.unit").code(),
              ks::ErrorCode::kInternal);
  }
  ks::Faults().Disarm("chaos.unit");
  EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
  EXPECT_EQ(ks::Faults().Injected("chaos.unit"), 5u);
}

TEST_F(FaultInjectorTest, ProbabilityIsDeterministicUnderSeed) {
  std::vector<bool> first;
  ks::Faults().SetSeed(42);
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=prob:0.5").ok());
  for (int i = 0; i < 64; ++i) {
    first.push_back(!ks::Faults().Check("chaos.unit").ok());
  }
  uint64_t injected = ks::Faults().Injected("chaos.unit");
  EXPECT_GT(injected, 0u);
  EXPECT_LT(injected, 64u);

  ks::Faults().Reset();
  ks::Faults().SetSeed(42);
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=prob:0.5").ok());
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!ks::Faults().Check("chaos.unit").ok(), first[i]) << i;
  }
}

// Each site draws its `prob:` decisions from its own stream: hits at
// another armed site leave this site's decisions unchanged.
TEST_F(FaultInjectorTest, SiteDrawsIgnoreOtherSitesHits) {
  auto draws = [](int other_hits_per_hit) {
    ks::Faults().Reset();
    ks::Faults().SetSeed(7);
    EXPECT_TRUE(
        ks::Faults().Configure("chaos.a=prob:0.5,chaos.b=prob:0.5").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      for (int j = 0; j < other_hits_per_hit; ++j) {
        (void)ks::Faults().Check("chaos.b");
      }
      fired.push_back(!ks::Faults().Check("chaos.a").ok());
    }
    return fired;
  };
  const std::vector<bool> alone = draws(0);
  EXPECT_EQ(draws(1), alone);
  EXPECT_EQ(draws(3), alone);
}

// Re-arming a site keeps its stream (as it keeps its hit count); SetSeed
// restarts it.
TEST_F(FaultInjectorTest, RearmingKeepsTheSiteStream) {
  auto draws = [](bool rearm_midway) {
    ks::Faults().Reset();
    ks::Faults().SetSeed(11);
    EXPECT_TRUE(ks::Faults().Configure("chaos.unit=prob:0.5").ok());
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      if (rearm_midway && i == 32) {
        EXPECT_TRUE(ks::Faults().Configure("chaos.unit=prob:0.5").ok());
      }
      fired.push_back(!ks::Faults().Check("chaos.unit").ok());
    }
    return fired;
  };
  const std::vector<bool> straight = draws(false);
  EXPECT_EQ(draws(true), straight);

  ks::Faults().SetSeed(11);
  for (int i = 0; i < 64; ++i) {
    EXPECT_EQ(!ks::Faults().Check("chaos.unit").ok(), straight[i]) << i;
  }
}

TEST_F(FaultInjectorTest, SuppressionExemptsRecoveryCode) {
  ASSERT_TRUE(ks::Faults().Configure("chaos.unit=always").ok());
  EXPECT_FALSE(ks::ScopedFaultSuppression::Active());
  {
    ks::ScopedFaultSuppression guard;
    EXPECT_TRUE(ks::ScopedFaultSuppression::Active());
    EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
    {
      ks::ScopedFaultSuppression nested;
      EXPECT_TRUE(ks::Faults().Check("chaos.unit").ok());
    }
    EXPECT_TRUE(ks::ScopedFaultSuppression::Active());
  }
  EXPECT_FALSE(ks::ScopedFaultSuppression::Active());
  EXPECT_FALSE(ks::Faults().Check("chaos.unit").ok());
}

// --------------------------------------------------------- site coverage

TEST_F(ChaosTest, EveryCatalogSiteIsReachable) {
  // Arm an inert sentinel: with anything armed the injector records hits
  // at every site, so one full workload proves each KS_FAULT_POINT in the
  // catalog actually executes.
  ASSERT_TRUE(ks::Faults().Configure("chaos.sentinel=nth:1000000000").ok());

  SourceTree tree = TriKernel();

  // A hook-bearing patch exercises kvm.call_function at apply time.
  SourceTree post;
  EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;", &post);
  std::string contents = *post.Read("alpha.kc");
  contents +=
      "void setup_hook() {\n"
      "  alpha_state = alpha_state + 9000;\n"
      "}\n"
      "void teardown_hook() {\n"
      "  alpha_state = alpha_state - 9000;\n"
      "}\n"
      "ksplice_pre_apply(setup_hook);\n"
      "ksplice_post_reverse(teardown_hook);\n";
  post.Write("alpha.kc", contents);
  std::string patch = kdiff::MakeUnifiedDiff(tree, post);

  // Two creates through one cache: the first populates it
  // (kcc.objcache.write), the second is served from it (kcc.objcache.read
  // plus kelf.objfile.parse on the stored bytes).
  kcc::ObjectCache cache;
  ks::Result<CreateResult> first = Create(tree, patch, "coverage", &cache);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ks::Result<CreateResult> second = Create(tree, patch, "coverage-2", &cache);
  ASSERT_TRUE(second.ok()) << second.status().ToString();

  // Wire-format round trip: ksplice.package.parse + kelf.objfile.parse.
  std::vector<uint8_t> wire = first->package.Serialize();
  ks::Result<UpdatePackage> parsed = UpdatePackage::Parse(wire);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);

  // Host-facing entry points that the plain apply path does not cross.
  ks::Result<uint32_t> state_addr = machine->GlobalSymbol("alpha_state");
  ASSERT_TRUE(state_addr.ok());
  ASSERT_TRUE(machine->WriteWord(*state_addr, *machine->ReadWord(*state_addr))
                  .ok());
  ks::Result<uint32_t> chunk = machine->HostKmalloc(16);
  ASSERT_TRUE(chunk.ok());
  ASSERT_TRUE(machine->HostKfree(*chunk).ok());
  (void)machine->UnloadGroup("chaos-no-such-group");

  KspliceCore core(machine.get());
  ks::Result<ApplyReport> applied = core.Apply(*parsed);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  ks::Result<UndoReport> undone = core.Undo("coverage");
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();

  // The watchdog sites: one sampling pass (Poll) and one auto-revert
  // attempt on a re-applied update (Revert quarantines it on the way out).
  ks::Result<ApplyReport> reapplied = core.Apply(second->package);
  ASSERT_TRUE(reapplied.ok()) << reapplied.status().ToString();
  HealthMonitor monitor(&core);
  monitor.Poll();
  AttributedFault trigger;
  trigger.update = "coverage-2";
  trigger.reason = "chaos catalog coverage drill";
  ks::Result<RevertReport> reverted = monitor.Revert("coverage-2", trigger);
  ASSERT_TRUE(reverted.ok()) << reverted.status().ToString();
  EXPECT_TRUE(reverted->reverted);

  for (const std::string& site : ks::KnownFaultSites()) {
    EXPECT_GT(ks::Faults().Hits(site), 0u)
        << "catalog site never executed: " << site;
  }
}

// ------------------------------------------------------- per-site sweeps

TEST_F(ChaosTest, ApplySweepEverySiteRollsBackByteIdentical) {
  SourceTree tree = TriKernel();
  ks::Result<CreateResult> created = CreateTwoFunctionPatch(tree, "sweep");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const std::vector<uint8_t> pristine = KernelImage(*machine);
  const uint32_t arena_pristine = machine->ModuleArenaBytesInUse();
  const size_t kallsyms_pristine = machine->Kallsyms().size();
  KspliceCore core(machine.get());

  for (const std::string& site : ks::KnownFaultSites()) {
    for (uint64_t nth = 1; nth <= 2; ++nth) {
      SCOPED_TRACE(site + " nth:" + std::to_string(nth));
      ks::Faults().Reset();
      ASSERT_TRUE(
          ks::Faults().Configure(site + "=nth:" + std::to_string(nth)).ok());
      ks::Result<ApplyReport> applied = core.Apply(created->package);
      ks::Faults().Reset();

      // Registry and status must agree no matter what happened.
      EXPECT_EQ(RegistryIds(core), StatusIds(core));

      if (!applied.ok() && core.applied().empty()) {
        // The common case: the fault aborted the transaction and every
        // completed stage was rolled back. No trace may remain.
        EXPECT_EQ(KernelImage(*machine), pristine);
        EXPECT_EQ(machine->ModuleArenaBytesInUse(), arena_pristine);
        EXPECT_EQ(machine->Kallsyms().size(), kallsyms_pristine);
      } else if (core.applied().size() == 1) {
        // Either the site was off the apply path (clean success) or the
        // fault hit the commit window, where splicing is already done and
        // the update must be registered despite the reported error.
        ASSERT_TRUE(core.Undo("sweep").ok());
        EXPECT_EQ(KernelImage(*machine), pristine);
      } else {
        FAIL() << "unexpected registry size " << core.applied().size();
      }

      // A failed attempt must not poison the machine: a clean apply and
      // undo always succeed afterwards.
      ks::Result<ApplyReport> clean = core.Apply(created->package);
      ASSERT_TRUE(clean.ok()) << clean.status().ToString();
      ASSERT_TRUE(core.Undo("sweep").ok());
      EXPECT_EQ(KernelImage(*machine), pristine);
    }
  }
}

TEST_F(ChaosTest, UndoSweepEverySiteRestoresOrAborts) {
  SourceTree tree = TriKernel();
  ks::Result<CreateResult> created = CreateTwoFunctionPatch(tree, "usweep");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const std::vector<uint8_t> pristine = KernelImage(*machine);
  KspliceCore core(machine.get());

  for (const std::string& site : ks::KnownFaultSites()) {
    for (uint64_t nth = 1; nth <= 2; ++nth) {
      SCOPED_TRACE(site + " nth:" + std::to_string(nth));
      ks::Faults().Reset();
      ASSERT_TRUE(core.Apply(created->package).ok());
      const std::vector<uint8_t> patched = KernelImage(*machine);
      ASSERT_NE(patched, pristine);

      ASSERT_TRUE(
          ks::Faults().Configure(site + "=nth:" + std::to_string(nth)).ok());
      ks::Result<UndoReport> undone = core.Undo("usweep");
      ks::Faults().Reset();
      EXPECT_EQ(RegistryIds(core), StatusIds(core));

      if (!undone.ok() && core.applied().size() == 1) {
        // Restore-or-abort: a fault mid-undo compensates any partial
        // restores and leaves the update fully applied.
        EXPECT_EQ(KernelImage(*machine), patched);
        ASSERT_TRUE(core.Undo("usweep").ok());
      } else if (core.applied().empty()) {
        // Off-path site (clean undo) or a post-commit fault (e.g. an
        // ignored helper-unload failure): the update is gone and the
        // kernel image is restored either way.
        EXPECT_EQ(KernelImage(*machine), pristine);
      } else {
        FAIL() << "unexpected registry size " << core.applied().size();
      }
      EXPECT_EQ(KernelImage(*machine), pristine);
    }
  }
}

// The safety net's own chaos contract (PR 10): with any one site primed
// to fail during an automatic revert, the machine ends byte-identical to
// exactly one of the two legal states — pristine (revert landed) or fully
// patched (revert refused, restore-or-abort) — and the package is
// quarantined either way. Never half-reverted. Since retries run under
// ScopedFaultSuppression, a single injected fault can delay the revert by
// one backoff round but cannot wedge it.
TEST_F(ChaosTest, WatchdogRevertSweepByteIdenticalOrQuarantined) {
  SourceTree tree = TriKernel();
  ks::Result<CreateResult> created = CreateTwoFunctionPatch(tree, "wd");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const uint64_t hash = PackageContentHash(created->package);

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const std::vector<uint8_t> pristine = KernelImage(*machine);
  KspliceCore core(machine.get());

  for (const std::string& site : ks::KnownFaultSites()) {
    SCOPED_TRACE(site);
    ks::Faults().Reset();
    ASSERT_TRUE(core.Apply(created->package).ok());
    const std::vector<uint8_t> patched = KernelImage(*machine);
    ASSERT_NE(patched, pristine);

    ASSERT_TRUE(ks::Faults().Configure(site + "=once").ok());
    HealthMonitor monitor(&core);
    AttributedFault trigger;
    trigger.update = "wd";
    trigger.reason = "chaos revert sweep";
    ks::Result<RevertReport> revert = monitor.Revert("wd", trigger);
    ks::Faults().Reset();
    ASSERT_TRUE(revert.ok()) << revert.status().ToString();

    EXPECT_TRUE(revert->quarantined);
    EXPECT_TRUE(core.quarantine().Contains(hash));
    EXPECT_EQ(RegistryIds(core), StatusIds(core));
    if (revert->reverted) {
      EXPECT_EQ(KernelImage(*machine), pristine);
      EXPECT_TRUE(core.applied().empty());
    } else {
      // Failed revert: fully applied, with the undo error as diagnostics.
      EXPECT_EQ(KernelImage(*machine), patched);
      ASSERT_EQ(core.applied().size(), 1u);
      std::optional<QuarantineEntry> entry = core.quarantine().Find(hash);
      ASSERT_TRUE(entry.has_value());
      EXPECT_NE(entry->evidence.find("revert failed"), std::string::npos);
      ASSERT_TRUE(core.Undo("wd").ok());
    }
    EXPECT_EQ(KernelImage(*machine), pristine);

    // Clear the quarantine so the next iteration's Apply is not refused.
    EXPECT_TRUE(core.quarantine().Remove(hash));
  }
}

// --------------------------------------------------- randomized sequences

// Prints one `[replay]` line per round (its plan) and per step (op,
// outcome, status text, FNV-64 of the kernel image, arena bytes in use), so
// two trees' runs of one seed can be diffed.
TEST_F(ChaosTest, RandomizedFaultCombinationsPreserveInvariants) {
  uint64_t seed = 0xC0FFEE;
  if (const char* env = std::getenv("KSPLICE_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  // Print the seed so any failure reproduces with
  // KSPLICE_CHAOS_SEED=<seed>.
  std::printf("[chaos] KSPLICE_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  RecordProperty("chaos_seed", static_cast<int>(seed & 0x7fffffff));

  SourceTree tree = TriKernel();
  struct Pkg {
    std::string id;
    UpdatePackage package;
  };
  std::vector<Pkg> pkgs;
  ks::Result<CreateResult> pa = Create(
      tree, EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;"),
      "rand-alpha");
  ASSERT_TRUE(pa.ok()) << pa.status().ToString();
  pkgs.push_back({"rand-alpha", pa->package});
  ks::Result<CreateResult> pb = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      "rand-beta");
  ASSERT_TRUE(pb.ok()) << pb.status().ToString();
  pkgs.push_back({"rand-beta", pb->package});
  ks::Result<CreateResult> pg = Create(
      tree, EditTree(tree, "gamma.kc", "int c = b - 2;", "int c = b - 20;"),
      "rand-gamma");
  ASSERT_TRUE(pg.ok()) << pg.status().ToString();
  pkgs.push_back({"rand-gamma", pg->package});

  const std::vector<std::string>& catalog = ks::KnownFaultSites();

  const int kRounds = 6;
  const int kStepsPerRound = 8;
  for (int round = 0; round < kRounds; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::unique_ptr<kvm::Machine> machine = Boot(tree);
    ASSERT_NE(machine, nullptr);
    const std::vector<uint8_t> pristine = KernelImage(*machine);
    KspliceCore core(machine.get());
    Rng rng{SubSeed(seed, round, 0)};

    // A random plan: 2-4 sites, each nth:1-3 or prob:0.2-0.6.
    std::string plan;
    size_t sites = 2 + rng.Below(3);
    for (size_t i = 0; i < sites; ++i) {
      const std::string& site = catalog[rng.Below(catalog.size())];
      const bool prob = rng.Below(2) == 0;
      const uint64_t nth = 1 + rng.Below(3);
      const double p = 0.2 + 0.4 * rng.Unit();
      plan += (i == 0 ? "" : ",") + site +
              (prob ? ks::StrPrintf("=prob:%.17g", p)
                    : "=nth:" + std::to_string(nth));
    }
    std::printf("[replay] seed=%llu round=%d plan=%s\n",
                static_cast<unsigned long long>(seed), round, plan.c_str());
    // Armed once per round, so an `nth:` clause counts hits across the
    // round's steps and can fault a late step. The harness's own reads run
    // suppressed and never count as hits.
    ASSERT_TRUE(ks::Faults().Configure(plan).ok());

    for (int step = 0; step < kStepsPerRound; ++step) {
      SCOPED_TRACE("step " + std::to_string(step));
      std::optional<ks::ScopedFaultSuppression> harness(std::in_place);
      std::vector<std::string> before_ids = RegistryIds(core);
      const std::vector<uint8_t> before_image = KernelImage(*machine);
      const uint32_t before_arena = machine->ModuleArenaBytesInUse();

      // Pick an op legal in the current state: apply an unapplied
      // package, undo an applied one, or batch-apply all unapplied.
      std::vector<const Pkg*> unapplied;
      for (const Pkg& pkg : pkgs) {
        bool live = false;
        for (const std::string& id : before_ids) {
          live = live || id == pkg.id;
        }
        if (!live) {
          unapplied.push_back(&pkg);
        }
      }
      ks::Faults().SetSeed(SubSeed(seed, round, 1 + step));
      ks::Status status;
      std::string op;
      int choice = static_cast<int>(rng.Below(3));
      harness.reset();
      if ((choice == 0 && !unapplied.empty()) || before_ids.empty()) {
        const Pkg& pkg = *unapplied[rng.Below(unapplied.size())];
        op = "apply " + pkg.id;
        status = core.Apply(pkg.package).status();
      } else if (choice == 1 && unapplied.size() >= 2) {
        std::vector<UpdatePackage> batch;
        op = "batch";
        for (const Pkg* pkg : unapplied) {
          batch.push_back(pkg->package);
          op += " " + pkg->id;
        }
        status = core.ApplyAll(batch).status();
      } else {
        const std::string& id = before_ids[rng.Below(before_ids.size())];
        op = "undo " + id;
        status = core.Undo(id).status();
      }
      harness.emplace();

      // Invariants after every op, failed or not: the registry matches
      // the status report, and a failed op that did not commit leaves
      // the kernel image and module arena untouched.
      std::vector<std::string> after_ids = RegistryIds(core);
      EXPECT_EQ(after_ids, StatusIds(core));
      const std::vector<uint8_t> after_image = KernelImage(*machine);
      const uint32_t after_arena = machine->ModuleArenaBytesInUse();
      const bool rolled_back = !status.ok() && after_ids == before_ids;
      if (rolled_back) {
        EXPECT_EQ(after_image, before_image);
        EXPECT_EQ(after_arena, before_arena);
      }
      std::string text = status.ToString();
      std::replace(text.begin(), text.end(), '\n', ' ');
      std::printf(
          "[replay] round=%d step=%d op=%s outcome=%s status=%s "
          "image=%016llx arena=%u\n",
          round, step, op.c_str(),
          status.ok() ? "ok" : rolled_back ? "rolled_back" : "committed",
          text.c_str(),
          static_cast<unsigned long long>(ks::Fnv1a64(after_image)),
          after_arena);
    }

    // End of round: clean undo of whatever survived must restore the
    // pristine image, and a clean apply/undo cycle must still work.
    ks::Faults().Reset();
    for (const std::string& id : RegistryIds(core)) {
      ASSERT_TRUE(core.Undo(id).ok()) << id;
    }
    EXPECT_EQ(KernelImage(*machine), pristine);
    ASSERT_TRUE(core.Apply(pkgs[0].package).ok());
    ASSERT_TRUE(core.Undo(pkgs[0].id).ok());
    EXPECT_EQ(KernelImage(*machine), pristine);
  }
}

// ------------------------------------------------ directed: undo restore

TEST_F(ChaosTest, UndoRestoreFaultCompensatesPartialRestore) {
  SourceTree tree = TriKernel();
  ks::Result<CreateResult> created = CreateTwoFunctionPatch(tree, "comp");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const uint32_t before = Probe(*machine, "alpha_probe", 1, 11);
  const std::vector<uint8_t> pristine = KernelImage(*machine);

  KspliceCore core(machine.get());
  ASSERT_TRUE(core.Apply(created->package).ok());
  ASSERT_EQ(core.Status().updates[0].functions, 2u);
  const uint32_t patched_value = Probe(*machine, "alpha_probe", 1, 11);
  ASSERT_NE(patched_value, before);
  const std::vector<uint8_t> patched = KernelImage(*machine);

  // Fault the SECOND of the two restores: the first function is already
  // back to original bytes when the fault fires, so the undo must re-
  // splice it (compensation) and abort with the update fully applied.
  ASSERT_TRUE(ks::Faults().Configure("ksplice.undo.restore=nth:2").ok());
  ks::Result<UndoReport> undone = core.Undo("comp");
  ks::Faults().Reset();
  ASSERT_FALSE(undone.ok());
  EXPECT_NE(undone.status().message().find("undoing"), std::string::npos);
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_EQ(KernelImage(*machine), patched);
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), patched_value);

  // The aborted undo must not wedge the update: a clean undo restores
  // the pristine image and original behavior.
  ASSERT_TRUE(core.Undo("comp").ok());
  EXPECT_EQ(KernelImage(*machine), pristine);
  EXPECT_EQ(Probe(*machine, "alpha_probe", 1, 11), before);
}

// --------------------------------------------------- directed: objcache

TEST_F(ObjCacheChaosTest, CorruptEntryIsServedAsAMissAndHealed) {
  SourceTree tree = TriKernel();
  std::string patch =
      EditTree(tree, "alpha.kc", "int a = x + 1;", "int a = x + 10;");
  kcc::ObjectCache cache;
  ks::Counter& corrupt = ks::Metrics().GetCounter("kcc.objcache.corrupt_entries");

  ASSERT_TRUE(Create(tree, patch, "cc-1", &cache).ok());
  ASSERT_GT(cache.size(), 0u);
  const uint64_t hits_after_first = cache.hits();
  ASSERT_TRUE(Create(tree, patch, "cc-2", &cache).ok());
  const uint64_t hits_after_second = cache.hits();
  ASSERT_GT(hits_after_second, hits_after_first);

  // Flip one bit in every stored entry — compiled objects AND the lint
  // pass's summary blobs share the checksum discipline. Each corrupted
  // entry must be detected, recomputed (a miss in its own traffic class,
  // counted as corrupt), and healed in place.
  const uint64_t corrupt_before = corrupt.value();
  const uint64_t misses_before = cache.misses();
  const uint64_t blob_misses_before = cache.blob_misses();
  const size_t damaged = cache.CorruptEntriesForTest();
  ASSERT_GT(damaged, 0u);
  ks::Result<CreateResult> after = Create(tree, patch, "cc-3", &cache);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(corrupt.value() - corrupt_before, damaged);
  EXPECT_EQ((cache.misses() - misses_before) +
                (cache.blob_misses() - blob_misses_before),
            damaged);

  // Healed: the next create is served entirely from the repaired entries.
  const uint64_t corrupt_after_heal = corrupt.value();
  const uint64_t misses_after_heal = cache.misses();
  const uint64_t blob_misses_after_heal = cache.blob_misses();
  ASSERT_TRUE(Create(tree, patch, "cc-4", &cache).ok());
  EXPECT_EQ(corrupt.value(), corrupt_after_heal);
  EXPECT_EQ(cache.misses(), misses_after_heal);
  EXPECT_EQ(cache.blob_misses(), blob_misses_after_heal);

  // The recompiled-from-corruption package is a working update.
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  ASSERT_TRUE(core.Apply(after->package).ok());
  ASSERT_TRUE(core.Undo("cc-3").ok());
}

TEST_F(ObjCacheChaosTest, ReadAndWriteFaultsDegradeToRecompiles) {
  SourceTree tree = TriKernel();
  std::string patch =
      EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;");

  // A write fault while populating the cache leaves the entry empty; the
  // create still succeeds and the next reader recompiles and heals it.
  {
    kcc::ObjectCache cache;
    ASSERT_TRUE(ks::Faults().Configure("kcc.objcache.write=once").ok());
    ASSERT_TRUE(Create(tree, patch, "wf-1", &cache).ok());
    ks::Faults().Reset();
    ASSERT_TRUE(Create(tree, patch, "wf-2", &cache).ok());
    ASSERT_TRUE(Create(tree, patch, "wf-3", &cache).ok());
  }

  // A read fault on a healthy entry is an unreadable cache: served as a
  // miss, never an error.
  {
    kcc::ObjectCache cache;
    ASSERT_TRUE(Create(tree, patch, "rf-1", &cache).ok());
    ASSERT_TRUE(ks::Faults().Configure("kcc.objcache.read=once").ok());
    ks::Result<CreateResult> second = Create(tree, patch, "rf-2", &cache);
    ks::Faults().Reset();
    ASSERT_TRUE(second.ok()) << second.status().ToString();
  }
}

// ------------------------------------------------- directed: rendezvous

TEST_F(RendezvousChaosTest, ExhaustionNamesBlockingThreadAndRecovers) {
  SourceTree tree = TriKernel();
  // A thread that spins inside the function being patched until the host
  // clears its flag: quiescence can never be reached while it loops.
  tree.Write("spinner.kc", R"(
int spin_flag = 1;
int spin_pad = 0;
int spin_op(int n) {
  while (spin_flag) {
    spin_pad = spin_pad + 1;
  }
  return spin_pad + n;
}
void spinner(int n) {
  record(55, spin_op(n));
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  ASSERT_TRUE(machine->SpawnNamed("spinner", 7).ok());
  ASSERT_TRUE(machine->Run(10'000).ok());  // park it inside the loop

  ks::Result<CreateResult> created = Create(
      tree,
      EditTree(tree, "spinner.kc", "spin_pad = spin_pad + 1;",
               "spin_pad = spin_pad + 2;"),
      "spin-patch");
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  KspliceCore core(machine.get());
  ks::Counter& attempts = ks::Metrics().GetCounter("ksplice.rendezvous.attempts");
  ks::Counter& exhausted = ks::Metrics().GetCounter("ksplice.rendezvous.exhausted");

  // Attempt budget exhaustion: the error must name a blocking thread and
  // its PC so the operator knows *why* the update never landed.
  ApplyOptions options;
  options.rendezvous.max_attempts = 3;
  options.rendezvous.backoff_base_ticks = 1'000;
  options.rendezvous.backoff_max_ticks = 4'000;
  options.rendezvous.backoff_jitter = 0.25;
  const uint64_t attempts_before = attempts.value();
  const uint64_t exhausted_before = exhausted.value();
  ks::Result<ApplyReport> blocked = core.Apply(created->package, options);
  ASSERT_FALSE(blocked.ok());
  EXPECT_EQ(blocked.status().code(), ks::ErrorCode::kResourceExhausted);
  EXPECT_NE(blocked.status().message().find("in use"), std::string::npos);
  EXPECT_NE(blocked.status().message().find("thread"), std::string::npos);
  EXPECT_NE(blocked.status().message().find("pc 0x"), std::string::npos);
  EXPECT_EQ(attempts.value() - attempts_before, 3u);
  EXPECT_EQ(exhausted.value() - exhausted_before, 1u);
  EXPECT_TRUE(core.applied().empty());

  // Deadline exhaustion: a huge attempt budget still gives up once the
  // retry ticks cross deadline_ticks.
  options.rendezvous.max_attempts = 1'000'000;
  options.rendezvous.deadline_ticks = 5'000;
  ks::Result<ApplyReport> deadline = core.Apply(created->package, options);
  ASSERT_FALSE(deadline.ok());
  EXPECT_EQ(deadline.status().code(), ks::ErrorCode::kResourceExhausted);
  EXPECT_NE(deadline.status().message().find("deadline"), std::string::npos);

  // Once the spinner yields, the same update applies cleanly.
  ks::Result<uint32_t> flag = machine->GlobalSymbol("spin_flag");
  ASSERT_TRUE(flag.ok());
  ASSERT_TRUE(machine->WriteWord(*flag, 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_FALSE(machine->RecordsWithKey(55).empty());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_GE(applied->attempts, 1);
  ASSERT_TRUE(core.Undo("spin-patch").ok());
}

}  // namespace
}  // namespace ksplice
