// Post-apply safety net tests (ksplice/watchdog.h, ksplice/quarantine.h,
// fleet soak): a bad patch that applies cleanly and only regresses under
// load is detected within the soak window, attributed to the offending
// update by faulting PC, auto-reverted byte-identically through the undo
// path, and quarantined by package content hash — while innocent
// co-applied updates stay. The fleet layer does the same per node and
// escalates a tripped wave to fleet-wide rollback plus a package
// blacklist, deterministically at any worker count.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "base/faultinject.h"
#include "fleet/fleet.h"
#include "fleet/rollout.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/quarantine.h"
#include "ksplice/watchdog.h"
#include "kvm/machine.h"

namespace ksplice {
namespace {

using fleet::Fleet;
using fleet::NodeSpec;
using fleet::RolloutPlan;
using fleet::RunRollout;
using kdiff::SourceTree;

// The injector is process-global; every test starts and ends disarmed.
class WatchdogTest : public ::testing::Test {
 protected:
  void SetUp() override { ks::Faults().Reset(); }
  void TearDown() override { ks::Faults().Reset(); }
};
using FleetSoakTest = WatchdogTest;

kcc::CompileOptions Monolithic() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

// Two independently patchable units plus workload entries. alpha_op
// carries a BUG() guarded by a never-true condition: the "bad" patch
// rewrites the guard so the trap fires on every call — an update that
// applies cleanly and only oopses under load. beta_bug faults in code no
// update ever touches (the attribution-correctness control).
SourceTree WatchKernel() {
  SourceTree tree;
  tree.Write("alpha.kc", R"(
int alpha_state = 100;
int alpha_guard = 9999;
int alpha_op(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  if (x == alpha_guard) {
    BUG();
  }
  return a + b + c + d + e + f + g + h + alpha_state;
}
void alpha_probe(int x) {
  record(11, alpha_op(x));
}
void alpha_load(int n) {
  int i = 0;
  while (i < n) {
    record(11, alpha_op(i));
    i = i + 1;
  }
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
void beta_bug(int x) {
  if (x >= 0) {
    BUG();
  }
  record(22, x);
}
)");
  tree.Write("spin.kc", R"(
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
  return tree;
}

std::unique_ptr<kvm::Machine> Boot(const SourceTree& tree,
                                   uint32_t max_log_lines = 4096) {
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, Monolithic());
  EXPECT_TRUE(objects.ok());
  kvm::MachineConfig config;
  config.max_log_lines = max_log_lines;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  EXPECT_TRUE(machine.ok());
  return machine.ok() ? std::move(machine).value() : nullptr;
}

std::string EditTree(const SourceTree& tree, const std::string& path,
                     const std::string& from, const std::string& to) {
  SourceTree post = tree;
  std::string contents = *tree.Read(path);
  size_t at = contents.find(from);
  EXPECT_NE(at, std::string::npos);
  contents.replace(at, from.size(), to);
  post.Write(path, contents);
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

// The update that applies cleanly and BUGs on every alpha_op call.
UpdatePackage BadAlphaPackage(const SourceTree& tree,
                              const std::string& id) {
  ks::Result<CreateResult> created = Create(
      tree, EditTree(tree, "alpha.kc", "x == alpha_guard", "x >= 0"), id);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(created->package) : UpdatePackage{};
}

// A benign behavior change in beta.kc (the innocent co-applied update).
UpdatePackage InnocentBetaPackage(const SourceTree& tree,
                                  const std::string& id) {
  ks::Result<CreateResult> created = Create(
      tree, EditTree(tree, "beta.kc", "int b = a + 5;", "int b = a + 50;"),
      id);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return created.ok() ? std::move(created->package) : UpdatePackage{};
}

std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
      machine.config().kernel_base,
      machine.kernel_end() - machine.config().kernel_base);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

WatchdogOptions FastSoak() {
  WatchdogOptions options;
  options.soak_ticks = 200'000;
  options.sample_ticks = 5'000;
  options.revert_backoff_ticks = 2'000;
  return options;
}

// --------------------------------------------------- kvm health surface

TEST_F(WatchdogTest, BoundedLogsDropOldestAndCountDrops) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree, /*max_log_lines=*/4);
  ASSERT_NE(machine, nullptr);
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(machine->SpawnNamed("beta_bug", i).ok());
    (void)machine->RunToCompletion();
  }
  // The monotonic counter sees every fault; the rings retain only the
  // newest max_log_lines entries and account for what they evicted.
  EXPECT_EQ(machine->FaultCount(), 8u);
  EXPECT_LE(machine->FaultRecords().size(), 4u);
  EXPECT_LE(machine->Faults().size(), 4u);
  EXPECT_GT(machine->DroppedLogLines(), 0u);
  // The ring keeps the newest records.
  EXPECT_GE(machine->FaultRecords().back().tick,
            machine->FaultRecords().front().tick);
}

// ------------------------------------------------- detection/attribution

// The full end-to-end demo: a bad patch applies cleanly, regresses under
// load inside the soak window, is attributed by faulting PC, reverted
// byte-identically, and quarantined — and the innocent co-applied update
// survives untouched.
TEST_F(WatchdogTest, BadPatchDetectedAttributedRevertedQuarantined) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());

  UpdatePackage innocent = InnocentBetaPackage(tree, "innocent");
  ASSERT_TRUE(core.Apply(innocent).ok());
  const std::vector<uint8_t> with_innocent = KernelImage(*machine);

  UpdatePackage bad = BadAlphaPackage(tree, "bad");
  const uint64_t bad_hash = PackageContentHash(bad);
  ASSERT_TRUE(core.Apply(bad).ok());
  ASSERT_EQ(core.applied().size(), 2u);

  ASSERT_TRUE(machine->SpawnNamed("alpha_load", 16).ok());
  HealthMonitor monitor(&core, FastSoak());
  WatchdogReport report = monitor.Soak();

  ASSERT_GE(report.faults_seen, 1u);
  ASSERT_GE(report.faults_attributed, 1u);
  ASSERT_FALSE(report.attributed.empty());
  EXPECT_EQ(report.attributed[0].update, "bad");
  EXPECT_EQ(report.attributed[0].symbol, "alpha_op");
  EXPECT_NE(report.attributed[0].reason.find("BUG"), std::string::npos);
  EXPECT_TRUE(report.window_closed);

  ASSERT_EQ(report.reverts.size(), 1u);
  const RevertReport& revert = report.reverts[0];
  EXPECT_EQ(revert.id, "bad");
  EXPECT_EQ(revert.package_hash, bad_hash);
  EXPECT_TRUE(revert.reverted);
  EXPECT_TRUE(revert.quarantined);
  EXPECT_EQ(monitor.state(), WatchdogState::kQuarantined);

  // Byte-identical revert: only the innocent update remains, and the
  // kernel image is exactly the innocent-only image.
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_EQ(core.applied()[0].id, "innocent");
  EXPECT_EQ(KernelImage(*machine), with_innocent);

  // The status report carries the evidence: per-update attributed-fault
  // counts, machine health, and the quarantine entry.
  StatusReport status = core.Status();
  ASSERT_EQ(status.updates.size(), 1u);
  EXPECT_EQ(status.updates[0].attributed_faults, 0u);
  EXPECT_GE(status.health.faults_attributed, 1u);
  ASSERT_EQ(status.quarantine.size(), 1u);
  EXPECT_EQ(status.quarantine[0].id, "bad");
  EXPECT_EQ(status.quarantine[0].package_hash, bad_hash);
  std::string json = status.ToJson();
  EXPECT_NE(json.find("\"quarantine\""), std::string::npos);
  EXPECT_NE(json.find("\"health\""), std::string::npos);
}

// A fault in code no update touches must never trigger a revert: the
// watchdog reports it as unattributed and the update stack survives.
TEST_F(WatchdogTest, FaultInUnpatchedCodeIsNotAttributed) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  UpdatePackage innocent = InnocentBetaPackage(tree, "innocent");
  ASSERT_TRUE(core.Apply(innocent).ok());

  // beta_bug traps in pristine kernel text, far from any replacement
  // range or primary module.
  ASSERT_TRUE(machine->SpawnNamed("beta_bug", 1).ok());
  HealthMonitor monitor(&core, FastSoak());
  WatchdogReport report = monitor.Soak();

  EXPECT_GE(report.faults_seen, 1u);
  EXPECT_EQ(report.faults_attributed, 0u);
  ASSERT_FALSE(report.unattributed.empty());
  EXPECT_NE(report.unattributed[0].find("BUG"), std::string::npos);
  EXPECT_TRUE(report.reverts.empty());
  EXPECT_EQ(monitor.state(), WatchdogState::kMonitoring);
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_TRUE(core.quarantine().Entries().empty());
}

// Exception-table fixups are recovered loads, normal kernel behavior: a
// soak over patched code that takes them counts every one and blames
// nothing.
TEST_F(WatchdogTest, ExtableFixupsCountedNeverAttributed) {
  SourceTree tree;
  tree.Write("gamma.kc", R"(
int gamma_bad = 0 - 4;
int gamma_read(int x) {
  return try_load(gamma_bad, x);
}
void gamma_load(int n) {
  int i = 0;
  while (i < n) {
    record(33, gamma_read(i));
    i = i + 1;
  }
}
)");
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  ks::Result<CreateResult> created =
      Create(tree,
             EditTree(tree, "gamma.kc", "try_load(gamma_bad, x)",
                      "try_load(gamma_bad, x + 100)"),
             "gamma-fix");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  ASSERT_TRUE(core.Apply(created->package).ok());

  ASSERT_TRUE(machine->SpawnNamed("gamma_load", 8).ok());
  HealthMonitor monitor(&core, FastSoak());
  WatchdogReport report = monitor.Soak();

  // Every load recovered through the replacement code's fixup.
  EXPECT_EQ(machine->RecordsWithKey(33),
            (std::vector<uint32_t>{100, 101, 102, 103, 104, 105, 106, 107}));
  EXPECT_EQ(report.extable_fixups, 8u);
  EXPECT_EQ(report.faults_seen, 0u);
  EXPECT_EQ(report.faults_attributed, 0u);
  EXPECT_TRUE(report.attributed.empty());
  EXPECT_TRUE(report.reverts.empty());
  EXPECT_EQ(monitor.state(), WatchdogState::kMonitoring);
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_TRUE(core.quarantine().Entries().empty());
}

// A fault that lands after the soak window closes is attributed and
// reported as evidence, but never auto-reverted.
TEST_F(WatchdogTest, PostWindowFaultReportedNotReverted) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  UpdatePackage bad = BadAlphaPackage(tree, "bad");
  ASSERT_TRUE(core.Apply(bad).ok());

  // Nothing runs during the window, so it closes clean.
  HealthMonitor monitor(&core, FastSoak());
  WatchdogReport during = monitor.Soak();
  EXPECT_EQ(during.faults_attributed, 0u);
  EXPECT_TRUE(during.reverts.empty());

  // The regression fires after the window: evidence, not a revert.
  ASSERT_TRUE(machine->SpawnNamed("alpha_load", 4).ok());
  (void)machine->RunToCompletion();
  monitor.Poll();
  const WatchdogReport& report = monitor.report();
  EXPECT_GE(report.faults_attributed, 1u);
  EXPECT_TRUE(report.reverts.empty());
  EXPECT_EQ(monitor.state(), WatchdogState::kAttributed);
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_EQ(core.applied()[0].id, "bad");
  EXPECT_TRUE(core.quarantine().Entries().empty());
}

// ----------------------------------------------------------- quarantine

TEST_F(WatchdogTest, QuarantinedPackageRefusedWithoutForce) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  UpdatePackage bad = BadAlphaPackage(tree, "bad");
  const uint64_t bad_hash = PackageContentHash(bad);
  ASSERT_TRUE(core.Apply(bad).ok());
  ASSERT_TRUE(machine->SpawnNamed("alpha_load", 8).ok());
  HealthMonitor monitor(&core, FastSoak());
  monitor.Soak();
  ASSERT_TRUE(core.applied().empty());
  ASSERT_TRUE(core.quarantine().Contains(bad_hash));

  // Refused by content hash, with the evidence in the error.
  ks::Result<ApplyReport> refused = core.Apply(bad);
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ks::ErrorCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("quarantined"),
            std::string::npos);

  // Re-creating the package from the same tree and patch does not sneak
  // it past: identical contents hash to the same key regardless of which
  // file they came from.
  UpdatePackage recreated = BadAlphaPackage(tree, "bad");
  EXPECT_EQ(PackageContentHash(recreated), bad_hash);
  EXPECT_FALSE(core.Apply(recreated).ok());

  // --force applies it and clears the quarantine entry.
  ApplyOptions force;
  force.force = true;
  ks::Result<ApplyReport> forced = core.Apply(bad, force);
  ASSERT_TRUE(forced.ok()) << forced.status().ToString();
  EXPECT_FALSE(core.quarantine().Contains(bad_hash));
  ASSERT_TRUE(core.Undo("bad").ok());
}

// --------------------------------------------------------- revert drill

// An injected failure on the first revert attempt exercises the backoff:
// the retry runs suppressed, succeeds, and the restore is byte-identical.
TEST_F(WatchdogTest, RevertBackoffRetriesAfterInjectedFailure) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  const std::vector<uint8_t> pristine = KernelImage(*machine);
  KspliceCore core(machine.get());
  UpdatePackage bad = BadAlphaPackage(tree, "bad");
  ASSERT_TRUE(core.Apply(bad).ok());
  ASSERT_TRUE(machine->SpawnNamed("alpha_load", 8).ok());

  ASSERT_TRUE(ks::Faults().Configure("ksplice.watchdog.revert=once").ok());
  HealthMonitor monitor(&core, FastSoak());
  WatchdogReport report = monitor.Soak();
  ks::Faults().Reset();

  ASSERT_EQ(report.reverts.size(), 1u);
  const RevertReport& revert = report.reverts[0];
  EXPECT_EQ(revert.attempts, 2);
  EXPECT_GT(revert.backoff_ticks, 0u);
  EXPECT_TRUE(revert.reverted);
  EXPECT_TRUE(revert.quarantined);
  EXPECT_TRUE(core.applied().empty());
  EXPECT_EQ(KernelImage(*machine), pristine);
}

// When every revert attempt fails (a thread parked inside the patched
// function starves quiescence), the update stays FULLY applied — never
// half-reverted — and the quarantine entry carries the undo error as
// diagnostics.
TEST_F(WatchdogTest, FailedRevertStaysFullyAppliedAndQuarantines) {
  SourceTree tree = WatchKernel();
  std::unique_ptr<kvm::Machine> machine = Boot(tree);
  ASSERT_NE(machine, nullptr);
  KspliceCore core(machine.get());
  ks::Result<CreateResult> created = Create(
      tree,
      EditTree(tree, "spin.kc", "spin_pad = spin_pad + 1;",
               "spin_pad = spin_pad + 2;"),
      "spin");
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const uint64_t spin_hash = PackageContentHash(created->package);
  ASSERT_TRUE(core.Apply(created->package).ok());

  // The spinner legitimately bumps the spin_pad global while the revert
  // backs off; zero that word in both snapshots so the comparison checks
  // code and untouched data, not the workload's own stores.
  ks::Result<uint32_t> pad = machine->GlobalSymbol("spin_pad");
  ASSERT_TRUE(pad.ok());
  const size_t pad_off = *pad - machine->config().kernel_base;
  auto masked_image = [&](const kvm::Machine& m) {
    std::vector<uint8_t> bytes = KernelImage(m);
    for (size_t i = 0; i < 4 && pad_off + i < bytes.size(); ++i) {
      bytes[pad_off + i] = 0;
    }
    return bytes;
  };
  const std::vector<uint8_t> patched = masked_image(*machine);

  // Park a thread inside the patched replacement code.
  ASSERT_TRUE(machine->SpawnNamed("spinner", 7).ok());
  ASSERT_TRUE(machine->Run(10'000).ok());

  WatchdogOptions options = FastSoak();
  options.max_revert_attempts = 2;
  options.rendezvous.max_attempts = 2;
  options.rendezvous.backoff_base_ticks = 500;
  options.rendezvous.backoff_max_ticks = 1'000;
  HealthMonitor monitor(&core, options);
  AttributedFault trigger;
  trigger.update = "spin";
  trigger.reason = "synthetic drill: operator-forced revert";
  ks::Result<RevertReport> revert = monitor.Revert("spin", trigger);
  ASSERT_TRUE(revert.ok()) << revert.status().ToString();

  EXPECT_FALSE(revert->reverted);
  EXPECT_EQ(revert->attempts, 2);
  EXPECT_FALSE(revert->error.empty());
  EXPECT_TRUE(revert->quarantined);
  EXPECT_EQ(monitor.state(), WatchdogState::kQuarantined);

  // Restore-or-abort: fully applied, byte-identical to the patched image.
  ASSERT_EQ(core.applied().size(), 1u);
  EXPECT_EQ(masked_image(*machine), patched);
  std::optional<QuarantineEntry> entry =
      core.quarantine().Find(spin_hash);
  ASSERT_TRUE(entry.has_value());
  EXPECT_NE(entry->evidence.find("revert failed"), std::string::npos);

  // Unwedge: once the spinner yields, a clean undo still works.
  ks::Result<uint32_t> flag = machine->GlobalSymbol("spin_flag");
  ASSERT_TRUE(flag.ok());
  ASSERT_TRUE(machine->WriteWord(*flag, 0).ok());
  ASSERT_TRUE(machine->RunToCompletion().ok());
  ASSERT_TRUE(core.Undo("spin").ok());
}

// Seeded chaos round: the same KSPLICE_CHAOS_SEED reproduces the same
// watchdog outcome (sampling-pass faults included).
TEST_F(WatchdogTest, ChaosSeedReproducesWatchdogRun) {
  uint64_t seed = 0xBADC0DE;
  if (const char* env = std::getenv("KSPLICE_CHAOS_SEED")) {
    seed = std::strtoull(env, nullptr, 0);
  }
  std::printf("[chaos] KSPLICE_CHAOS_SEED=%llu\n",
              static_cast<unsigned long long>(seed));
  SourceTree tree = WatchKernel();

  auto run_once = [&tree, seed]() {
    ks::Faults().Reset();
    std::unique_ptr<kvm::Machine> machine = Boot(tree);
    EXPECT_NE(machine, nullptr);
    KspliceCore core(machine.get());
    UpdatePackage bad = BadAlphaPackage(tree, "bad");
    EXPECT_TRUE(core.Apply(bad).ok());
    EXPECT_TRUE(machine->SpawnNamed("alpha_load", 8).ok());
    ks::Faults().SetSeed(seed);
    EXPECT_TRUE(ks::Faults()
                    .Configure("ksplice.watchdog.sample=prob:0.5,"
                               "ksplice.watchdog.revert=prob:0.5")
                    .ok());
    HealthMonitor monitor(&core, FastSoak());
    WatchdogReport report = monitor.Soak();
    ks::Faults().Reset();
    struct Outcome {
      uint64_t samples;
      uint64_t attributed;
      size_t reverts;
      int attempts;
      bool reverted;
      size_t applied;
      bool operator==(const Outcome&) const = default;
    };
    Outcome outcome;
    outcome.samples = report.samples;
    outcome.attributed = report.faults_attributed;
    outcome.reverts = report.reverts.size();
    outcome.attempts =
        report.reverts.empty() ? 0 : report.reverts[0].attempts;
    outcome.reverted =
        report.reverts.empty() ? false : report.reverts[0].reverted;
    outcome.applied = core.applied().size();
    std::printf(
        "[replay] seed=%llu samples=%llu attributed=%llu reverts=%zu "
        "attempts=%d reverted=%d applied=%zu\n",
        static_cast<unsigned long long>(seed),
        static_cast<unsigned long long>(outcome.samples),
        static_cast<unsigned long long>(outcome.attributed), outcome.reverts,
        outcome.attempts, outcome.reverted ? 1 : 0, outcome.applied);
    return outcome;
  };

  auto first = run_once();
  auto second = run_once();
  EXPECT_EQ(first, second);
  // Retries run suppressed, so even a probability plan cannot wedge the
  // revert: once triggered it always lands by the second attempt.
  if (first.reverts > 0) {
    EXPECT_TRUE(first.reverted);
    EXPECT_EQ(first.applied, 0u);
  }
}

// ----------------------------------------------------------- fleet soak

Fleet MakeWatchFleet(const SourceTree& tree, size_t nodes) {
  Fleet fleet;
  for (size_t i = 0; i < nodes; ++i) {
    std::unique_ptr<kvm::Machine> machine = Boot(tree);
    EXPECT_NE(machine, nullptr);
    NodeSpec spec;
    spec.id = "node-" + std::to_string(i);
    spec.version = "v1";
    EXPECT_TRUE(fleet.AddNode(spec, std::move(machine)).ok());
  }
  return fleet;
}

RolloutPlan SoakPlan(Quarantine* blacklist, int max_in_flight) {
  RolloutPlan plan;
  plan.canary_fraction = 0.5;  // 2 of the 4 nodes
  plan.wave_size = 0;
  plan.max_in_flight = max_in_flight;
  plan.abort_failure_fraction = 0.0;
  plan.soak_ticks = 200'000;
  plan.soak_entry = "alpha_load";
  plan.soak_arg = 8;
  plan.blacklist = blacklist;
  return plan;
}

// The fleet-scale demo: a canary wave soaks under load, both canaries
// auto-revert, the wave trips, the rollout aborts, and the blamed
// package lands in the fleet blacklist — identically at any worker
// count, and a rollout handed that blacklist refuses the package.
TEST_F(FleetSoakTest, SoakAutoRevertsTripsAndBlacklistsDeterministically) {
  SourceTree tree = WatchKernel();
  std::vector<UpdatePackage> packages;
  packages.push_back(BadAlphaPackage(tree, "bad"));
  const uint64_t bad_hash = PackageContentHash(packages[0]);

  auto run = [&](int max_in_flight, Quarantine* blacklist) {
    Fleet fleet = MakeWatchFleet(tree, 4);
    ks::Result<RolloutReport> report =
        RunRollout(fleet, packages, SoakPlan(blacklist, max_in_flight));
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    // Every auto-reverted node is byte-identical to an unpatched boot:
    // its core carries no updates.
    for (size_t i = 0; i < fleet.size(); ++i) {
      EXPECT_TRUE(fleet.core(i).applied().empty());
    }
    return report.ok() ? std::move(report).value() : RolloutReport{};
  };

  Quarantine serial_blacklist;
  RolloutReport serial = run(1, &serial_blacklist);
  EXPECT_TRUE(serial.aborted);
  EXPECT_EQ(serial.auto_reverted, 2u);
  EXPECT_EQ(serial.not_attempted, 2u);
  ASSERT_EQ(serial.wave_reports.size(), 1u);
  EXPECT_TRUE(serial.wave_reports[0].tripped);
  EXPECT_EQ(serial.wave_reports[0].auto_reverted, 2u);
  ASSERT_EQ(serial.blacklisted.size(), 1u);
  EXPECT_TRUE(serial_blacklist.Contains(bad_hash));

  // Determinism across worker counts: same per-node outcomes, same
  // blacklist.
  Quarantine parallel_blacklist;
  RolloutReport parallel = run(8, &parallel_blacklist);
  EXPECT_EQ(serial.blacklisted, parallel.blacklisted);
  EXPECT_EQ(serial.auto_reverted, parallel.auto_reverted);
  ASSERT_EQ(serial.nodes.size(), parallel.nodes.size());
  for (size_t i = 0; i < serial.nodes.size(); ++i) {
    EXPECT_EQ(serial.nodes[i].outcome, parallel.nodes[i].outcome) << i;
    EXPECT_EQ(serial.nodes[i].soak_faults, parallel.nodes[i].soak_faults)
        << i;
  }

  // The blacklist gate: the same package is refused before any node is
  // touched.
  Fleet fresh = MakeWatchFleet(tree, 2);
  ks::Result<RolloutReport> refused =
      RunRollout(fresh, packages, SoakPlan(&serial_blacklist, 1));
  ASSERT_FALSE(refused.ok());
  EXPECT_EQ(refused.status().code(), ks::ErrorCode::kFailedPrecondition);
  EXPECT_NE(refused.status().message().find("blacklisted"),
            std::string::npos);
  for (size_t i = 0; i < fresh.size(); ++i) {
    EXPECT_TRUE(fresh.core(i).applied().empty());
  }
}

// A healthy package soaks clean: no reverts, no trip, no blacklist.
TEST_F(FleetSoakTest, HealthyPackageSurvivesSoak) {
  SourceTree tree = WatchKernel();
  std::vector<UpdatePackage> packages;
  packages.push_back(InnocentBetaPackage(tree, "innocent"));
  Quarantine blacklist;
  Fleet fleet = MakeWatchFleet(tree, 3);
  ks::Result<RolloutReport> report =
      RunRollout(fleet, packages, SoakPlan(&blacklist, 2));
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->patched, 3u);
  EXPECT_EQ(report->auto_reverted, 0u);
  EXPECT_TRUE(report->blacklisted.empty());
  EXPECT_EQ(blacklist.size(), 0u);
  for (size_t i = 0; i < fleet.size(); ++i) {
    ASSERT_EQ(fleet.core(i).applied().size(), 1u);
    EXPECT_EQ(fleet.core(i).applied()[0].id, "innocent");
  }
}

}  // namespace
}  // namespace ksplice
