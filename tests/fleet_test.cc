// Fleet orchestrator tests (src/fleet): wave/canary rollouts over mixed-
// release corpus fleets.
//
// The claims under test are the fleet-scale versions of the paper's
// per-machine safety story:
//   - a tripped canary wave aborts the rollout and rolls every patched
//     node back byte-identically, with pre-existing update stacks left
//     exactly as they were (only this rollout's updates are undone);
//   - nodes whose kernel release drifted the patched unit are skipped by
//     run-pre matching and counted stale, never failed — staleness does
//     not trip the abort threshold;
//   - rollouts are deterministic in their concurrency: the same plan over
//     identical fleets yields identical node outcomes at max_in_flight 1
//     and 8 (the canary fault plan uses `always` mode, the rollout order
//     and per-node rendezvous jitter are seeded);
//   - each package's pre side is planned once per rollout and shared by
//     every node, which still reads its own run side.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "base/faultinject.h"
#include "base/metrics.h"
#include "corpus/corpus.h"
#include "fleet/corpus_fleet.h"
#include "fleet/fleet.h"
#include "fleet/rollout.h"
#include "json_checker.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "kvm/machine.h"

namespace fleet {
namespace {

// The injector is process-global; every test starts and ends disarmed.
class FleetTest : public ::testing::Test {
 protected:
  void SetUp() override { ks::Faults().Reset(); }
  void TearDown() override { ks::Faults().Reset(); }
};

ksplice::UpdatePackage CorpusPackage(const std::string& cve,
                                     const std::string& id) {
  const corpus::Vulnerability* vuln = nullptr;
  for (const corpus::Vulnerability& candidate :
       corpus::Vulnerabilities()) {
    if (candidate.cve == cve) {
      vuln = &candidate;
    }
  }
  EXPECT_NE(vuln, nullptr) << cve;
  ks::Result<std::string> patch = corpus::PatchFor(*vuln);
  EXPECT_TRUE(patch.ok()) << patch.status().ToString();
  ksplice::CreateOptions options;
  options.compile = corpus::RunBuildOptions();
  options.compile.cache = &corpus::SharedObjectCache();
  options.id = id;
  ks::Result<ksplice::CreateResult> created =
      ksplice::CreateUpdate(corpus::KernelSource(), *patch, options);
  EXPECT_TRUE(created.ok()) << created.status().ToString();
  return std::move(created->package);
}

std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
      machine.config().kernel_base,
      machine.kernel_end() - machine.config().kernel_base);
  EXPECT_TRUE(bytes.ok());
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

const ksplice::RolloutNodeReport& NodeNamed(
    const ksplice::RolloutReport& report, const std::string& id) {
  for (const ksplice::RolloutNodeReport& node : report.nodes) {
    if (node.node == id) {
      return node;
    }
  }
  ADD_FAILURE() << "no node " << id << " in report";
  return report.nodes.front();
}

TEST(RolloutOrderTest, SeededShuffleIsDeterministicAndComplete) {
  EXPECT_EQ(RolloutOrder(4, 0), (std::vector<size_t>{0, 1, 2, 3}));
  std::vector<size_t> a = RolloutOrder(16, 7);
  std::vector<size_t> b = RolloutOrder(16, 7);
  EXPECT_EQ(a, b);
  EXPECT_NE(a, RolloutOrder(16, 8));
  std::vector<size_t> sorted = a;
  std::sort(sorted.begin(), sorted.end());
  for (size_t i = 0; i < sorted.size(); ++i) {
    EXPECT_EQ(sorted[i], i);  // a permutation, nothing lost
  }
}

TEST_F(FleetTest, RegistryRejectsDuplicatesAndNulls) {
  Fleet fleet;
  EXPECT_FALSE(fleet.AddNode({"n0", "v1", false}, nullptr).ok());
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      corpus::BootKernelVersion(0, 4u << 20);
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ASSERT_TRUE(fleet.AddNode({"n0", "v1", false}, std::move(*machine)).ok());
  ks::Result<std::unique_ptr<kvm::Machine>> second =
      corpus::BootKernelVersion(0, 4u << 20);
  ASSERT_TRUE(second.ok());
  ks::Status duplicate = fleet.AddNode({"n0", "v1", false},
                                       std::move(*second));
  EXPECT_EQ(duplicate.code(), ks::ErrorCode::kAlreadyExists);
  EXPECT_EQ(fleet.size(), 1u);
  EXPECT_EQ(fleet.IndexOf("n0"), 0);
  EXPECT_EQ(fleet.IndexOf("absent"), -1);
}

// A doomed canary trips the first wave; the abort rolls every patched
// node back byte-identically and pre-applied stacks survive untouched.
TEST_F(FleetTest, CanaryTripFleetUndoByteIdentical) {
  CorpusFleetOptions options;
  options.nodes = 8;
  options.doomed = 1;  // node 0: seed 0 = id-order visits
  ks::Result<Fleet> fleet = MakeCorpusFleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // Two nodes already run an older update (the prctl fix; nodes 4 and 5
  // run v2.6.5/v2.6.1 where it is not stale).
  ksplice::UpdatePackage older =
      CorpusPackage("CVE-2006-2451", "prctl-fix");
  for (size_t node : {size_t{4}, size_t{5}}) {
    ks::Result<ksplice::ApplyReport> applied =
        fleet->core(node).Apply(older);
    ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  }

  // Snapshot every node after the pre-applies: this is the state the
  // aborted rollout must restore.
  std::vector<std::vector<uint8_t>> images;
  std::vector<uint32_t> arenas;
  std::vector<std::vector<std::string>> stacks;
  for (size_t i = 0; i < fleet->size(); ++i) {
    images.push_back(KernelImage(fleet->machine(i)));
    arenas.push_back(fleet->machine(i).ModuleArenaBytesInUse());
    stacks.push_back(fleet->core(i).AppliedIds());
  }

  std::vector<ksplice::UpdatePackage> packages = {
      CorpusPackage("CVE-2008-0600", "vmsplice-fix")};
  RolloutPlan plan;
  plan.canary_fraction = 0.25;  // 2-node canary wave: nodes 0 and 1
  plan.wave_size = 3;
  plan.max_in_flight = 2;
  plan.canary_fault_plan = "ksplice.txn.pre_apply=always";
  ks::Result<ksplice::RolloutReport> report =
      RunRollout(*fleet, packages, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_TRUE(report->aborted);
  EXPECT_EQ(report->tripped_wave, 0);
  EXPECT_EQ(report->waves, 1u);
  EXPECT_EQ(report->failed, 1u);       // the doomed canary
  EXPECT_EQ(report->rolled_back, 1u);  // its wave-mate, patched then undone
  EXPECT_EQ(report->patched, 0u);      // nobody left patched
  EXPECT_EQ(report->not_attempted, 6u);
  EXPECT_EQ(NodeNamed(*report, "node-000").outcome,
            ksplice::RolloutNodeOutcome::kFailed);
  EXPECT_EQ(NodeNamed(*report, "node-001").outcome,
            ksplice::RolloutNodeOutcome::kRolledBack);

  // Byte-identical restore, arena accounting restored, stacks intact.
  for (size_t i = 0; i < fleet->size(); ++i) {
    EXPECT_EQ(KernelImage(fleet->machine(i)), images[i]) << "node " << i;
    EXPECT_EQ(fleet->machine(i).ModuleArenaBytesInUse(), arenas[i])
        << "node " << i;
    EXPECT_EQ(fleet->core(i).AppliedIds(), stacks[i]) << "node " << i;
  }
  EXPECT_EQ(fleet->core(4).AppliedIds(),
            (std::vector<std::string>{"prctl-fix"}));

  // The injector is disarmed on exit; a clean re-run patches everyone.
  EXPECT_EQ(ks::Faults().ArmedCount(), 0);
  RolloutPlan clean = plan;
  clean.canary_fault_plan.clear();
  ks::Result<ksplice::RolloutReport> retry =
      RunRollout(*fleet, packages, clean);
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  EXPECT_FALSE(retry->aborted);
  EXPECT_EQ(retry->patched, 8u);
}

// An aborted rollout always rolls back — CanaryTripFleetUndoByteIdentical
// above pins that. These pin the plan's fixed shapes: the canary wave never
// shrinks below one node, and the per-wave worker count must be >= 1.
TEST_F(FleetTest, ZeroCanaryFractionStillCanariesOneNode) {
  CorpusFleetOptions options;
  options.nodes = 4;
  ks::Result<Fleet> fleet = MakeCorpusFleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();
  std::vector<ksplice::UpdatePackage> packages = {
      CorpusPackage("CVE-2008-0600", "vmsplice-fix")};
  RolloutPlan plan;
  plan.canary_fraction = 0.0;
  plan.wave_size = 0;
  ks::Result<ksplice::RolloutReport> report =
      RunRollout(*fleet, packages, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->patched, 4u);
  ASSERT_EQ(report->wave_reports.size(), 2u);
  EXPECT_TRUE(report->wave_reports[0].canary);
  EXPECT_EQ(report->wave_reports[0].nodes, 1u);
  EXPECT_FALSE(report->wave_reports[1].canary);
  EXPECT_EQ(report->wave_reports[1].nodes, 3u);
}

TEST_F(FleetTest, MaxInFlightBelowOneIsInvalid) {
  Fleet fleet;
  std::vector<ksplice::UpdatePackage> packages(1);
  packages[0].id = "unused";
  for (int max_in_flight : {0, -1}) {
    RolloutPlan plan;
    plan.max_in_flight = max_in_flight;
    ks::Result<ksplice::RolloutReport> report =
        RunRollout(fleet, packages, plan);
    ASSERT_FALSE(report.ok()) << max_in_flight;
    EXPECT_EQ(report.status().code(), ks::ErrorCode::kInvalidArgument);
    EXPECT_NE(report.status().message().find("max_in_flight"),
              std::string::npos);
  }
}

// Stale nodes (release drifted the patched unit) are skipped by run-pre
// matching: counted skipped_stale, never failed, never tripping a wave.
TEST_F(FleetTest, MixedVersionStaleNodesSkippedNotFailed) {
  CorpusFleetOptions options;
  options.nodes = 10;  // releases v2.6.1..5 round-robin, twice
  ks::Result<Fleet> fleet = MakeCorpusFleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  // The prctl fix's unit drifted in v2.6.4 — nodes 3 and 8.
  std::vector<ksplice::UpdatePackage> packages = {
      CorpusPackage("CVE-2006-2451", "prctl-fix")};
  RolloutPlan plan;
  plan.wave_size = 4;
  plan.max_in_flight = 4;
  plan.abort_failure_fraction = 0.0;  // any real failure would trip
  ks::Result<ksplice::RolloutReport> report =
      RunRollout(*fleet, packages, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();

  EXPECT_FALSE(report->aborted);
  EXPECT_EQ(report->failed, 0u);
  EXPECT_EQ(report->skipped_stale, 2u);
  EXPECT_EQ(report->patched, 8u);
  for (const std::string id : {"node-003", "node-008"}) {
    const ksplice::RolloutNodeReport& node = NodeNamed(*report, id);
    EXPECT_EQ(node.outcome, ksplice::RolloutNodeOutcome::kSkippedStale);
    EXPECT_EQ(node.version, "v2.6.4");
    EXPECT_FALSE(node.error.empty());
  }
  // A stale node's error is run-pre's multi-line refusal; the report must
  // still be valid JSON.
  EXPECT_TRUE(ks::test::ValidJson(report->ToJson())) << report->ToJson();

  // Stale nodes really are unpatched; a second rollout reports everyone
  // else already applied and skips the stale pair again.
  ks::Result<ksplice::RolloutReport> again =
      RunRollout(*fleet, packages, plan);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_EQ(again->already_applied, 8u);
  EXPECT_EQ(again->skipped_stale, 2u);
  EXPECT_EQ(again->patched, 0u);
}

// Identical fleets + identical plans give identical wave outcomes whether
// node applies run serially or 8 wide.
TEST_F(FleetTest, DeterministicAcrossMaxInFlight) {
  std::vector<ksplice::UpdatePackage> packages = {
      CorpusPackage("CVE-2008-0600", "vmsplice-fix")};
  auto run = [&](int max_in_flight) {
    CorpusFleetOptions options;
    options.nodes = 10;
    options.doomed = 2;
    options.seed = 3;
    ks::Result<Fleet> fleet = MakeCorpusFleet(options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    RolloutPlan plan;
    plan.canary_fraction = 0.3;  // 3-node canary; 2 doomed = 2/3 < 0.7
    plan.wave_size = 4;
    plan.max_in_flight = max_in_flight;
    plan.abort_failure_fraction = 0.7;
    plan.seed = 3;
    plan.canary_fault_plan = "ksplice.txn.pre_apply=always";
    ks::Result<ksplice::RolloutReport> report =
        RunRollout(*fleet, packages, plan);
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    return std::move(*report);
  };

  ksplice::RolloutReport serial = run(1);
  ksplice::RolloutReport wide = run(8);

  EXPECT_FALSE(serial.aborted);
  EXPECT_EQ(serial.failed, 2u);
  EXPECT_EQ(serial.patched, 8u);

  ASSERT_EQ(serial.nodes.size(), wide.nodes.size());
  for (size_t i = 0; i < serial.nodes.size(); ++i) {
    EXPECT_EQ(serial.nodes[i].node, wide.nodes[i].node);
    EXPECT_EQ(serial.nodes[i].outcome, wide.nodes[i].outcome)
        << serial.nodes[i].node;
    EXPECT_EQ(serial.nodes[i].wave, wide.nodes[i].wave);
    EXPECT_EQ(serial.nodes[i].canary, wide.nodes[i].canary);
    EXPECT_EQ(serial.nodes[i].attempts, wide.nodes[i].attempts);
  }
  ASSERT_EQ(serial.wave_reports.size(), wide.wave_reports.size());
  for (size_t w = 0; w < serial.wave_reports.size(); ++w) {
    EXPECT_EQ(serial.wave_reports[w].patched,
              wide.wave_reports[w].patched);
    EXPECT_EQ(serial.wave_reports[w].failed, wide.wave_reports[w].failed);
    EXPECT_EQ(serial.wave_reports[w].tripped,
              wide.wave_reports[w].tripped);
  }
}

// One rollout plans each package once and every node matches against the
// shared, read-only plan: on a mixed-release fleet the node outcomes,
// splice addresses and the valuation-bound imports are the same at
// max_in_flight 1 and 4, and the pre side is decoded exactly once per
// package however many nodes match it.
TEST_F(FleetTest, SharedPlanDecodesPreSideOncePerRollout) {
  // The prctl fix is stale on v2.6.4, so those nodes refuse the batch.
  std::vector<ksplice::UpdatePackage> packages = {
      CorpusPackage("CVE-2006-2451", "prctl-fix"),
      CorpusPackage("CVE-2008-0600", "vmsplice-fix")};
  uint64_t helper_text = 0;
  for (const ksplice::UpdatePackage& package : packages) {
    for (const kelf::ObjectFile& helper : package.helper_objects) {
      for (const kelf::Section& section : helper.sections()) {
        if (section.kind == kelf::SectionKind::kText &&
            section.howto == kelf::Howto::kNone) {
          helper_text += section.bytes.size();
        }
      }
    }
  }
  ASSERT_GT(helper_text, 0u);
  ks::Counter& pre_bytes =
      ks::Metrics().GetCounter("runpre.index.pre_bytes_canonicalized");

  struct Run {
    ksplice::RolloutReport report;
    std::vector<std::vector<ksplice::AppliedUpdate>> applied;  // per node
    uint64_t pre_bytes = 0;
  };
  auto run = [&](int max_in_flight) {
    CorpusFleetOptions options;
    options.nodes = 10;
    ks::Result<Fleet> fleet = MakeCorpusFleet(options);
    EXPECT_TRUE(fleet.ok()) << fleet.status().ToString();
    RolloutPlan plan;
    plan.wave_size = 4;
    plan.max_in_flight = max_in_flight;
    plan.seed = 5;
    Run out;
    const uint64_t before = pre_bytes.value();
    ks::Result<ksplice::RolloutReport> report =
        RunRollout(*fleet, packages, plan);
    out.pre_bytes = pre_bytes.value() - before;
    EXPECT_TRUE(report.ok()) << report.status().ToString();
    out.report = std::move(*report);
    for (size_t i = 0; i < fleet->size(); ++i) {
      out.applied.push_back(fleet->core(i).applied());
    }
    return out;
  };

  Run serial = run(1);
  Run wide = run(4);

  EXPECT_EQ(serial.pre_bytes, helper_text);
  EXPECT_EQ(wide.pre_bytes, helper_text);
  EXPECT_FALSE(serial.report.aborted);
  EXPECT_EQ(serial.report.failed, 0u);
  EXPECT_EQ(serial.report.skipped_stale, 2u);
  EXPECT_EQ(serial.report.patched, 8u);

  ASSERT_EQ(serial.report.nodes.size(), wide.report.nodes.size());
  for (size_t i = 0; i < serial.report.nodes.size(); ++i) {
    const std::string& node = serial.report.nodes[i].node;
    EXPECT_EQ(node, wide.report.nodes[i].node);
    EXPECT_EQ(serial.report.nodes[i].outcome, wide.report.nodes[i].outcome)
        << node;
    EXPECT_EQ(serial.report.nodes[i].error, wide.report.nodes[i].error)
        << node;
    EXPECT_EQ(serial.report.nodes[i].functions_spliced,
              wide.report.nodes[i].functions_spliced)
        << node;
  }
  for (size_t n = 0; n < serial.applied.size(); ++n) {
    const std::vector<ksplice::AppliedUpdate>& a = serial.applied[n];
    const std::vector<ksplice::AppliedUpdate>& b = wide.applied[n];
    ASSERT_EQ(a.size(), b.size()) << "node " << n;
    EXPECT_EQ(a.size(), serial.report.nodes[n].outcome ==
                                ksplice::RolloutNodeOutcome::kPatched
                            ? 2u
                            : 0u)
        << "node " << n;
    for (size_t u = 0; u < a.size(); ++u) {
      EXPECT_EQ(a[u].id, b[u].id);
      EXPECT_EQ(a[u].package_hash, b[u].package_hash);
      EXPECT_EQ(a[u].primary_base, b[u].primary_base);
      // The primary link binds its imports through the run-pre valuation.
      EXPECT_EQ(a[u].imports, b[u].imports) << a[u].id << " node " << n;
      ASSERT_EQ(a[u].functions.size(), b[u].functions.size());
      for (size_t f = 0; f < a[u].functions.size(); ++f) {
        const ksplice::AppliedFunction& fa = a[u].functions[f];
        const ksplice::AppliedFunction& fb = b[u].functions[f];
        EXPECT_EQ(fa.symbol, fb.symbol);
        EXPECT_EQ(fa.orig_address, fb.orig_address) << fa.symbol;
        EXPECT_EQ(fa.code_address, fb.code_address) << fa.symbol;
        EXPECT_EQ(fa.code_size, fb.code_size) << fa.symbol;
        EXPECT_EQ(fa.repl_address, fb.repl_address) << fa.symbol;
        EXPECT_EQ(fa.saved_bytes, fb.saved_bytes) << fa.symbol;
      }
    }
  }
}

// AppliedIds reflects stack order, a rollout skips a node that already
// carries every package, and UndoAll strips the node back to pristine,
// newest first.
TEST_F(FleetTest, AppliedIdsAndUndoAllFacade) {
  CorpusFleetOptions options;
  options.nodes = 3;
  ks::Result<Fleet> fleet = MakeCorpusFleet(options);
  ASSERT_TRUE(fleet.ok()) << fleet.status().ToString();

  ksplice::UpdatePackage prctl = CorpusPackage("CVE-2006-2451", "u-prctl");
  ksplice::UpdatePackage vmsplice =
      CorpusPackage("CVE-2008-0600", "u-vmsplice");
  ksplice::KspliceCore& core = fleet->core(0);
  std::vector<uint8_t> pristine = KernelImage(fleet->machine(0));
  ASSERT_TRUE(core.Apply(prctl).ok());
  ASSERT_TRUE(core.Apply(vmsplice).ok());
  EXPECT_EQ(core.AppliedIds(),
            (std::vector<std::string>{"u-prctl", "u-vmsplice"}));

  // Rollout over the fleet: node-000 has both packages already.
  std::vector<ksplice::UpdatePackage> packages = {prctl, vmsplice};
  RolloutPlan plan;
  ks::Result<ksplice::RolloutReport> report =
      RunRollout(*fleet, packages, plan);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_EQ(NodeNamed(*report, "node-000").outcome,
            ksplice::RolloutNodeOutcome::kAlreadyApplied);
  EXPECT_EQ(report->patched, 2u);

  ks::Result<std::vector<ksplice::UndoReport>> undone = core.UndoAll();
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  ASSERT_EQ(undone->size(), 2u);
  EXPECT_EQ((*undone)[0].id, "u-vmsplice");  // newest first
  EXPECT_EQ((*undone)[1].id, "u-prctl");
  EXPECT_TRUE(core.AppliedIds().empty());
  EXPECT_EQ(KernelImage(fleet->machine(0)), pristine);
}

}  // namespace
}  // namespace fleet
