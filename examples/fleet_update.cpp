// The paper's concluding vision (§8): "One could use Ksplice to create hot
// update packages for common starting kernel configurations. People who
// subscribe their systems to these updates would be able to transparently
// receive kernel hot updates..."
//
// This example plays distributor and fleet operator with the fleet API
// (src/fleet). The distributor builds ONE update package for
// CVE-2008-0600 (the vmsplice local root) and serializes it to bytes —
// the downloadable artifact. The operator runs a mixed-release fleet:
// eight machines spread across the corpus kernel line, each busy with its
// own workload, two already carrying an older hot update (the prctl fix)
// on their stacks. Every machine is exploited first, then the artifact is
// rolled out canary wave first via fleet::RunRollout, and every machine
// is re-checked — no reboots, no lost state, pre-applied stacks intact.

#include <cstdio>

#include "corpus/corpus.h"
#include "fleet/fleet.h"
#include "fleet/rollout.h"
#include "ksplice/core.h"
#include "ksplice/create.h"

namespace {

const corpus::Vulnerability* FindVuln(const char* cve) {
  for (const corpus::Vulnerability& candidate : corpus::Vulnerabilities()) {
    if (candidate.cve == cve) {
      return &candidate;
    }
  }
  return nullptr;
}

ks::Result<ksplice::UpdatePackage> BuildPackage(
    const corpus::Vulnerability& vuln, const char* id) {
  KS_ASSIGN_OR_RETURN(std::string patch, corpus::PatchFor(vuln));
  ksplice::CreateOptions options;
  options.compile = corpus::RunBuildOptions();
  options.id = id;
  KS_ASSIGN_OR_RETURN(
      ksplice::CreateResult created,
      ksplice::CreateUpdate(corpus::KernelSource(), patch, options));
  return std::move(created.package);
}

}  // namespace

int main() {
  const corpus::Vulnerability* vmsplice = FindVuln("CVE-2008-0600");
  const corpus::Vulnerability* prctl = FindVuln("CVE-2006-2451");
  if (vmsplice == nullptr || prctl == nullptr) {
    std::printf("corpus entries missing\n");
    return 1;
  }

  // --- distributor side ---------------------------------------------------
  ks::Result<ksplice::UpdatePackage> built =
      BuildPackage(*vmsplice, "ksplice-vmsplice-fix");
  if (!built.ok()) {
    std::printf("create failed: %s\n", built.status().ToString().c_str());
    return 1;
  }
  std::vector<uint8_t> artifact = built->Serialize();
  std::printf("distributor: built ksplice-vmsplice-fix for %s (%zu bytes)\n\n",
              vmsplice->cve.c_str(), artifact.size());

  // An older advisory some subscribers already installed.
  ks::Result<ksplice::UpdatePackage> older =
      BuildPackage(*prctl, "ksplice-prctl-fix");
  if (!older.ok()) {
    std::printf("create failed: %s\n", older.status().ToString().c_str());
    return 1;
  }

  // --- fleet operator side ------------------------------------------------
  // Eight subscribers across the release line, each with its own uptime
  // and in-flight workload; machines 0 and 1 already run the prctl fix.
  const std::vector<corpus::KernelVersion>& versions =
      corpus::KernelVersions();
  fleet::Fleet fleet;
  for (int i = 0; i < 8; ++i) {
    size_t release = static_cast<size_t>(i) % versions.size();
    ks::Result<std::unique_ptr<kvm::Machine>> machine =
        corpus::BootKernelVersion(release, 4u << 20);
    if (!machine.ok()) {
      std::printf("machine %d: boot failed: %s\n", i,
                  machine.status().ToString().c_str());
      return 1;
    }
    for (int w = 0; w <= i; ++w) {
      if (!(*machine)->SpawnNamed("stress_main", 1).ok()) {
        std::printf("machine %d: workload spawn failed\n", i);
        return 1;
      }
    }
    ks::Status ran = (*machine)->Run(5'000 * (i + 1));
    if (!ran.ok()) {
      std::printf("machine %d: workload run failed: %s\n", i,
                  ran.ToString().c_str());
      return 1;
    }
    fleet::NodeSpec spec;
    spec.id = "machine-" + std::to_string(i);
    spec.version = versions[release].name;
    ks::Status added = fleet.AddNode(std::move(spec), std::move(*machine));
    if (!added.ok()) {
      std::printf("machine %d: fleet registration failed: %s\n", i,
                  added.ToString().c_str());
      return 1;
    }
    // Stacking state lives in each node's KspliceCore, so pre-existing
    // updates go through the fleet's core — the rollout will see them.
    if (i < 2) {
      ks::Result<ksplice::ApplyReport> stacked =
          fleet.core(fleet.size() - 1).Apply(*older);
      if (!stacked.ok()) {
        std::printf("machine %d: pre-applying %s failed: %s\n", i,
                    older->id.c_str(), stacked.status().ToString().c_str());
        return 1;
      }
    }
  }

  // Every subscriber is vulnerable today.
  std::vector<uint64_t> uptime(fleet.size());
  std::vector<bool> rooted(fleet.size());
  for (size_t i = 0; i < fleet.size(); ++i) {
    uptime[i] = fleet.machine(i).Ticks();
    ks::Result<bool> before = corpus::RunExploit(fleet.machine(i), *vmsplice);
    if (!before.ok()) {
      std::printf("machine %zu: exploit run failed: %s\n", i,
                  before.status().ToString().c_str());
      return 1;
    }
    rooted[i] = *before;
  }

  // The subscribers download and parse the artifact; the operator rolls
  // it out: one canary, then waves of three.
  ks::Result<ksplice::UpdatePackage> downloaded =
      ksplice::UpdatePackage::Parse(artifact);
  if (!downloaded.ok()) {
    std::printf("artifact parse failed: %s\n",
                downloaded.status().ToString().c_str());
    return 1;
  }
  std::vector<ksplice::UpdatePackage> packages = {*downloaded};
  fleet::RolloutPlan plan;
  plan.canary_fraction = 0.0;
  plan.wave_size = 3;
  plan.max_in_flight = 2;
  ks::Result<ksplice::RolloutReport> rollout =
      fleet::RunRollout(fleet, packages, plan);
  if (!rollout.ok()) {
    std::printf("rollout failed: %s\n",
                rollout.status().ToString().c_str());
    return 1;
  }
  std::printf("rollout: %u wave(s), %u patched, pause p99 %.3f ms\n\n",
              rollout->waves, rollout->patched,
              static_cast<double>(rollout->pause_p99_ns) / 1e6);

  // Re-check every machine: exploit blocked, workload clean, pre-applied
  // stacks still in place underneath the new update.
  int protected_count = 0;
  for (size_t i = 0; i < fleet.size(); ++i) {
    const std::string& id = fleet.spec(i).id;
    ks::Result<bool> after = corpus::RunExploit(fleet.machine(i), *vmsplice);
    if (!after.ok()) {
      std::printf("%s: exploit re-run failed: %s\n", id.c_str(),
                  after.status().ToString().c_str());
      return 1;
    }
    ks::Status drained = fleet.machine(i).RunToCompletion();
    if (!drained.ok()) {
      std::printf("%s: workload drain failed: %s\n", id.c_str(),
                  drained.ToString().c_str());
      return 1;
    }
    std::vector<std::string> stack = fleet.core(i).AppliedIds();
    bool stacked_ok =
        i >= 2 || (stack.size() == 2 && stack[0] == "ksplice-prctl-fix");
    bool ok = rooted[i] && !*after && fleet.machine(i).Faults().empty() &&
              stacked_ok;
    if (ok) {
      ++protected_count;
    }
    std::printf(
        "%s (%s): uptime %8llu ticks | exploit %s -> rollout -> exploit "
        "%s | workload %s | stack %zu update(s)%s\n",
        id.c_str(), fleet.spec(i).version.c_str(),
        static_cast<unsigned long long>(uptime[i]),
        rooted[i] ? "ROOT" : "?   ", !*after ? "blocked" : "ROOT?!",
        fleet.machine(i).Faults().empty() ? "clean" : "FAULTED",
        stack.size(), stacked_ok ? "" : " (STACK DAMAGED)");
  }

  std::printf("\n%d/%zu subscribers protected without a single reboot\n",
              protected_count, fleet.size());
  return protected_count == static_cast<int>(fleet.size()) ? 0 : 1;
}
