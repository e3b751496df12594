// bench_watchdog: what the post-apply safety net costs and how fast it
// catches a bad patch.
//
// Two experiments on corpus kernels:
//
//  1. Soak overhead — a patched machine runs the corpus stress workload
//     under a HealthMonitor at several sampling granularities, against a
//     no-monitor baseline over the same tick budget. The table reports
//     wall time, sampling passes, and the overhead factor: the paper's
//     "no disruptive effects" claim extended past the apply window to
//     continuous health monitoring.
//
//  2. Detection/revert drill — a deliberately bad patch (a BUG() armed in
//     the replacement code) applies cleanly, regresses under load inside
//     the soak window, and must be attributed, auto-reverted, and
//     quarantined. The bench reports detection latency (machine ticks
//     from soak start to attribution) and revert wall time, and exits
//     nonzero unless the machine ends byte-identical to its pre-apply
//     image with the package quarantined — the same invariant the tests
//     assert, measured instead of mocked.
//
// --report-dir=DIR writes the drill's WatchdogReport JSON plus a metrics
// snapshot (ksplice.watchdog.*).

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "corpus/corpus.h"
#include "kcc/compile.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/quarantine.h"
#include "ksplice/watchdog.h"
#include "kvm/machine.h"

namespace {

uint64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::vector<uint8_t> KernelImage(const kvm::Machine& machine) {
  ks::Result<std::vector<uint8_t>> bytes = machine.ReadBytes(
      machine.config().kernel_base,
      machine.kernel_end() - machine.config().kernel_base);
  return bytes.ok() ? *bytes : std::vector<uint8_t>{};
}

ks::Result<ksplice::UpdatePackage> BuildCorpusPackage(const char* cve) {
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    if (vuln.cve != cve) {
      continue;
    }
    KS_ASSIGN_OR_RETURN(std::string patch, corpus::PatchFor(vuln));
    ksplice::CreateOptions options;
    options.compile = corpus::RunBuildOptions();
    options.compile.cache = &corpus::SharedObjectCache();
    options.id = vuln.cve;
    KS_ASSIGN_OR_RETURN(
        ksplice::CreateResult created,
        ksplice::CreateUpdate(corpus::KernelSource(), patch, options));
    return std::move(created.package);
  }
  return ks::NotFound(std::string("no corpus entry for ") + cve);
}

// The drill kernel: alpha_op carries a BUG() behind a never-true guard;
// the bad patch rewrites the guard so the trap fires on every call.
kdiff::SourceTree DrillKernel() {
  kdiff::SourceTree tree;
  tree.Write("drill.kc", R"(
int drill_state = 100;
int drill_guard = 9999;
int drill_op(int x) {
  int a = x + 1; int b = a + 2; int c = b + 3; int d = c + 4;
  int e = d + 5; int f = e + 6; int g = f + 7; int h = g + 8;
  if (x == drill_guard) {
    BUG();
  }
  return a + b + c + d + e + f + g + h + drill_state;
}
void drill_load(int n) {
  int i = 0;
  while (i < n) {
    record(11, drill_op(i));
    i = i + 1;
  }
}
)");
  return tree;
}

}  // namespace

int main(int argc, char** argv) {
  std::string report_dir;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--report-dir=", 0) == 0) {
      report_dir = arg.substr(13);
    }
  }

  // ---- 1. Soak overhead on a patched corpus kernel under stress.
  ks::Result<ksplice::UpdatePackage> package =
      BuildCorpusPackage("CVE-2008-0600");
  if (!package.ok()) {
    std::fprintf(stderr, "create failed: %s\n",
                 package.status().ToString().c_str());
    return 1;
  }

  std::printf("=== Watchdog soak overhead (corpus kernel, stress load) ===\n\n");
  std::printf("%14s %10s %10s %10s %10s\n", "sample ticks", "samples",
              "wall ms", "baseline", "overhead");

  constexpr uint64_t kSoakTicks = 2'000'000;
  // Baseline: same machine state, same tick budget, no monitor.
  double baseline_ms = 0.0;
  for (uint64_t sample_ticks : {uint64_t{0}, uint64_t{2'000},
                                uint64_t{10'000}, uint64_t{50'000}}) {
    ks::Result<std::unique_ptr<kvm::Machine>> machine = corpus::BootKernel();
    if (!machine.ok()) {
      std::fprintf(stderr, "boot failed: %s\n",
                   machine.status().ToString().c_str());
      return 1;
    }
    ksplice::KspliceCore core(machine->get());
    ks::Result<ksplice::ApplyReport> applied = core.Apply(*package);
    if (!applied.ok()) {
      std::fprintf(stderr, "apply failed: %s\n",
                   applied.status().ToString().c_str());
      return 1;
    }
    // A persistent stress workload so the soak has something to run.
    if (!(*machine)->SpawnNamed("stress_main", 64).ok()) {
      std::fprintf(stderr, "stress spawn failed\n");
      return 1;
    }

    uint64_t start = NowNs();
    uint64_t samples = 0;
    if (sample_ticks == 0) {
      (void)(*machine)->Run(kSoakTicks);
    } else {
      ksplice::WatchdogOptions options;
      options.soak_ticks = kSoakTicks;
      options.sample_ticks = sample_ticks;
      ksplice::HealthMonitor monitor(&core, options);
      ksplice::WatchdogReport report = monitor.Soak();
      samples = report.samples;
      if (!report.reverts.empty()) {
        std::fprintf(stderr, "clean patch was reverted during soak\n");
        return 1;
      }
    }
    double wall_ms = static_cast<double>(NowNs() - start) / 1e6;
    if (sample_ticks == 0) {
      baseline_ms = wall_ms;
      std::printf("%14s %10s %10.2f %10s %10s\n", "none", "-", wall_ms, "-",
                  "-");
    } else {
      std::printf("%14llu %10llu %10.2f %10.2f %9.2fx\n",
                  static_cast<unsigned long long>(sample_ticks),
                  static_cast<unsigned long long>(samples), wall_ms,
                  baseline_ms,
                  baseline_ms > 0.0 ? wall_ms / baseline_ms : 0.0);
    }
  }

  // ---- 2. Detection/revert drill: bad patch under load.
  std::printf("\n=== Detection drill: bad patch, BUG() under load ===\n");
  ks::Metrics().ResetAll();
  kdiff::SourceTree tree = DrillKernel();
  kdiff::SourceTree post = tree;
  std::string contents = *tree.Read("drill.kc");
  const std::string from = "x == drill_guard";
  size_t at = contents.find(from);
  if (at == std::string::npos) {
    std::fprintf(stderr, "drill source out of sync\n");
    return 1;
  }
  contents.replace(at, from.size(), "x >= 0");
  post.Write("drill.kc", contents);

  kcc::CompileOptions compile;
  compile.function_sections = false;
  compile.data_sections = false;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, compile);
  if (!objects.ok()) {
    std::fprintf(stderr, "drill build failed\n");
    return 1;
  }
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), {});
  if (!machine.ok()) {
    std::fprintf(stderr, "drill boot failed\n");
    return 1;
  }
  const std::vector<uint8_t> pristine = KernelImage(**machine);

  ksplice::CreateOptions create_options;
  create_options.compile = compile;
  create_options.id = "bad-drill";
  ks::Result<ksplice::CreateResult> bad = ksplice::CreateUpdate(
      tree, kdiff::MakeUnifiedDiff(tree, post), create_options);
  if (!bad.ok()) {
    std::fprintf(stderr, "drill create failed: %s\n",
                 bad.status().ToString().c_str());
    return 1;
  }
  const uint64_t bad_hash = ksplice::PackageContentHash(bad->package);

  ksplice::KspliceCore core(machine->get());
  ks::Result<ksplice::ApplyReport> applied = core.Apply(bad->package);
  if (!applied.ok()) {
    std::fprintf(stderr, "drill apply failed: %s\n",
                 applied.status().ToString().c_str());
    return 1;
  }
  if (!(*machine)->SpawnNamed("drill_load", 64).ok()) {
    std::fprintf(stderr, "drill load spawn failed\n");
    return 1;
  }

  ksplice::WatchdogOptions drill_options;
  drill_options.soak_ticks = 500'000;
  drill_options.sample_ticks = 5'000;
  ksplice::HealthMonitor monitor(&core, drill_options);
  uint64_t start = NowNs();
  ksplice::WatchdogReport report = monitor.Soak();
  uint64_t wall_ns = NowNs() - start;

  if (!report_dir.empty()) {
    std::ofstream out(report_dir + "/watchdog-drill.json");
    out << report.ToJson() << "\n";
    (void)ks::Metrics().WriteJson(report_dir + "/metrics.json");
  }

  int violations = 0;
  if (report.faults_attributed == 0 || report.attributed.empty()) {
    std::fprintf(stderr, "regression was not attributed\n");
    ++violations;
  }
  if (report.reverts.size() != 1 || !report.reverts[0].reverted) {
    std::fprintf(stderr, "bad patch was not auto-reverted\n");
    ++violations;
  } else if (KernelImage(**machine) != pristine) {
    std::fprintf(stderr, "revert was not byte-identical\n");
    ++violations;
  }
  if (!core.quarantine().Contains(bad_hash)) {
    std::fprintf(stderr, "package was not quarantined\n");
    ++violations;
  }
  if (!core.applied().empty()) {
    std::fprintf(stderr, "registry not empty after revert\n");
    ++violations;
  }

  uint64_t detect_tick =
      report.attributed.empty() ? 0 : report.attributed[0].tick;
  int attempts = report.reverts.empty() ? 0 : report.reverts[0].attempts;
  std::printf("detected at tick %llu of a %llu-tick window (%llu samples); "
              "reverted in %d attempt(s), %.2f ms soak wall; %s\n",
              static_cast<unsigned long long>(detect_tick),
              static_cast<unsigned long long>(drill_options.soak_ticks),
              static_cast<unsigned long long>(report.samples), attempts,
              static_cast<double>(wall_ns) / 1e6,
              violations == 0
                  ? "machine byte-identical, package quarantined"
                  : "SAFETY-NET VIOLATIONS — see stderr");
  return violations == 0 ? 0 : 1;
}
