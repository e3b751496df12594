// bench_baseline_comparison: Ksplice vs a source-level hot updater (the
// OPUS-style baseline of §7.1) across all 64 patches.
//
// The paper argues (§3, §4, §6.3) that a source-level system for legacy
// binaries must fail on assembly patches, signature changes, and static
// locals; cannot resolve ambiguous symbols; and silently misses inline
// expansions and header-driven caller changes. This bench measures each
// failure class and contrasts it with Ksplice's outcome on the same patch.
//
// Entries fan out across workers (-j N, default all hardware threads);
// each worker boots its own machines and writes one pre-assigned row, and
// rows print in corpus order, so stdout is byte-identical for every
// worker count. Timing goes to stderr.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <vector>

#include "base/threadpool.h"
#include "corpus/corpus.h"
#include "srcpatch/srcpatch.h"

namespace {

struct Row {
  bool error = false;          // patch/boot infrastructure failure
  std::string baseline = "error";
  size_t missed = 0;
  bool counted_outcome = false;
  bool applied_clean = false;
  bool applied_unsafe = false;
  bool ks_ok = false;
  bool ks_custom = false;
};

Row EvaluateOne(const corpus::Vulnerability& vuln) {
  Row row;
  ks::Result<std::string> patch = corpus::PatchFor(vuln);
  if (!patch.ok()) {
    row.error = true;
    return row;
  }
  srcpatch::SourcePatchOptions sp_options;
  sp_options.compile = corpus::RunBuildOptions();
  sp_options.compile.cache = &corpus::SharedObjectCache();

  ks::Result<std::unique_ptr<kvm::Machine>> machine = corpus::BootKernel();
  if (!machine.ok()) {
    row.error = true;
    return row;
  }
  ks::Result<srcpatch::Report> report = srcpatch::SourceLevelApply(
      **machine, corpus::KernelSource(), *patch, sp_options);
  if (report.ok()) {
    row.baseline = srcpatch::OutcomeName(report->outcome);
    row.missed = report->missed.size();
    row.counted_outcome = true;
    if (report->outcome == srcpatch::Outcome::kApplied) {
      if (row.missed > 0) {
        row.applied_unsafe = true;
      } else {
        row.applied_clean = true;
      }
    }
  }

  corpus::EvalOptions options;
  options.run_stress = false;
  ks::Result<corpus::EvalOutcome> outcome = corpus::Evaluate(vuln, options);
  row.ks_ok = outcome.ok() && outcome->apply_ok &&
              (!outcome->exploit_before || !outcome->exploit_after);
  row.ks_custom = outcome.ok() && outcome->needed_custom_code;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  int jobs = 0;  // 0 = one worker per hardware thread
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "-j" && i + 1 < argc) {
      jobs = std::atoi(argv[++i]);
    } else if (arg.rfind("-j", 0) == 0 && arg.size() > 2) {
      jobs = std::atoi(arg.c_str() + 2);
    }
  }

  const std::vector<corpus::Vulnerability>& vulns =
      corpus::Vulnerabilities();

  std::printf("=== Source-level baseline vs Ksplice over 64 patches ===\n\n");
  std::printf("%-15s %-20s %7s %-24s\n", "CVE", "baseline outcome",
              "missed", "ksplice");

  auto t0 = std::chrono::steady_clock::now();
  std::vector<Row> rows(vulns.size());
  ks::ParallelFor(jobs, vulns.size(),
                  [&](size_t i) { rows[i] = EvaluateOne(vulns[i]); });
  double seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
          .count();

  std::map<std::string, int> outcomes;
  int unsafe_applied = 0;  // "applied" but missed object-level changes
  int clean_applied = 0;
  int ksplice_ok = 0;
  for (size_t i = 0; i < vulns.size(); ++i) {
    const Row& row = rows[i];
    if (row.error) {
      return 1;
    }
    if (row.counted_outcome) {
      outcomes[row.baseline]++;
    }
    clean_applied += row.applied_clean ? 1 : 0;
    unsafe_applied += row.applied_unsafe ? 1 : 0;
    ksplice_ok += row.ks_ok ? 1 : 0;
    std::printf("%-15s %-20s %7zu %-24s\n", vulns[i].cve.c_str(),
                row.baseline.c_str(), row.missed,
                row.ks_ok ? (row.ks_custom ? "ok (custom code)" : "ok")
                          : "FAILED");
  }

  std::printf("\n--- Baseline outcome classes ---\n");
  for (const auto& [name, count] : outcomes) {
    std::printf("%-22s : %d\n", name.c_str(), count);
  }
  std::printf("\n--- Summary ---\n");
  std::printf("baseline clean applies            : %2d / 64\n",
              clean_applied);
  std::printf("baseline applied but INCOMPLETE   : %2d / 64 "
              "(missed inline/header copies — unsafe, §4.2)\n",
              unsafe_applied);
  std::printf("baseline hard failures            : %2d / 64\n",
              64 - clean_applied - unsafe_applied);
  std::printf("ksplice end-to-end                : %2d / 64 "
              "(paper: 64/64 counting custom code)\n",
              ksplice_ok);
  std::fprintf(stderr, "[timing] comparison wall-clock %.3f s at -j %d\n",
               seconds, jobs);
  return 0;
}
