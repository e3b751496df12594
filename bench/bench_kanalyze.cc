// bench_kanalyze: corpus-wide static-analysis throughput.
//
// Builds the update package for every corpus vulnerability (the amended,
// hook-carrying patch for Table-1 entries), then sweeps the full kanalyze
// pipeline over all packages twice: with the per-function summary cache
// cold and then warm. Per run it prints wall-clock, the summary-phase time
// (the kanalyze.summary_ns histogram delta — the part the cache
// accelerates) and the kanalyze.summary.* counter deltas.
//
// Hard checks, enforced with exit 1:
//   - every package is analyzed and gets pre/post summaries
//   - the corpus sweep is clean at error severity (the lint gate in
//     front of fleet rollouts must not refuse a known-good update)
//   - the cold and warm runs produce byte-identical reports
//   - the warm run has no cache misses
//   - the warm summary phase is at least 2x faster than the cold one

#include <chrono>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "base/metrics.h"
#include "corpus/corpus.h"
#include "kanalyze/kanalyze.h"
#include "kcc/objcache.h"
#include "ksplice/create.h"

namespace {

uint64_t SummaryNs() {
  return ks::Metrics().GetHistogram("kanalyze.summary_ns").sum();
}

uint64_t CounterValue(const char* name) {
  return ks::Metrics().GetCounter(name).value();
}

}  // namespace

int main() {
  const std::vector<corpus::Vulnerability>& vulns =
      corpus::Vulnerabilities();

  // Build every package once (shared object cache, lint off — linting is
  // what we are here to measure).
  kcc::ObjectCache build_cache;
  ksplice::CreateOptions create_options;
  create_options.compile = corpus::RunBuildOptions();
  create_options.compile.cache = &build_cache;
  create_options.lint = ksplice::LintMode::kOff;

  std::vector<ksplice::UpdatePackage> packages;
  std::vector<std::string> ids;
  for (const corpus::Vulnerability& vuln : vulns) {
    ks::Result<std::string> patch = vuln.needs_custom_code
                                        ? corpus::AmendedPatchFor(vuln)
                                        : corpus::PatchFor(vuln);
    if (!patch.ok()) {
      std::printf("%s: patch generation failed: %s\n", vuln.cve.c_str(),
                  patch.status().ToString().c_str());
      return 1;
    }
    create_options.id = vuln.cve;
    ks::Result<ksplice::CreateResult> created =
        ksplice::CreateUpdate(corpus::KernelSource(), *patch,
                              create_options);
    if (!created.ok()) {
      std::printf("%s: create failed: %s\n", vuln.cve.c_str(),
                  created.status().ToString().c_str());
      return 1;
    }
    ids.push_back(vuln.cve);
    packages.push_back(std::move(created->package));
  }
  std::printf("=== kanalyze throughput: %zu corpus packages ===\n\n",
              packages.size());

  struct Run {
    const char* label = "";
    bool warm = false;
    double wall_s = 0;
    uint64_t summary_ns = 0;
    uint64_t hits = 0;
    uint64_t misses = 0;
    uint64_t functions = 0;
    uint64_t errors = 0;
    std::string reports;  // concatenated per-package report JSON
  };
  std::vector<Run> runs(2);
  runs[0].label = "cold";
  runs[1].label = "warm";
  runs[1].warm = true;

  kcc::ObjectCache summary_cache;
  kanalyze::AnalyzeOptions options;
  options.cache = &summary_cache;
  for (Run& run : runs) {

    uint64_t ns0 = SummaryNs();
    uint64_t hits0 = CounterValue("kanalyze.summary.cache_hits");
    uint64_t misses0 = CounterValue("kanalyze.summary.cache_misses");
    auto t0 = std::chrono::steady_clock::now();
    for (size_t i = 0; i < packages.size(); ++i) {
      ks::Result<ksplice::LintReport> report =
          kanalyze::AnalyzePackage(packages[i], options);
      if (!report.ok()) {
        std::printf("%s: analysis failed (%s): %s\n", ids[i].c_str(),
                    run.label, report.status().ToString().c_str());
        return 1;
      }
      if (report->functions_summarized == 0) {
        std::printf("%s: no functions summarized (%s)\n", ids[i].c_str(),
                    run.label);
        return 1;
      }
      run.functions += report->functions_summarized;
      run.errors += report->errors();
      run.reports += report->ToJson();
      run.reports += "\n";
    }
    run.wall_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    run.summary_ns = SummaryNs() - ns0;
    run.hits = CounterValue("kanalyze.summary.cache_hits") - hits0;
    run.misses = CounterValue("kanalyze.summary.cache_misses") - misses0;
  }

  std::printf("%-10s %9s %12s %9s %9s %10s\n", "config", "wall ms",
              "summary ms", "hits", "misses", "functions");
  for (const Run& run : runs) {
    std::printf("%-10s %9.2f %12.3f %9llu %9llu %10llu\n", run.label,
                run.wall_s * 1e3, run.summary_ns / 1e6,
                static_cast<unsigned long long>(run.hits),
                static_cast<unsigned long long>(run.misses),
                static_cast<unsigned long long>(run.functions));
  }

  int failures = 0;
  bool identical = true;
  for (const Run& run : runs) {
    if (run.errors != 0) {
      std::printf("FAIL: %s saw %llu error-severity finding(s); the "
                  "corpus sweep must be clean\n",
                  run.label, static_cast<unsigned long long>(run.errors));
      ++failures;
    }
    if (run.reports != runs[0].reports) {
      std::printf("FAIL: %s reports differ from %s (findings must be "
                  "byte-identical for any cache state)\n",
                  run.label, runs[0].label);
      identical = false;
      ++failures;
    }
    if (run.warm && run.misses != 0) {
      std::printf("FAIL: %s had %llu cache misses on a warm cache\n",
                  run.label, static_cast<unsigned long long>(run.misses));
      ++failures;
    }
  }

  // The cache exists to amortize abstract interpretation: the warm
  // summary phase must run at least 2x faster than the cold one.
  const Run& cold = runs[0];
  const Run& warm = runs[1];
  double speedup = warm.summary_ns == 0
                       ? 0
                       : static_cast<double>(cold.summary_ns) /
                             static_cast<double>(warm.summary_ns);
  std::printf("\nwarm-cache summary-phase speedup: %.2fx "
              "(cold %.3f ms, warm %.3f ms)\n",
              speedup, cold.summary_ns / 1e6, warm.summary_ns / 1e6);
  if (speedup < 2.0) {
    std::printf("FAIL: warm summary cache must be >= 2x faster\n");
    ++failures;
  }

  std::printf("\n%zu packages analyzed; reports byte-identical across "
              "cold and warm: %s; error-severity findings: %llu\n",
              packages.size(), identical ? "yes" : "NO",
              static_cast<unsigned long long>(runs[0].errors));
  return failures == 0 ? 0 : 1;
}
