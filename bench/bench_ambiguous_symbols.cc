// bench_ambiguous_symbols: reproduces the §6.3 symbol-ambiguity census
// and the run-pre resolution demonstration.
//
// Paper: 7.9% of Linux 2.6.27 symbols share their name with another
// symbol; 21.1% of compilation units contain such a symbol; 5 of 64
// patches modify a function containing one; a symbol table alone cannot
// resolve them (the dst.c/dst_ca.c "debug" example, CVE-2005-4639).
// Exits 1 on an evaluation error, unless some patch touches an ambiguous
// symbol and every such patch fails in the baseline and applies in Ksplice.

#include <cstdio>

#include "corpus/corpus.h"
#include "srcpatch/srcpatch.h"

int main() {
  ks::Result<corpus::SymbolCensus> census = corpus::CensusKernelSymbols();
  if (!census.ok()) {
    std::printf("census failed: %s\n", census.status().ToString().c_str());
    return 1;
  }
  std::printf("=== §6.3 ambiguous-symbol census ===\n\n");
  std::printf("total symbols                  : %d\n",
              census->total_symbols);
  std::printf("symbols sharing a name         : %d (%.1f%%)   (paper: "
              "6164, 7.9%%)\n",
              census->ambiguous_symbols,
              100.0 * census->ambiguous_symbols / census->total_symbols);
  std::printf("compilation units              : %d\n", census->total_units);
  std::printf("units containing such a symbol : %d (%.1f%%)   (paper: "
              "21.1%%)\n\n",
              census->units_with_ambiguous,
              100.0 * census->units_with_ambiguous / census->total_units);

  // Which patches touch a function referencing an ambiguous symbol, and
  // what does the source-level baseline do with them?
  std::printf("%-15s %-10s %-32s\n", "CVE", "ksplice",
              "source-level baseline outcome");
  int ambiguous_patches = 0;
  int baseline_failures = 0;
  int ksplice_applied = 0;
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    corpus::EvalOptions options;
    options.run_stress = false;
    ks::Result<corpus::EvalOutcome> outcome =
        corpus::Evaluate(vuln, options);
    if (!outcome.ok()) {
      std::printf("%-15s error: %s\n", vuln.cve.c_str(),
                  outcome.status().ToString().c_str());
      return 1;
    }
    if (!outcome->references_ambiguous_symbol) {
      continue;
    }
    ++ambiguous_patches;
    ksplice_applied += outcome->apply_ok ? 1 : 0;

    // Run the baseline against a live kernel for the definitive verdict.
    const char* verdict = "n/a";
    ks::Result<std::string> patch = corpus::PatchFor(vuln);
    ks::Result<std::unique_ptr<kvm::Machine>> machine =
        corpus::BootKernel();
    if (patch.ok() && machine.ok()) {
      srcpatch::SourcePatchOptions sp_options;
      sp_options.compile = corpus::RunBuildOptions();
      ks::Result<srcpatch::Report> report = srcpatch::SourceLevelApply(
          **machine, corpus::KernelSource(), *patch, sp_options);
      if (report.ok()) {
        verdict = srcpatch::OutcomeName(report->outcome);
        if (report->outcome != srcpatch::Outcome::kApplied) {
          ++baseline_failures;
        }
      }
    }
    std::printf("%-15s %-10s %-32s\n", vuln.cve.c_str(),
                outcome->apply_ok ? "applied" : "FAILED", verdict);
  }
  std::printf("\n--- Shape check (measured vs paper) ---\n");
  std::printf("patches touching ambiguous symbols : %d / 64   (paper: 5)\n",
              ambiguous_patches);
  std::printf("of those, baseline failures        : %d\n",
              baseline_failures);
  std::printf("of those, Ksplice applied          : %d (run-pre matching "
              "resolves them)\n",
              ksplice_applied);
  if (ambiguous_patches == 0 || baseline_failures != ambiguous_patches ||
      ksplice_applied != ambiguous_patches) {
    std::fprintf(stderr, "FAIL: the ambiguity shape does not hold\n");
    return 1;
  }
  return 0;
}
