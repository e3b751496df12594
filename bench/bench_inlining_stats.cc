// bench_inlining_stats: reproduces the §6.3 inlining statistics.
//
// Paper: "20 of the 64 patches from the evaluation modify a function that
// has been inlined in the run code, despite the fact that only 4 of the
// 64 patches modify a function that is explicitly declared inline."
// Source-level systems cannot even see this (§4.2); Ksplice replaces the
// inline expansions automatically because the callers' object code
// changed too.
// Exits 1 on an evaluation error, unless exactly 4 patches modify a
// declared-inline function and more modify an inlined one.

#include <cstdio>

#include "corpus/corpus.h"

int main() {
  int modified_inlined = 0;
  int declared_inline = 0;
  int both = 0;
  std::printf("=== §6.3 inlining statistics over the 64 patches ===\n\n");
  std::printf("%-15s %-18s %-15s\n", "CVE", "inlined-in-run", "says-inline");
  for (const corpus::Vulnerability& vuln : corpus::Vulnerabilities()) {
    corpus::EvalOptions options;
    options.run_stress = false;  // characteristics only
    ks::Result<corpus::EvalOutcome> outcome =
        corpus::Evaluate(vuln, options);
    if (!outcome.ok()) {
      std::printf("%-15s error: %s\n", vuln.cve.c_str(),
                  outcome.status().ToString().c_str());
      return 1;
    }
    if (outcome->modified_inlined_function || outcome->declared_inline) {
      std::printf("%-15s %-18s %-15s\n", vuln.cve.c_str(),
                  outcome->modified_inlined_function ? "yes" : "-",
                  outcome->declared_inline ? "inline" : "-");
    }
    if (outcome->modified_inlined_function) {
      ++modified_inlined;
    }
    if (outcome->declared_inline) {
      ++declared_inline;
    }
    if (outcome->modified_inlined_function && outcome->declared_inline) {
      ++both;
    }
  }
  std::printf("\n--- Shape check (measured vs paper) ---\n");
  std::printf("patches touching a function inlined in run code : %2d / 64  "
              "(paper: 20)\n",
              modified_inlined);
  std::printf("patches touching a declared-inline function     : %2d / 64  "
              "(paper:  4)\n",
              declared_inline);
  std::printf("inlining without the keyword                    : %2d\n",
              modified_inlined - both);
  if (declared_inline != 4 || modified_inlined <= declared_inline) {
    std::fprintf(stderr, "FAIL: the inlining shape does not hold\n");
    return 1;
  }
  return 0;
}
