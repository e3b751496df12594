// kanalyze: static patch-safety analysis over Ksplice update packages.
//
// The paper leaves the hardest safety questions to people and to the
// apply-time machinery: §3.4 asks a programmer to inspect any patch that
// changes data-structure semantics, and §4.2's stack check only discovers
// an unsafe function after stop_machine has already paused the kernel.
// kanalyze moves both forward to create time: a package is vetted
// statically and the findings become typed lint diagnostics
// (ksplice::LintReport) that `ksplice_tool lint` prints, the .report.json
// sidecar carries, and CreateUpdate's --lint gate enforces.
//
// Six pass families raise the rules: callgraph (KSA1xx), cfg (KSA2xx,
// per-function CFG/bytecode verification), abi (KSA3xx, pre-vs-post data
// layout), quiescence (KSA4xx), semdiff (KSA5xx) and howto (KSA6xx,
// exception/bug tables). The rule catalog — each rule's id, severity and
// pass — is kRules in rules.h, and every finding is built by AddFinding
// from it; DESIGN.md §7 explains each rule. The quiescence and semdiff
// passes read per-function side-effect summaries (summary.h), a seventh
// pass run between callgraph and cfg.
//
// Layering: ks_ksplice links ks_kanalyze (CreateUpdate calls
// AnalyzePackage), so this library must consume ksplice/package.h and
// ksplice/report.h as headers only — no calls into ks_ksplice-compiled
// code. ks_kanalyze links ks_kcc for the summary blob cache
// (kcc::ObjectCache), which is acyclic: ks_kcc depends only on
// ks_base/ks_kelf/ks_kvx/ks_kdiff.

#ifndef KSPLICE_KANALYZE_KANALYZE_H_
#define KSPLICE_KANALYZE_KANALYZE_H_

#include "base/status.h"
#include "kanalyze/callgraph.h"
#include "kanalyze/summary.h"
#include "ksplice/package.h"
#include "ksplice/report.h"

namespace kcc {
class ObjectCache;
}

namespace kanalyze {

struct AnalyzeOptions {
  // Optional content-addressed cache for direct summaries; a lint, a
  // create --lint and a rollout gate sharing one cache summarize each
  // distinct function body once.
  kcc::ObjectCache* cache = nullptr;
};

// Runs every pass family over `package` and returns the findings,
// deterministically ordered (severity first, then rule/unit/symbol/
// offset). Returns a Status only for conditions that prevent analysis
// altogether; structural problems in the package become findings.
//
// Publishes kanalyze.* counters and per-pass histograms to the global
// metrics registry and opens kanalyze.* trace spans (base/trace.h).
ks::Result<ksplice::LintReport> AnalyzePackage(
    const ksplice::UpdatePackage& package,
    const AnalyzeOptions& options = AnalyzeOptions());

// The pass families AnalyzePackage runs that live in their own files
// (the call-graph and CFG passes are private to kanalyze.cc). Each appends
// findings to `report` and bumps the report's work counters.
void RunAbiPass(const ksplice::UpdatePackage& package,
                ksplice::LintReport* report);
void RunQuiescencePass(const ksplice::UpdatePackage& package,
                       const CallGraph& graph,
                       const PackageSummaries& summaries,
                       ksplice::LintReport* report);
void RunSemanticDiffPass(const ksplice::UpdatePackage& package,
                         const CallGraph& graph,
                         const PackageSummaries& summaries,
                         ksplice::LintReport* report);
// Special-section howto checks (KSA6xx): every exception-table and
// bug-table entry of a primary object must name an instruction boundary
// of code the package ships, and bug traps must still decode as traps.
void RunHowtoPass(const ksplice::UpdatePackage& package,
                  ksplice::LintReport* report);

// True if any primary object carries a .ksplice.* hook note section (the
// package-level declaration that apply-time custom code handles state).
// Defined in abi.cc; the abi and semdiff passes both key off it.
bool PackageHasHooks(const ksplice::UpdatePackage& package);

// The helper (pre) object of `unit`, or nullptr. Defined in abi.cc.
const kelf::ObjectFile* HelperForUnit(const ksplice::UpdatePackage& package,
                                      const std::string& unit);

}  // namespace kanalyze

#endif  // KSPLICE_KANALYZE_KANALYZE_H_
