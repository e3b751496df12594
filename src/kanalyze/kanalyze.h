// kanalyze: static patch-safety analysis over Ksplice update packages.
//
// The paper leaves the hardest safety questions to people and to the
// apply-time machinery: §3.4 asks a programmer to inspect any patch that
// changes data-structure semantics, and §4.2's stack check only discovers
// an unsafe function after stop_machine has already paused the kernel.
// kanalyze moves both forward to create time: a package is vetted
// statically — call graph, per-function CFG/bytecode verification,
// pre-vs-post ABI/layout diff, and quiescence-risk prediction — and the
// findings become typed lint diagnostics (ksplice::LintReport) that
// `ksplice_tool lint` prints, the .report.json sidecar carries, and
// CreateUpdate's --lint gate enforces.
//
// Pass families and rules (full catalog in DESIGN.md):
//   callgraph  KSA101 dangling scoped import        error
//              KSA102 recursive patched function    warning
//              KSA103 high fan-in patched function  note
//              KSA104 target missing from package   error
//   cfg        KSA201 undecodable instruction       error
//              KSA202 wild jump                     error
//              KSA203 falls off function end        error
//              KSA204 unreachable code              warning
//              KSA205 stack imbalance at ret        warning
//   abi        KSA301 data layout change, no hooks  error
//              KSA302 data content change, no hooks error
//              KSA303 data change gated by hooks    note
//   quiescence KSA401 patched function blocks       warning
//              KSA402 reaches a blocking primitive  note
//   semdiff    KSA501 write-set grew into
//                     persistent data               warning
//              KSA502 store width changed at a
//                     shared field                  error (note w/ hooks)
//              KSA503 lock imbalance introduced     error
//              KSA504 new call path writes
//                     hook-gated data               note
//   howto      KSA601 dangling fixup target         error
//              KSA602 fixup into patched-out code   error
//              KSA603 bug-table trap address does
//                     not decode to a bug trap      error
//              KSA604 build timestamp differs
//                     pre vs post                   note
//
// The quiescence and semdiff passes consume per-function side-effect
// summaries (summary.h) computed between the callgraph and cfg phases.
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

// Runs all four pass families over `package` and returns the findings,
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

}  // namespace kanalyze

#endif  // KSPLICE_KANALYZE_KANALYZE_H_
