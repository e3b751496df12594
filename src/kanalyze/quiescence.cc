// Quiescence-risk pass (kanalyze pass 4): predicts §4.2 stack-check
// failures before stop_machine ever runs. The apply-time safety check
// aborts when any thread's pc or return addresses fall inside a function
// being replaced; a function that sleeps — or that can reach sleep() or
// lock_kernel() through its callees — is exactly the function likeliest
// to be pinned on a blocked thread's stack, making the check fail on
// every retry.
//
// Blocking facts come from the side-effect summaries (summary.h): the pre
// function's direct `blocks` bit feeds KSA401 (rules.h), and its transitive
// `reachable_blocking` set — one entry per distinct primitive, however
// many call paths reach it — feeds KSA402. Deduplicating by (rule,
// function, primitive) is therefore structural: two call paths to the
// same sleep() are one risk, not two findings.

#include <set>
#include <string>
#include <tuple>

#include "base/strings.h"
#include "kanalyze/kanalyze.h"
#include "kanalyze/rules.h"
#include "kanalyze/summary.h"

namespace kanalyze {

void RunQuiescencePass(const ksplice::UpdatePackage& package,
                       const CallGraph& graph,
                       const PackageSummaries& summaries,
                       ksplice::LintReport* report) {
  // (rule, function, primitive) already reported — a target listed twice,
  // or two call paths to one primitive, must not double-report.
  std::set<std::tuple<std::string, std::string, std::string>> emitted;
  for (const ksplice::Target& target : package.targets) {
    // The pre function: what threads are executing at apply time.
    int node = graph.FindHelperNode(target.unit, target.symbol);
    if (node < 0) {
      continue;  // callgraph pass reports the inconsistency (KSA104)
    }
    const FunctionSummary& fn = summaries.functions[static_cast<size_t>(node)];
    const std::string key = ksplice::ScopedName(target.unit, target.symbol);
    if (fn.blocks) {
      std::string prims;
      for (const std::string& prim : fn.blocking_primitives) {
        if (!prims.empty()) {
          prims += ", ";
        }
        prims += prim;
      }
      if (emitted.insert({"KSA401", key, prims}).second) {
        AddFinding(report, "KSA401", target.unit, target.symbol,
                   ks::StrPrintf("patched function blocks (%s): threads may "
                                 "be parked inside it, defeating the §4.2 "
                                 "stack check",
                                 prims.c_str()),
                   "expect quiescence retries; consider splitting the "
                   "blocking region out of the patched function or raising "
                   "max_attempts");
      }
    } else {
      for (const std::string& prim : fn.reachable_blocking) {
        if (!emitted.insert({"KSA402", key, prim}).second) {
          continue;
        }
        AddFinding(report, "KSA402", target.unit, target.symbol,
                   ks::StrPrintf("patched function can reach blocking "
                                 "primitive '%s' through its callees; a "
                                 "thread may hold it on the stack while "
                                 "sleeping",
                                 prim.c_str()),
                   "apply during low activity or raise "
                   "RendezvousOptions::max_attempts");
      }
    }
  }
}

}  // namespace kanalyze
