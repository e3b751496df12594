// UpdateTransaction: the staged apply engine behind KspliceCore::Apply and
// KspliceCore::ApplyAll (core.h).
//
// Applying updates is a transaction over six stages:
//
//   Prepare    validate the batch (unique ids, disjoint targets, quarantine)
//   Match      run-pre verify every helper unit of every package (§4)
//   Load       helper blobs + primary modules into the module arena, hook
//              tables, target placement resolution (§5.1)
//   PreApply   ksplice_pre_apply hooks, machine running (§5.3)
//   Rendezvous one stop_machine over the whole batch: combined quiescence
//              check (§5.2), apply hooks, splice every trampoline
//   Commit     post_apply hooks, helper unload, registry insertion
//
// Any stage failure rolls back every completed stage, newest first:
// written trampolines are restored inside the same stop window, completed
// pre_apply stages are compensated by running that package's post_reverse
// hooks (the stage that normally undoes pre_apply's setup), and all
// modules the transaction loaded are dropped with one group unload — the
// machine ends byte-identical to its pre-apply state.
//
// The transaction runs on PackagePlans (runpre.h): the per-package work
// that does not depend on this machine (content hash, helper size, the
// decoded pre side) was done once, before the transaction, and is shared
// read-only. A single-package Apply is just a batch of one: same stages,
// same rollback, one function list in the rendezvous. The transaction is a
// friend of KspliceCore: it reads the core's applied registry and
// quarantine, runs hooks through it, and registers each committed update
// there.

#ifndef KSPLICE_KSPLICE_TRANSACTION_H_
#define KSPLICE_KSPLICE_TRANSACTION_H_

#include <functional>
#include <map>
#include <span>
#include <string>
#include <vector>

#include "base/status.h"
#include "ksplice/core.h"
#include "ksplice/package.h"
#include "ksplice/report.h"
#include "ksplice/runpre.h"

namespace ksplice {

enum class TxnStage : uint8_t {
  kPrepare = 0,
  kMatch,
  kLoad,
  kPreApply,
  kRendezvous,
  kCommit,
};

class UpdateTransaction {
 public:
  UpdateTransaction(KspliceCore* core, const ApplyOptions& options);

  // Runs the transaction over `plans`. On success every package is
  // registered with the core and the batch report describes the shared
  // rendezvous plus one ApplyReport per package. On failure the machine is
  // rolled back to its pre-apply state (exception: a post_apply hook
  // failure after the splice leaves the updates registered, matching
  // single-apply semantics — the splice itself is not unwound for a
  // cleanup-stage error).
  ks::Result<BatchApplyReport> Run(std::span<const PackagePlan* const> plans);

 private:
  // One package's in-flight state, built up across stages.
  struct Staged {
    const PackagePlan* plan = nullptr;
    std::map<std::string, UnitMatch> matches;  // unit -> run-pre valuation
    AppliedUpdate update;
    ApplyReport report;
    bool pre_applied = false;  // pre_apply stage reached (hooks may have
                               // partially run; rollback compensates)
  };

  ks::Status Prepare(std::span<const PackagePlan* const> plans);
  ks::Status Match();
  ks::Status Load();
  ks::Status PreApply();
  ks::Status Rendezvous();
  ks::Status Commit();

  // Reverses every completed stage after a failure in `failed`:
  // compensates completed pre_apply stages with post_reverse hooks, then
  // drops all modules this transaction loaded (one group unload).
  void Rollback(TxnStage failed);

  // Runs `stage`, recording its wall time and a trace span.
  ks::Status RunStage(TxnStage stage,
                      const std::function<ks::Status()>& fn);

  KspliceCore* core_;
  kvm::Machine* machine_;
  ApplyOptions options_;
  std::string group_;  // module-group tag for this transaction's loads
  std::vector<Staged> staged_;
  BatchApplyReport batch_;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_TRANSACTION_H_
