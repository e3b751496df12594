// The Ksplice core (paper §5.1's "core kernel module"): applies update
// packages to a live Machine, reverses them, and tracks what is patched so
// later updates can stack (§5.4).
//
// KspliceCore owns the stack of applied updates and everything that reads
// or mutates it:
//
//  - Apply / ApplyAll stage packages through an UpdateTransaction
//    (transaction.h: Prepare -> Match -> Load -> PreApply -> Rendezvous ->
//    Commit, with automatic rollback of every completed stage on failure)
//    and register the result here. ApplyAll splices every function of
//    every package in ONE stop_machine rendezvous with a single combined
//    quiescence check.
//  - Undo reverses any applied update, not just the newest. Reversing a
//    mid-stack update re-points the stacked records of newer updates at
//    the removed update's replaced code (CurrentCode chain rewriting), so
//    their trampolines and saved bytes stay consistent; it refuses only
//    when a newer update's module imports resolve into the module being
//    removed (the new-globals hazard).
//  - CurrentCode answers the §5.4 stacking question: where does the
//    newest version of (unit, symbol) live right now?
//
// The options split mirrors the operations: RendezvousOptions
// (rendezvous.h) carries the stop_machine retry policy shared by apply and
// undo; ApplyOptions composes it with the apply-only knobs.

#ifndef KSPLICE_KSPLICE_CORE_H_
#define KSPLICE_KSPLICE_CORE_H_

#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "base/status.h"
#include "ksplice/package.h"
#include "ksplice/quarantine.h"
#include "ksplice/rendezvous.h"
#include "ksplice/report.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"

namespace ksplice {

// Apply knobs composed with the shared stop_machine retry policy
// (RendezvousOptions, rendezvous.h). Composition, not inheritance: callers
// that need only the retry policy — Undo, the fleet rollout orchestrator
// deriving per-node backoff seeds — take or pass `rendezvous` directly
// instead of slicing an ApplyOptions.
struct ApplyOptions {
  // Stop_machine retry policy shared with undo (see rendezvous.h).
  RendezvousOptions rendezvous;
  // Keep the helper image loaded after a successful apply (off by default;
  // unloading it saves memory, §5.1).
  bool keep_helper = false;
  // Apply a package even if its content hash is quarantined (the watchdog
  // reverted it after an attributed regression, quarantine.h). The
  // override also clears the quarantine entry — exposed as `--force` in
  // ksplice_tool.
  bool force = false;
};

// One spliced function of an applied update.
struct AppliedFunction {
  std::string unit;
  std::string symbol;
  uint32_t orig_address = 0;  // entry of the obsolete function (trampoline)
  uint32_t code_address = 0;  // code that was matched/replaced (== orig, or
                              // the previous replacement when stacking)
  uint32_t code_size = 0;
  uint32_t repl_address = 0;  // the new code in the primary module
  uint32_t repl_size = 0;
  std::vector<uint8_t> saved_bytes;  // original bytes under the trampoline
};

struct AppliedUpdate {
  std::string id;
  std::vector<AppliedFunction> functions;
  kvm::ModuleHandle primary;
  kvm::ModuleHandle helper;  // invalid once unloaded
  uint32_t helper_bytes = 0;
  uint32_t primary_base = 0;  // primary module range, for the out-of-order
  uint32_t primary_size = 0;  // undo dependency check
  // Content hash of the package this update came from (recorded at apply
  // time): the key an automatic revert quarantines under.
  uint64_t package_hash = 0;
  HookSet hooks;
  // External symbols the primary link resolved (name -> value). A later
  // update whose imports land inside this update's primary module depends
  // on it and blocks its out-of-order removal.
  std::vector<std::pair<std::string, uint32_t>> imports;
};

class KspliceCore {
 public:
  explicit KspliceCore(kvm::Machine* machine) : machine_(machine) {}

  // Applies `package` through a single-package transaction; returns a
  // typed account of what happened (the report's `id` doubles as the undo
  // handle). On any failure every completed stage is rolled back and the
  // machine is left byte-identical to its pre-apply state.
  ks::Result<ApplyReport> Apply(const UpdatePackage& package,
                                const ApplyOptions& options = {});

  // Applies every package in one transaction: all packages are matched and
  // loaded up front, then every function of every package is spliced in a
  // single stop_machine rendezvous with one combined quiescence check. If
  // any package fails any stage, the whole batch rolls back. Packages in
  // one batch must be independent (no two may target the same function);
  // stacked updates apply in separate calls.
  ks::Result<BatchApplyReport> ApplyAll(std::span<const UpdatePackage> packages,
                                        const ApplyOptions& options = {});

  // The one apply path, behind both calls above: ApplyAll over prebuilt
  // package plans (runpre.h), so a caller applying the same packages to
  // many machines (the fleet rollout) builds each plan once. The plans'
  // pre-side decode is not charged to the returned reports.
  ks::Result<BatchApplyReport> ApplyAll(
      std::span<const PackagePlan* const> plans,
      const ApplyOptions& options = {});

  // Reverses the applied update named `id` — any update, not just the top
  // of the stack. Mid-stack removal rewrites the affected chains of newer
  // updates; it fails (kFailedPrecondition) if a newer update's imports
  // resolve into the module being removed.
  ks::Result<UndoReport> Undo(const std::string& id,
                              const RendezvousOptions& options = {});

  // Reverses every applied update, newest first, in one call per update.
  // Stops at the first failure (already-reversed updates stay reversed);
  // on success the machine carries no Ksplice modifications at all. The
  // fleet orchestrator's fleet-wide rollback and `examples` quiesce
  // machines through this instead of iterating the registry by hand.
  ks::Result<std::vector<UndoReport>> UndoAll(
      const RendezvousOptions& options = {});

  // Unloads the helper image of an applied update (memory reclaim, §5.1).
  ks::Status UnloadHelper(const std::string& id);

  const std::vector<AppliedUpdate>& applied() const { return applied_; }

  // Ids of the applied updates, oldest first (each is an Undo handle).
  std::vector<std::string> AppliedIds() const;
  // Whether the update `id` is applied.
  bool IsApplied(const std::string& id) const;

  // Stacking redirect (§5.4): current code location for (unit, symbol).
  std::optional<std::pair<uint32_t, uint32_t>> CurrentCode(
      const std::string& unit, const std::string& symbol) const;

  // Snapshot of the applied-update stack for `ksplice_tool status`,
  // including the machine-health block and the quarantine entries.
  StatusReport Status() const;

  // The package quarantine (watchdog.h adds entries on automatic revert;
  // the apply transaction refuses quarantined hashes without `force`).
  Quarantine& quarantine() { return quarantine_; }
  const Quarantine& quarantine() const { return quarantine_; }

  // Records watchdog evidence: a fault whose PC was attributed to an
  // applied update. Feeds Status()'s health block and the per-row
  // attributed_faults counts that `ksplice_tool status` exits 1 on.
  void NoteAttributedFault(AttributedFault fault);
  const std::vector<AttributedFault>& attributed_faults() const {
    return attributed_faults_;
  }

  kvm::Machine* machine() const { return machine_; }

  // Returns *this. Kept only for perfbench/busy_kernel.cc, which predates
  // the single engine class and spells HealthMonitor's argument
  // `&core->manager()`; everything else passes `&core`.
  KspliceCore& manager() { return *this; }

 private:
  friend class UpdateTransaction;

  // Finds the applied function record that currently owns (unit, symbol).
  const AppliedFunction* FindApplied(const std::string& unit,
                                     const std::string& symbol) const;

  ks::Status RunHooks(const std::vector<uint32_t>& hooks);
  // Runs every hook, ignoring failures (rollback compensation must make as
  // much progress as it can).
  void RunHooksBestEffort(const std::vector<uint32_t>& hooks);

  // Registers a committed update (called by UpdateTransaction).
  void Register(AppliedUpdate update) {
    applied_.push_back(std::move(update));
  }

  // Fresh module-group tag for one transaction's loads.
  std::string NextTransactionGroup();

  kvm::Machine* machine_;
  std::vector<AppliedUpdate> applied_;
  Quarantine quarantine_;
  std::vector<AttributedFault> attributed_faults_;
  uint64_t next_txn_ = 0;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_CORE_H_
