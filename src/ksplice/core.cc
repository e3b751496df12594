#include "ksplice/core.h"

#include <algorithm>

#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "ksplice/rendezvous.h"
#include "ksplice/transaction.h"

namespace ksplice {

const AppliedFunction* KspliceCore::FindApplied(
    const std::string& unit, const std::string& symbol) const {
  for (auto it = applied_.rbegin(); it != applied_.rend(); ++it) {
    for (const AppliedFunction& fn : it->functions) {
      if (fn.unit == unit && fn.symbol == symbol) {
        return &fn;
      }
    }
  }
  return nullptr;
}

std::optional<std::pair<uint32_t, uint32_t>> KspliceCore::CurrentCode(
    const std::string& unit, const std::string& symbol) const {
  const AppliedFunction* fn = FindApplied(unit, symbol);
  if (fn == nullptr) {
    return std::nullopt;
  }
  return std::make_pair(fn->repl_address, fn->repl_size);
}

ks::Status KspliceCore::RunHooks(const std::vector<uint32_t>& hooks) {
  for (uint32_t hook : hooks) {
    ks::Result<uint32_t> result = machine_->CallFunction(hook, 0);
    if (!result.ok()) {
      return ks::Status(result.status()).WithContext("ksplice hook");
    }
  }
  return ks::OkStatus();
}

void KspliceCore::RunHooksBestEffort(const std::vector<uint32_t>& hooks) {
  for (uint32_t hook : hooks) {
    (void)machine_->CallFunction(hook, 0);
  }
}

std::string KspliceCore::NextTransactionGroup() {
  return ks::StrPrintf("ksplice-txn-%llu",
                       static_cast<unsigned long long>(next_txn_++));
}

namespace {

// Plans for `packages`, with each plan's pre-side decode charged to the
// matching entry of `costs`: the caller that builds a plan owns its cost.
ks::Result<std::vector<PackagePlan>> BuildPlans(
    std::span<const UpdatePackage> packages, std::vector<MatchStats>* costs) {
  std::vector<PackagePlan> plans;
  costs->assign(packages.size(), MatchStats{});
  for (size_t i = 0; i < packages.size(); ++i) {
    KS_ASSIGN_OR_RETURN(PackagePlan plan,
                        PackagePlan::Build(packages[i], &(*costs)[i]));
    plans.push_back(std::move(plan));
  }
  return plans;
}

std::vector<const PackagePlan*> PlanRefs(
    const std::vector<PackagePlan>& plans) {
  std::vector<const PackagePlan*> refs;
  for (const PackagePlan& plan : plans) {
    refs.push_back(&plan);
  }
  return refs;
}

}  // namespace

ks::Result<ApplyReport> KspliceCore::Apply(const UpdatePackage& package,
                                           const ApplyOptions& options) {
  ks::TraceSpan span("ksplice.apply");
  span.Annotate("id", package.id);

  std::vector<MatchStats> costs;
  KS_ASSIGN_OR_RETURN(std::vector<PackagePlan> plans,
                      BuildPlans(std::span(&package, 1), &costs));
  UpdateTransaction txn(this, options);
  KS_ASSIGN_OR_RETURN(BatchApplyReport batch, txn.Run(PlanRefs(plans)));
  ApplyReport report = std::move(batch.updates[0]);
  report.match.MergeFrom(costs[0]);
  span.Annotate("functions",
                static_cast<uint64_t>(report.functions.size()));
  span.Annotate("attempts", static_cast<uint64_t>(report.attempts));
  span.AddTicks(report.retry_ticks);
  return report;
}

ks::Result<BatchApplyReport> KspliceCore::ApplyAll(
    std::span<const UpdatePackage> packages, const ApplyOptions& options) {
  std::vector<MatchStats> costs;
  KS_ASSIGN_OR_RETURN(std::vector<PackagePlan> plans,
                      BuildPlans(packages, &costs));
  KS_ASSIGN_OR_RETURN(BatchApplyReport batch,
                      ApplyAll(PlanRefs(plans), options));
  for (size_t i = 0; i < costs.size(); ++i) {
    batch.updates[i].match.MergeFrom(costs[i]);
  }
  return batch;
}

ks::Result<BatchApplyReport> KspliceCore::ApplyAll(
    std::span<const PackagePlan* const> plans, const ApplyOptions& options) {
  ks::TraceSpan span("ksplice.batch_apply");
  span.Annotate("packages", static_cast<uint64_t>(plans.size()));

  UpdateTransaction txn(this, options);
  KS_ASSIGN_OR_RETURN(BatchApplyReport batch, txn.Run(plans));

  static ks::Counter& batches =
      ks::Metrics().GetCounter("ksplice.batch_applies");
  batches.Add(1);
  span.Annotate("functions",
                static_cast<uint64_t>(batch.functions_spliced));
  span.Annotate("attempts", static_cast<uint64_t>(batch.attempts));
  span.AddTicks(batch.retry_ticks);
  return batch;
}

ks::Result<UndoReport> KspliceCore::Undo(const std::string& id,
                                         const RendezvousOptions& options) {
  ks::TraceSpan span("ksplice.undo");
  span.Annotate("id", id);
  UndoReport report;
  report.id = id;

  size_t index = applied_.size();
  for (size_t i = 0; i < applied_.size(); ++i) {
    if (applied_[i].id == id) {
      index = i;
      break;
    }
  }
  if (index == applied_.size()) {
    return ks::FailedPrecondition(
        ks::StrPrintf("update %s is not applied", id.c_str()));
  }
  AppliedUpdate& update = applied_[index];
  report.out_of_order = index + 1 != applied_.size();

  // Out-of-order removal is safe only if no newer update's module links
  // against code or data inside the module being removed: imports bound to
  // addresses in its range (new globals/functions the update introduced,
  // or replacement code a stacked patch calls directly) would dangle.
  for (size_t j = index + 1; j < applied_.size(); ++j) {
    for (const auto& [name, value] : applied_[j].imports) {
      if (value >= update.primary_base &&
          value < update.primary_base + update.primary_size) {
        return ks::FailedPrecondition(ks::StrPrintf(
            "update %s depends on %s (import '%s' resolves into its "
            "module); undo %s first",
            applied_[j].id.c_str(), id.c_str(), name.c_str(),
            applied_[j].id.c_str()));
      }
    }
  }

  // Plan the reversal. For each function of the update:
  //  - if this update still owns the trampoline (it is the newest patch of
  //    that function), the saved bytes go back to the entry point;
  //  - otherwise a newer update matched our replacement code
  //    (record.code_address == our repl_address). That record is
  //    re-pointed at what *we* replaced — our code_address and our saved
  //    bytes — so the chain skips the departing link and a later undo of
  //    the newer update restores the right bytes (§5.4 CurrentCode chain
  //    rewriting).
  struct ChainRewrite {
    AppliedFunction* dependent;
    const AppliedFunction* removed;
  };
  std::vector<const AppliedFunction*> restores;
  std::vector<ChainRewrite> rewrites;
  for (const AppliedFunction& fn : update.functions) {
    if (FindApplied(fn.unit, fn.symbol) == &fn) {
      restores.push_back(&fn);
      continue;
    }
    AppliedFunction* dependent = nullptr;
    for (size_t j = index + 1; j < applied_.size() && dependent == nullptr;
         ++j) {
      for (AppliedFunction& candidate : applied_[j].functions) {
        if (candidate.unit == fn.unit && candidate.symbol == fn.symbol &&
            candidate.code_address == fn.repl_address) {
          dependent = &candidate;
          break;
        }
      }
    }
    if (dependent == nullptr) {
      return ks::Internal(ks::StrPrintf(
          "no stacked record found for %s:%s while undoing %s",
          fn.unit.c_str(), fn.symbol.c_str(), id.c_str()));
    }
    rewrites.push_back(ChainRewrite{dependent, &fn});
  }

  KS_RETURN_IF_ERROR(RunHooks(update.hooks.pre_reverse));

  // No thread may be executing (or returning into) the replacement code we
  // are about to disconnect and unload.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  for (const AppliedFunction& fn : update.functions) {
    ranges.emplace_back(fn.repl_address, fn.repl_address + fn.repl_size);
  }

  ks::Status stopped = RunRendezvous(
      *machine_, options, ranges,
      [&](kvm::Machine& m) -> ks::Status {
        // Restore-or-abort: if a reverse hook or any restore fails, put
        // the already-restored trampolines back and re-establish what the
        // reverse hooks tore down — all inside this same stop window — so
        // the machine leaves it either fully reversed or still fully
        // patched, never a mix.
        WindowWriteLog log(m, "ksplice.undo.restore");
        ks::Status restored = RunHooks(update.hooks.reverse);
        for (size_t i = 0; restored.ok() && i < restores.size(); ++i) {
          restored =
              log.Write(restores[i]->orig_address, restores[i]->saved_bytes);
        }
        if (!restored.ok()) {
          log.Unwind([&] { RunHooksBestEffort(update.hooks.apply); });
        }
        return restored;
      },
      "undo", &report);
  if (!stopped.ok()) {
    return stopped.WithContext(ks::StrPrintf("undoing %s", id.c_str()));
  }

  // Past this point the undo is committed: the trampolines are gone, so
  // the update must leave the registry even if a cleanup hook complains
  // (mirrors the apply-side Commit contract).
  ks::Status post_reverse = RunHooks(update.hooks.post_reverse);

  // The machine no longer references the departing update: re-point the
  // stacked records of newer updates at what it had replaced.
  for (const ChainRewrite& rewrite : rewrites) {
    rewrite.dependent->code_address = rewrite.removed->code_address;
    rewrite.dependent->code_size = rewrite.removed->code_size;
    rewrite.dependent->saved_bytes = rewrite.removed->saved_bytes;
  }
  report.chains_rewritten = static_cast<uint32_t>(rewrites.size());

  report.functions_restored = static_cast<uint32_t>(update.functions.size());
  for (const AppliedFunction* fn : restores) {
    report.bytes_restored += static_cast<uint32_t>(fn->saved_bytes.size());
  }
  ks::Result<kvm::ModuleInfo> primary_info =
      machine_->GetModuleInfo(update.primary);
  if (primary_info.ok()) {
    report.primary_bytes_reclaimed = primary_info->size;
  }
  (void)machine_->UnloadModule(update.primary);
  if (update.helper.valid()) {
    report.helper_bytes_reclaimed = update.helper_bytes;
    (void)machine_->UnloadModule(update.helper);
  }
  bool was_out_of_order = report.out_of_order;
  applied_.erase(applied_.begin() + static_cast<long>(index));

  static ks::Counter& undos = ks::Metrics().GetCounter("ksplice.undos");
  static ks::Counter& ooo_undos =
      ks::Metrics().GetCounter("ksplice.out_of_order_undos");
  static ks::Counter& chain_rewrites =
      ks::Metrics().GetCounter("ksplice.chain_rewrites");
  undos.Add(1);
  if (was_out_of_order) {
    ooo_undos.Add(1);
  }
  chain_rewrites.Add(report.chains_rewritten);
  span.Annotate("functions",
                static_cast<uint64_t>(report.functions_restored));
  span.Annotate("chains_rewritten",
                static_cast<uint64_t>(report.chains_rewritten));
  span.AddTicks(report.retry_ticks);

  KS_LOG(kInfo) << "reversed " << id
                << (was_out_of_order ? " (out of order)" : "");
  if (!post_reverse.ok()) {
    return post_reverse.WithContext(ks::StrPrintf(
        "post_reverse (update %s reversed)", report.id.c_str()));
  }
  return report;
}

ks::Result<std::vector<UndoReport>> KspliceCore::UndoAll(
    const RendezvousOptions& options) {
  std::vector<UndoReport> reports;
  while (!applied_.empty()) {
    const std::string id = applied_.back().id;
    KS_ASSIGN_OR_RETURN(UndoReport report, Undo(id, options));
    reports.push_back(std::move(report));
  }
  return reports;
}

ks::Status KspliceCore::UnloadHelper(const std::string& id) {
  for (AppliedUpdate& update : applied_) {
    if (update.id == id) {
      if (!update.helper.valid()) {
        return ks::FailedPrecondition("helper already unloaded");
      }
      KS_RETURN_IF_ERROR(machine_->UnloadModule(update.helper));
      update.helper = kvm::ModuleHandle{};
      return ks::OkStatus();
    }
  }
  return ks::NotFound(ks::StrPrintf("no applied update %s", id.c_str()));
}

std::vector<std::string> KspliceCore::AppliedIds() const {
  std::vector<std::string> ids;
  ids.reserve(applied_.size());
  for (const AppliedUpdate& update : applied_) {
    ids.push_back(update.id);
  }
  return ids;
}

bool KspliceCore::IsApplied(const std::string& id) const {
  return std::any_of(
      applied_.begin(), applied_.end(),
      [&id](const AppliedUpdate& update) { return update.id == id; });
}

void KspliceCore::NoteAttributedFault(AttributedFault fault) {
  attributed_faults_.push_back(std::move(fault));
  static ks::Counter& attributed =
      ks::Metrics().GetCounter("ksplice.watchdog.faults_attributed");
  attributed.Add(1);
}

StatusReport KspliceCore::Status() const {
  StatusReport status;
  status.arena_bytes_in_use = machine_->ModuleArenaBytesInUse();
  for (const AppliedUpdate& update : applied_) {
    UpdateStatusRow row;
    row.id = update.id;
    row.functions = static_cast<uint32_t>(update.functions.size());
    row.helper_loaded = update.helper.valid();
    row.helper_bytes = update.helper.valid() ? update.helper_bytes : 0;
    row.primary_bytes = update.primary_size;
    for (const AppliedFunction& fn : update.functions) {
      row.trampoline_bytes += static_cast<uint32_t>(fn.saved_bytes.size());
      row.symbols.push_back(fn.unit + ":" + fn.symbol);
    }
    for (const AttributedFault& fault : attributed_faults_) {
      if (fault.update == update.id) {
        ++row.attributed_faults;
      }
    }
    status.updates.push_back(std::move(row));
  }
  status.health.faults_total = machine_->FaultCount();
  status.health.faults_attributed = attributed_faults_.size();
  status.health.extable_fixups = machine_->ExtableFixups();
  status.health.dropped_log_lines = machine_->DroppedLogLines();
  status.health.panicked = machine_->Halted();
  status.health.attributed = attributed_faults_;
  status.quarantine = quarantine_.Entries();
  return status;
}

}  // namespace ksplice
