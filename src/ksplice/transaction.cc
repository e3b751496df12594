#include "ksplice/transaction.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <iterator>
#include <set>
#include <utility>

#include "base/faultinject.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "ksplice/rendezvous.h"
#include "kvx/isa.h"

namespace ksplice {

namespace {

// Reads a table of function pointers out of a module's note sections named
// `section_name` (the ksplice_apply/... hook tables, §5.3).
ks::Result<std::vector<uint32_t>> ReadHookTable(
    const kvm::Machine& machine,
    const std::vector<kelf::PlacedSection>& placements,
    const std::string& section_name) {
  std::vector<uint32_t> hooks;
  for (const kelf::PlacedSection& placement : placements) {
    if (placement.name != section_name) {
      continue;
    }
    for (uint32_t off = 0; off + 4 <= placement.size; off += 4) {
      KS_ASSIGN_OR_RETURN(uint32_t fn,
                          machine.ReadWord(placement.address + off));
      hooks.push_back(fn);
    }
  }
  return hooks;
}

// Each stage's report name (StageTiming::stage, the failed_stage
// annotation) and its trace span, indexed by TxnStage. Spans are static
// strings because TraceSpan keeps a const char*; the stage's wall-time
// histogram is the span name plus "_ns" (StageHistogram).
struct StageNames {
  TxnStage stage;
  const char* name;
  const char* span;
};
constexpr StageNames kStageNames[] = {
    {TxnStage::kPrepare, "prepare", "ksplice.txn.prepare"},
    {TxnStage::kMatch, "match", "ksplice.txn.match"},
    {TxnStage::kLoad, "load", "ksplice.txn.load"},
    {TxnStage::kPreApply, "pre_apply", "ksplice.txn.pre_apply"},
    {TxnStage::kRendezvous, "rendezvous", "ksplice.txn.rendezvous"},
    {TxnStage::kCommit, "commit", "ksplice.txn.commit"},
};
static_assert(
    [] {
      for (size_t i = 0; i < std::size(kStageNames); ++i) {
        if (static_cast<size_t>(kStageNames[i].stage) != i) {
          return false;
        }
      }
      return true;
    }(),
    "kStageNames is indexed by TxnStage");

const StageNames& NamesOf(TxnStage stage) {
  return kStageNames[static_cast<size_t>(stage)];
}

// The stage's wall-time histogram, looked up by name once and registered
// on the stage's first run.
ks::Histogram& StageHistogram(TxnStage stage) {
  static std::atomic<ks::Histogram*> cached[std::size(kStageNames)];
  std::atomic<ks::Histogram*>& slot = cached[static_cast<size_t>(stage)];
  ks::Histogram* histogram = slot.load(std::memory_order_acquire);
  if (histogram == nullptr) {
    histogram = &ks::Metrics().GetHistogram(
        std::string(NamesOf(stage).span) + "_ns");
    slot.store(histogram, std::memory_order_release);
  }
  return *histogram;
}

}  // namespace

UpdateTransaction::UpdateTransaction(KspliceCore* core,
                                     const ApplyOptions& options)
    : core_(core), machine_(core->machine()), options_(options) {}

ks::Status UpdateTransaction::RunStage(TxnStage stage,
                                       const std::function<ks::Status()>& fn) {
  const StageNames& names = NamesOf(stage);
  ks::TraceSpan span(names.span);
  uint64_t begin = ks::NowNs();
  ks::Status status = fn();
  StageTiming timing;
  timing.stage = names.name;
  timing.wall_ns = ks::NowNs() - begin;
  StageHistogram(stage).Observe(timing.wall_ns);
  batch_.stages.push_back(std::move(timing));
  return status;
}

ks::Status UpdateTransaction::Prepare(
    std::span<const PackagePlan* const> plans) {
  KS_FAULT_POINT("ksplice.txn.prepare");
  if (plans.empty()) {
    return ks::InvalidArgument("no packages to apply");
  }
  std::set<std::string> ids;
  std::map<std::pair<std::string, std::string>, std::string> targets;
  for (const PackagePlan* plan : plans) {
    const UpdatePackage& package = *plan->package;
    if (core_->IsApplied(package.id)) {
      return ks::AlreadyExists(ks::StrPrintf("update %s is already applied",
                                             package.id.c_str()));
    }
    if (!ids.insert(package.id).second) {
      return ks::InvalidArgument(ks::StrPrintf(
          "package %s appears twice in the batch", package.id.c_str()));
    }
    // Quarantine gate (quarantine.h): a package the watchdog reverted
    // after an attributed regression is refused by content hash until the
    // operator forces it; the override clears the entry so a forced
    // re-apply gets a clean slate for the next soak.
    const uint64_t package_hash = plan->content_hash;
    std::optional<QuarantineEntry> quarantined =
        core_->quarantine().Find(package_hash);
    if (quarantined.has_value()) {
      if (!options_.force) {
        return ks::FailedPrecondition(ks::StrPrintf(
            "package %s is quarantined (hash %016llx, evidence: %s); "
            "re-apply requires --force",
            package.id.c_str(),
            static_cast<unsigned long long>(package_hash),
            quarantined->evidence.c_str()));
      }
      core_->quarantine().Remove(package_hash);
      KS_LOG(kInfo) << "force-applying quarantined package " << package.id;
    }
    // Packages inside one batch must be independent: two packages that
    // patch the same function would have to stack, and stacking requires
    // the earlier one to be committed before the later one matches.
    for (const Target& target : package.targets) {
      auto [it, inserted] = targets.emplace(
          std::make_pair(target.unit, target.symbol), package.id);
      if (!inserted) {
        return ks::InvalidArgument(ks::StrPrintf(
            "packages %s and %s both target %s:%s (stacked updates must "
            "apply in separate transactions)",
            it->second.c_str(), package.id.c_str(), target.unit.c_str(),
            target.symbol.c_str()));
      }
    }
    Staged staged;
    staged.plan = plan;
    staged.update.id = package.id;
    staged.update.package_hash = package_hash;
    staged.report.id = package.id;
    staged.report.helper_retained = options_.keep_helper;
    staged_.push_back(std::move(staged));
  }
  return ks::OkStatus();
}

ks::Status UpdateTransaction::Match() {
  KS_FAULT_POINT("ksplice.txn.match");
  // Every package matches against the committed registry (batches are
  // disjoint by Prepare), one helper unit at a time in input order. A
  // failure does not stop the stage: every unit is matched, so the runpre
  // counters a failed batch publishes do not depend on which unit failed,
  // and the first failure in input order is the one reported.
  RunPreMatcher matcher(
      *machine_,
      [this](const std::string& unit, const std::string& symbol) {
        return core_->CurrentCode(unit, symbol);
      });
  ks::Status failure = ks::OkStatus();
  for (Staged& staged : staged_) {
    for (const MatchPlan& unit : staged.plan->units) {
      MatchStats stats;
      ks::Result<UnitMatch> match = matcher.MatchUnit(unit, &stats);
      staged.report.match.MergeFrom(stats);
      if (match.ok()) {
        staged.matches.emplace(unit.object->source_name(),
                               std::move(match).value());
      } else if (failure.ok()) {
        failure = ks::Status(match.status())
                      .WithContext(ks::StrPrintf(
                          "applying %s", staged.plan->package->id.c_str()));
      }
    }
  }
  return failure;
}

ks::Status UpdateTransaction::Load() {
  KS_FAULT_POINT("ksplice.txn.load");
  // Sequential, in package order: the module arena layout (and therefore
  // every splice address) must not depend on load interleaving.
  for (Staged& staged : staged_) {
    const UpdatePackage& package = *staged.plan->package;
    auto fail = [&package](ks::Status status) {
      return status.WithContext(
          ks::StrPrintf("applying %s", package.id.c_str()));
    };

    // Helper image (memory accounting; unloadable afterwards, §5.1).
    const uint32_t helper_bytes = staged.plan->helper_bytes;
    ks::Result<kvm::ModuleHandle> helper_handle =
        machine_->LoadBlob(package.id + "-helper", helper_bytes, group_);
    if (!helper_handle.ok()) {
      return fail(helper_handle.status());
    }
    staged.update.helper = *helper_handle;
    staged.update.helper_bytes = helper_bytes;
    staged.report.helper_bytes = helper_bytes;

    // Primary module: scoped imports ("unit::name") resolve via the
    // valuation; plain imports via exported symbols (kvm) or, failing
    // that, via recovered values (globals of a patched unit are also in
    // the valuation and must agree with kallsyms — run-pre checked that).
    const auto& matches = staged.matches;
    auto resolver = [&matches](
                        const std::string& name) -> std::optional<uint32_t> {
      ScopedSymbol scoped = SplitScopedName(name);
      if (!scoped.unit.empty()) {
        auto unit_it = matches.find(scoped.unit);
        if (unit_it == matches.end()) {
          return std::nullopt;
        }
        auto sym_it = unit_it->second.symbol_values.find(scoped.symbol);
        if (sym_it == unit_it->second.symbol_values.end()) {
          return std::nullopt;
        }
        return sym_it->second;
      }
      for (const auto& [unit, match] : matches) {
        auto sym_it = match.symbol_values.find(name);
        if (sym_it != match.symbol_values.end()) {
          return sym_it->second;
        }
      }
      return std::nullopt;
    };
    ks::Result<kvm::ModuleHandle> primary_handle = machine_->LoadModule(
        package.primary_objects, package.id + "-primary", resolver, group_);
    if (!primary_handle.ok()) {
      return ks::Status(primary_handle.status())
          .WithContext("loading primary module");
    }
    staged.update.primary = *primary_handle;

    ks::Result<kvm::ModuleInfo> primary_info =
        machine_->GetModuleInfo(*primary_handle);
    if (!primary_info.ok()) {
      return fail(primary_info.status());
    }
    staged.update.primary_base = primary_info->base;
    staged.update.primary_size = primary_info->size;
    staged.report.primary_bytes = primary_info->size;

    // The import bindings the link chose, for the out-of-order undo
    // dependency check (core.h).
    ks::Result<std::vector<std::pair<std::string, uint32_t>>> imports =
        machine_->ModuleImports(*primary_handle);
    if (!imports.ok()) {
      return fail(imports.status());
    }
    staged.update.imports = std::move(imports).value();

    // Target placements: where is each obsolete function, and where is its
    // replacement inside the primary module?
    for (const Target& target : package.targets) {
      auto match_it = staged.matches.find(target.unit);
      if (match_it == staged.matches.end()) {
        return fail(ks::Internal(
            ks::StrPrintf("no unit match for %s", target.unit.c_str())));
      }
      auto section_it = match_it->second.sections.find(target.section);
      if (section_it == match_it->second.sections.end()) {
        return fail(ks::Internal(ks::StrPrintf(
            "target section %s was not matched", target.section.c_str())));
      }
      const MatchedSection& matched = section_it->second;

      AppliedFunction fn;
      fn.unit = target.unit;
      fn.symbol = target.symbol;
      fn.code_address = matched.run_address;
      fn.code_size = matched.run_size;
      const AppliedFunction* previous =
          core_->FindApplied(target.unit, target.symbol);
      fn.orig_address =
          previous != nullptr ? previous->orig_address : matched.run_address;

      // The replacement: the primary module's copy of the symbol,
      // identified by name + unit + module address range.
      bool found = false;
      machine_->VisitSymbolsNamed(
          target.symbol, [&](const kelf::LinkedSymbol& sym) {
            if (!found && sym.unit == target.unit &&
                sym.address >= primary_info->base &&
                sym.address < primary_info->base + primary_info->size) {
              fn.repl_address = sym.address;
              fn.repl_size = sym.size;
              found = true;
            }
          });
      if (!found) {
        return fail(ks::Internal(ks::StrPrintf(
            "replacement symbol %s missing from primary module",
            target.symbol.c_str())));
      }
      if (fn.code_size < kvx::kTrampolineSize) {
        return fail(ks::FailedPrecondition(ks::StrPrintf(
            "function %s is too small (%u bytes) for a trampoline",
            target.symbol.c_str(), fn.code_size)));
      }
      staged.update.functions.push_back(std::move(fn));
    }

    // Hook tables from the primary module's note sections, through the
    // shared stage/section binding table (package.h).
    ks::Result<std::vector<kelf::PlacedSection>> placements =
        machine_->ModulePlacements(*primary_handle);
    if (!placements.ok()) {
      return fail(placements.status());
    }
    for (const HookStageBinding& binding : HookStageBindings()) {
      ks::Result<std::vector<uint32_t>> table =
          ReadHookTable(*machine_, *placements, binding.section);
      if (!table.ok()) {
        return fail(table.status());
      }
      staged.update.hooks.*binding.table = std::move(table).value();
    }
  }
  return ks::OkStatus();
}

ks::Status UpdateTransaction::PreApply() {
  KS_FAULT_POINT("ksplice.txn.pre_apply");
  for (Staged& staged : staged_) {
    // Mark before running: if a hook fails partway through, the hooks that
    // did run are compensated by this package's post_reverse stage during
    // rollback.
    staged.pre_applied = true;
    ks::Status hooks = core_->RunHooks(staged.update.hooks.pre_apply);
    if (!hooks.ok()) {
      return hooks.WithContext(
          ks::StrPrintf("applying %s", staged.plan->package->id.c_str()));
    }
  }
  return ks::OkStatus();
}

ks::Status UpdateTransaction::Rendezvous() {
  // One combined quiescence check over every function of every package
  // (§5.2): no thread's pc or conservatively-scanned stack word may fall
  // in any code being replaced.
  std::vector<std::pair<uint32_t, uint32_t>> ranges;
  for (const Staged& staged : staged_) {
    for (const AppliedFunction& fn : staged.update.functions) {
      ranges.emplace_back(fn.code_address, fn.code_address + fn.code_size);
    }
  }

  auto body = [this](kvm::Machine& m) -> ks::Status {
    // Package order: each package's apply hooks, then its splices. If
    // anything fails, put every written trampoline back and run the
    // reverse hooks of the packages whose apply hooks already ran —
    // all inside this same stop window, so no thread ever observes the
    // partial state.
    WindowWriteLog log(m, "ksplice.txn.splice");
    size_t hooked = 0;
    auto splice = [&]() -> ks::Status {
      for (Staged& staged : staged_) {
        KS_RETURN_IF_ERROR(core_->RunHooks(staged.update.hooks.apply));
        ++hooked;
        for (AppliedFunction& fn : staged.update.functions) {
          KS_RETURN_IF_ERROR(log.Write(
              fn.orig_address,
              kvx::EncodeTrampoline(fn.orig_address, fn.repl_address),
              &fn.saved_bytes));
        }
      }
      return ks::OkStatus();
    };
    ks::Status spliced = splice();
    if (!spliced.ok()) {
      log.Unwind([&] {
        for (size_t i = hooked; i-- > 0;) {
          core_->RunHooksBestEffort(staged_[i].update.hooks.reverse);
        }
      });
    }
    return spliced;
  };

  ks::Status stopped = RunRendezvous(*machine_, options_.rendezvous, ranges,
                                     body, "apply", &batch_);
  if (!stopped.ok()) {
    if (staged_.size() == 1) {
      return stopped.WithContext(
          ks::StrPrintf("applying %s", staged_[0].plan->package->id.c_str()));
    }
    return stopped.WithContext(
        ks::StrPrintf("applying %zu packages", staged_.size()));
  }
  return ks::OkStatus();
}

ks::Status UpdateTransaction::Commit() {
  // The splice is live: from here on, failures (post_apply hooks) surface
  // as errors but the updates stay registered so they can be undone — the
  // trampolines are not unwound for a cleanup-stage error. The commit
  // fault site follows the same contract, which is why it seeds
  // first_error instead of returning before registration.
  ks::Status first_error = ks::Faults().Check("ksplice.txn.commit");
  for (Staged& staged : staged_) {
    if (first_error.ok()) {
      ks::Status hooks = core_->RunHooks(staged.update.hooks.post_apply);
      if (!hooks.ok()) {
        first_error = hooks.WithContext("post_apply");
      }
    }
    if (first_error.ok() && !options_.keep_helper) {
      // Only drop the handle once the unload actually happened: a failed
      // unload keeps the helper registered so it can still be reclaimed
      // by UnloadHelper or undo instead of leaking its arena block.
      if (machine_->UnloadModule(staged.update.helper).ok()) {
        staged.update.helper = kvm::ModuleHandle{};
      }
    }

    ApplyReport& report = staged.report;
    static_cast<StopWindow&>(report) = batch_;
    for (const AppliedFunction& fn : staged.update.functions) {
      SpliceRecord record;
      record.unit = fn.unit;
      record.symbol = fn.symbol;
      record.orig_address = fn.orig_address;
      record.repl_address = fn.repl_address;
      record.code_size = fn.code_size;
      record.repl_size = fn.repl_size;
      record.trampoline_bytes = static_cast<uint32_t>(fn.saved_bytes.size());
      report.trampoline_bytes += record.trampoline_bytes;
      report.functions.push_back(std::move(record));
    }
    batch_.functions_spliced +=
        static_cast<uint32_t>(staged.update.functions.size());

    static ks::Counter& applies =
        ks::Metrics().GetCounter("ksplice.applies");
    static ks::Counter& tramp_bytes =
        ks::Metrics().GetCounter("ksplice.trampoline_bytes");
    static ks::Counter& arena_bytes =
        ks::Metrics().GetCounter("ksplice.helper_bytes");
    applies.Add(1);
    tramp_bytes.Add(report.trampoline_bytes);
    arena_bytes.Add(report.helper_bytes);

    size_t function_count = staged.update.functions.size();
    core_->Register(std::move(staged.update));
    KS_LOG(kInfo) << "applied " << staged.plan->package->id << " ("
                  << function_count << " functions)";
  }
  return first_error;
}

void UpdateTransaction::Rollback(TxnStage failed) {
  // Compensation code is exempt from fault injection (faultinject.h): a
  // fault injected while undoing a previous fault's damage would leave the
  // machine in exactly the partial state rollback exists to prevent.
  ks::ScopedFaultSuppression suppress;
  ks::TraceSpan span("ksplice.txn.rollback");
  span.Annotate("failed_stage", NamesOf(failed).name);
  static ks::Counter& rollbacks =
      ks::Metrics().GetCounter("ksplice.txn_rollbacks");
  rollbacks.Add(1);

  // Compensate completed (or partially completed) pre_apply stages, newest
  // first, while the hooks' module code is still loaded: post_reverse is
  // the stage that undoes pre_apply's setup in a reversed update, so a
  // patch whose pre_apply has side effects pairs it with a post_reverse
  // that clears them (§5.3).
  for (auto it = staged_.rbegin(); it != staged_.rend(); ++it) {
    if (it->pre_applied) {
      core_->RunHooksBestEffort(it->update.hooks.post_reverse);
    }
  }
  // Drop every module this transaction loaded in one group unload.
  (void)machine_->UnloadGroup(group_);
}

ks::Result<BatchApplyReport> UpdateTransaction::Run(
    std::span<const PackagePlan* const> plans) {
  group_ = core_->NextTransactionGroup();

  ks::Status prepared = RunStage(TxnStage::kPrepare, [this, plans] {
    return Prepare(plans);
  });
  if (!prepared.ok()) {
    return prepared;
  }

  struct StageStep {
    TxnStage stage;
    ks::Status (UpdateTransaction::*fn)();
  };
  const StageStep steps[] = {
      {TxnStage::kMatch, &UpdateTransaction::Match},
      {TxnStage::kLoad, &UpdateTransaction::Load},
      {TxnStage::kPreApply, &UpdateTransaction::PreApply},
      {TxnStage::kRendezvous, &UpdateTransaction::Rendezvous},
  };
  for (const StageStep& step : steps) {
    ks::Status status =
        RunStage(step.stage, [this, &step] { return (this->*step.fn)(); });
    if (!status.ok()) {
      Rollback(step.stage);
      return status;
    }
  }

  // No rollback past this point: the splice is committed even if a
  // post_apply hook complains (the updates are registered for undo).
  KS_RETURN_IF_ERROR(
      RunStage(TxnStage::kCommit, [this] { return Commit(); }));

  batch_.packages = static_cast<uint32_t>(staged_.size());
  for (Staged& staged : staged_) {
    staged.report.stages = batch_.stages;
    batch_.updates.push_back(std::move(staged.report));
  }
  return std::move(batch_);
}

}  // namespace ksplice
