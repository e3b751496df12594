#include "ksplice/watchdog.h"

#include <algorithm>
#include <optional>
#include <utility>

#include "base/faultinject.h"
#include "base/logging.h"
#include "base/metrics.h"
#include "base/strings.h"

namespace ksplice {

HealthMonitor::HealthMonitor(KspliceCore* core,
                             const WatchdogOptions& options)
    : core_(core), machine_(core->machine()), options_(options) {
  // Faults taken before the monitor existed predate the updates it is
  // guarding; start the cursors at the current counters so only new
  // signals are attributed.
  seen_faults_ = machine_->FaultCount();
  seen_fixups_ = machine_->ExtableFixups();
}

std::optional<AttributedFault> HealthMonitor::Attribute(
    const kvm::FaultRecord& record) {
  for (const AppliedUpdate& update : core_->applied()) {
    for (const AppliedFunction& fn : update.functions) {
      if (record.pc >= fn.repl_address &&
          record.pc < fn.repl_address + fn.repl_size) {
        AttributedFault fault;
        fault.update = update.id;
        fault.unit = fn.unit;
        fault.symbol = fn.symbol;
        fault.tid = record.tid;
        fault.pc = record.pc;
        fault.tick = record.tick;
        fault.reason = record.reason;
        return fault;
      }
    }
    // Not inside a replacement function, but inside the update's primary
    // module (a hook, a helper routine, a new global's initializer).
    if (update.primary_size != 0 && record.pc >= update.primary_base &&
        record.pc < update.primary_base + update.primary_size) {
      AttributedFault fault;
      fault.update = update.id;
      fault.tid = record.tid;
      fault.pc = record.pc;
      fault.tick = record.tick;
      fault.reason = record.reason;
      return fault;
    }
  }
  return std::nullopt;
}

void HealthMonitor::MaybeRevert(const AttributedFault& trigger,
                                bool in_window) {
  state_ = WatchdogState::kAttributed;
  if (!in_window) {
    return;
  }
  if (fault_tally_[trigger.update] <= options_.max_faults) {
    return;
  }
  ks::Result<RevertReport> reverted = Revert(trigger.update, trigger);
  if (reverted.ok()) {
    fault_tally_.erase(trigger.update);
  }
}

void HealthMonitor::ConsumeFaults(bool in_window) {
  uint64_t total = machine_->FaultCount();
  if (total <= seen_faults_) {
    return;
  }
  uint64_t fresh = total - seen_faults_;
  seen_faults_ = total;
  report_.faults_seen += fresh;

  std::vector<kvm::FaultRecord> records = machine_->FaultRecords();
  // The record log is a bounded ring: if more faults landed than it
  // retains, the overflow is reported but cannot be attributed.
  uint64_t available = std::min<uint64_t>(fresh, records.size());
  if (available < fresh) {
    report_.unattributed.push_back(ks::StrPrintf(
        "%llu fault records evicted before sampling",
        static_cast<unsigned long long>(fresh - available)));
  }
  for (size_t i = records.size() - available; i < records.size(); ++i) {
    const kvm::FaultRecord& record = records[i];
    std::optional<AttributedFault> attributed = Attribute(record);
    if (!attributed.has_value()) {
      report_.unattributed.push_back(
          ks::StrPrintf("tid %d at 0x%08x: %s", record.tid, record.pc,
                        record.reason.c_str()));
      continue;
    }
    ++report_.faults_attributed;
    ++fault_tally_[attributed->update];
    core_->NoteAttributedFault(*attributed);
    report_.attributed.push_back(*attributed);
    MaybeRevert(*attributed, in_window);
  }
}

void HealthMonitor::ConsumeFixups() {
  uint64_t total = machine_->ExtableFixups();  // monotonic
  report_.extable_fixups += total - seen_fixups_;
  seen_fixups_ = total;
}

void HealthMonitor::Sample(bool in_window) {
  ++report_.samples;
  ks::Status sample = ks::Faults().Check("ksplice.watchdog.sample");
  if (!sample.ok()) {
    // An aborted sampling pass drops no state: the cursors are untouched,
    // so the next pass attributes everything this one would have.
    --report_.samples;
    return;
  }
  if (machine_->Halted()) {
    report_.panicked = true;
  }
  ConsumeFaults(in_window);
  ConsumeFixups();
}

WatchdogReport HealthMonitor::Soak() {
  static ks::Counter& soaks =
      ks::Metrics().GetCounter("ksplice.watchdog.soaks");
  soaks.Add(1);
  report_ = WatchdogReport{};
  report_.window_ticks = options_.soak_ticks;
  state_ = WatchdogState::kMonitoring;
  window_open_ = true;
  uint64_t start = machine_->Ticks();
  uint64_t end = start + options_.soak_ticks;
  uint64_t step = std::max<uint64_t>(options_.sample_ticks, 1);
  while (machine_->Ticks() < end && !machine_->Halted()) {
    uint64_t before = machine_->Ticks();
    (void)machine_->Advance(std::min(step, end - before));
    Sample(/*in_window=*/true);
    if (machine_->Ticks() == before) {
      break;  // nothing can run; the rest of the window would be idle
    }
  }
  window_open_ = false;
  report_.window_closed = true;
  return report_;
}

void HealthMonitor::Poll() { Sample(window_open_); }

ks::Result<RevertReport> HealthMonitor::Revert(
    const std::string& id, const AttributedFault& trigger) {
  const AppliedUpdate* update = nullptr;
  for (const AppliedUpdate& applied : core_->applied()) {
    if (applied.id == id) {
      update = &applied;
      break;
    }
  }
  if (update == nullptr) {
    return ks::NotFound(
        ks::StrPrintf("update %s is not applied", id.c_str()));
  }
  state_ = WatchdogState::kReverting;
  static ks::Counter& reverts =
      ks::Metrics().GetCounter("ksplice.watchdog.reverts");
  static ks::Counter& failures =
      ks::Metrics().GetCounter("ksplice.watchdog.revert_failures");
  reverts.Add(1);
  KS_LOG(kInfo) << "watchdog reverting " << id << ": " << trigger.reason;

  RevertReport revert;
  revert.id = id;
  revert.package_hash = update->package_hash;
  revert.trigger = trigger;
  revert.detected_tick = machine_->Ticks();
  int max_attempts = std::max(1, options_.max_revert_attempts);
  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    revert.attempts = attempt;
    // The first attempt runs exposed to fault injection — it is the path
    // the revert drill site probes. Retries are recovery of a failed
    // revert and are exempt, the same contract as undo compensation: a
    // chaos plan may fail the revert once but cannot wedge the safety
    // net into a half-reverted machine.
    std::optional<ks::ScopedFaultSuppression> suppress;
    if (attempt > 1) {
      suppress.emplace();
    }
    ks::Status status = ks::Faults().Check("ksplice.watchdog.revert");
    if (status.ok()) {
      ks::Result<UndoReport> undone = core_->Undo(id, options_.rendezvous);
      if (undone.ok()) {
        revert.reverted = true;
        revert.undo = std::move(undone).value();
        break;
      }
      status = undone.status();
    }
    revert.error = status.message();
    KS_LOG(kWarning) << "revert of " << id << " attempt " << attempt
                     << " failed: " << status.message();
    if (attempt < max_attempts) {
      // Backoff: whatever blocked the undo (a thread in the patched
      // range, a transient failure) needs machine progress to clear.
      uint64_t backoff =
          options_.revert_backoff_ticks * static_cast<uint64_t>(attempt);
      revert.backoff_ticks += backoff;
      (void)machine_->Advance(backoff);
    }
  }

  // Quarantine with the triggering fault as evidence — also on a failed
  // revert, where the undo error rides along as diagnostics and the
  // update stays fully applied (restore-or-abort: never half-reverted).
  QuarantineEntry entry;
  entry.id = id;
  entry.package_hash = revert.package_hash;
  entry.evidence = trigger.reason;
  if (!revert.reverted) {
    entry.evidence += "; revert failed: " + revert.error;
    failures.Add(1);
  }
  entry.tid = trigger.tid;
  entry.pc = trigger.pc;
  entry.tick = trigger.tick;
  core_->quarantine().Add(std::move(entry));
  revert.quarantined = true;
  state_ = WatchdogState::kQuarantined;
  report_.reverts.push_back(revert);
  return revert;
}

}  // namespace ksplice
