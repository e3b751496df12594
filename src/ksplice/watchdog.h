// The post-apply safety net: runtime health watchdog + automatic revert.
//
// A successful apply is not the end of an update's risk: a bad patch can
// commit cleanly and only start oopsing under real load. HealthMonitor
// closes that loop over one KspliceCore (core.h). It samples the core's
// Machine over a configurable soak window — fault count (BUG traps,
// oopses) and the panic flag — and *attributes* each fault by mapping
// its PC against every applied update's replacement-code ranges (and
// primary-module range) in the core's registry. An attributed regression
// inside the window drives an automatic revert through KspliceCore::Undo,
// with its own attempt/backoff loop on top of the stop_machine retry
// policy; the offending package is then quarantined by content hash in
// the core's Quarantine (quarantine.h) so a re-apply is refused without
// --force.
//
// State machine (see DESIGN.md "Safety net"):
//
//   Monitoring --attributed fault--> Attributed --> Reverting
//       |                                               |
//       | window closes                   undo ok / all attempts failed
//       v                                               v
//   (report only: post-window faults             Quarantined (with the
//    are evidence, never auto-reverted)           undo error as diagnostics
//                                                 when the revert failed —
//                                                 the update stays FULLY
//                                                 applied, never half)
//
// Failure semantics mirror the undo engine's restore-or-abort contract: a
// failed revert attempt leaves the update completely applied; retries run
// under ScopedFaultSuppression (recovery code is exempt from fault
// injection, as manual undo compensation is), so chaos plans can fail the
// first attempt but cannot wedge the safety net.

#ifndef KSPLICE_KSPLICE_WATCHDOG_H_
#define KSPLICE_KSPLICE_WATCHDOG_H_

#include <cstdint>
#include <map>
#include <optional>
#include <string>

#include "base/status.h"
#include "ksplice/core.h"
#include "ksplice/report.h"

namespace ksplice {

struct WatchdogOptions {
  // Soak window length in VM ticks: faults taken while the window is open
  // are eligible for automatic revert; later faults are evidence only.
  uint64_t soak_ticks = 200'000;
  // Machine progress per sampling pass (smaller = tighter detection
  // latency, more sampling overhead).
  uint64_t sample_ticks = 10'000;
  // Attributed faults tolerated per update before the revert fires (0 =
  // any attributed fault is a regression).
  uint64_t max_faults = 0;
  // Revert attempt budget and the backoff between failed attempts: the
  // machine advances attempt * revert_backoff_ticks before the retry, on
  // the reasoning that whatever blocked the undo (a thread in the patched
  // range, a transient failure) needs machine progress to clear.
  int max_revert_attempts = 3;
  uint64_t revert_backoff_ticks = 20'000;
  // stop_machine retry policy for each undo attempt (rendezvous.h).
  RendezvousOptions rendezvous;
};

enum class WatchdogState : uint8_t {
  kMonitoring = 0,
  kAttributed = 1,
  kReverting = 2,
  kQuarantined = 3,
};

class HealthMonitor {
 public:
  explicit HealthMonitor(KspliceCore* core,
                         const WatchdogOptions& options = {});

  // Runs one soak window: alternates Advance(sample_ticks) with sampling
  // passes until the window is consumed, the machine halts, or no thread
  // can make progress. Attributed regressions inside the window are
  // auto-reverted. Returns the window's report; report() keeps it for
  // later Poll() calls to extend.
  WatchdogReport Soak();

  // One sampling pass over the current signals without advancing the
  // machine. After Soak() returns (window closed), new faults are
  // attributed and recorded as evidence but never auto-reverted.
  void Poll();

  // Reverts `id` now, blaming `trigger`: the revert/quarantine half of the
  // safety net without the sampling half. Public for operator-forced
  // reverts and for drills; Soak() funnels through this. Fails with
  // kNotFound if `id` is not applied. A failed revert still quarantines
  // (with the undo error as diagnostics) and returns the report with
  // reverted == false inside an OK result; only a bad `id` is an error.
  ks::Result<RevertReport> Revert(const std::string& id,
                                  const AttributedFault& trigger);

  WatchdogState state() const { return state_; }
  const WatchdogReport& report() const { return report_; }

 private:
  // Maps a faulting PC into the applied-update registry: a hit in a
  // function's replacement range names (update, unit, symbol); a hit
  // elsewhere in an update's primary module names just the update.
  std::optional<AttributedFault> Attribute(const kvm::FaultRecord& record);

  // One sampling pass; `in_window` gates the auto-revert.
  void Sample(bool in_window);

  // Consumes fault records the monitor has not seen yet, attributes them,
  // and fires reverts for updates whose tally crossed max_faults.
  void ConsumeFaults(bool in_window);
  // Counts extable fixups taken since the last pass. Fixups are recovered
  // loads — normal kernel behavior — so they are reported, never
  // attributed.
  void ConsumeFixups();
  void MaybeRevert(const AttributedFault& trigger, bool in_window);

  KspliceCore* core_;
  kvm::Machine* machine_;
  WatchdogOptions options_;
  WatchdogState state_ = WatchdogState::kMonitoring;
  WatchdogReport report_;
  bool window_open_ = false;

  // Sampling cursors: counts consumed so far (monotonic machine counters,
  // immune to ring eviction in the record logs).
  uint64_t seen_faults_ = 0;
  uint64_t seen_fixups_ = 0;
  // Per-update attributed-fault tallies for the max_faults threshold.
  std::map<std::string, uint64_t> fault_tally_;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_WATCHDOG_H_
