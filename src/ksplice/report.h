// Typed per-phase reports for the create -> match -> apply pipeline.
//
// Every phase of a Ksplice operation returns a machine-readable account of
// what it did and why: CreateUpdate fills a CreateReport (per-unit
// compile/cache/diff statistics and the changed-function list), run-pre
// matching fills a MatchStats (candidates tried, bytes decoded, relocation
// sites inverted), and KspliceCore (core.h) returns ApplyReport from
// Apply, BatchApplyReport from ApplyAll and UndoReport from Undo
// (per-function splice records, stop_machine pause, quiescence retries,
// arena bytes). Callers consume these structures — benches, ksplice_tool,
// the corpus evaluator — instead of scraping internal ledgers like
// AppliedUpdate.
//
// Each report serializes to JSON (ToJson) with stable keys through the one
// writer in base/json.h; the same numbers also flow into the global metrics
// registry (base/metrics.h), so a report is the per-operation view and the
// registry the per-process aggregate.

#ifndef KSPLICE_KSPLICE_REPORT_H_
#define KSPLICE_KSPLICE_REPORT_H_

#include <cstdint>
#include <string>
#include <vector>

namespace ks {
class JsonWriter;
}  // namespace ks

namespace ksplice {

// Run-pre matching statistics for one MatchUnit call (§4.3's "passes over
// every byte of the pre code" made measurable).
struct MatchStats {
  uint64_t sections_matched = 0;    // text sections accepted
  uint64_t candidates_tried = 0;    // (section, candidate) verifications
  uint64_t run_bytes_matched = 0;   // run bytes covered by accepted matches
  uint64_t nop_bytes_skipped = 0;   // run nop bytes among those decoded
  uint64_t reloc_sites_inverted = 0;  // relocation algebra inversions
  uint64_t symbols_recovered = 0;   // distinct symbol values in the result
  uint64_t ambiguity_deferrals = 0; // sections deferred to a later pass
  uint64_t fixpoint_passes = 0;     // disambiguation rounds

  // Decode-once work. Pre bytes are decoded once per section, when the
  // unit's MatchPlan is built (runpre.h), and charged only to whoever
  // built it: MatchUnit(ObjectFile) and Apply/ApplyAll(UpdatePackage)
  // report them, while a match against a shared, prebuilt plan (every
  // node of a fleet rollout) reports 0 here. Run bytes are decoded once
  // per candidate address per match, or claimed without decoding where
  // the byte path decides.
  uint64_t pre_bytes_canonicalized = 0;
  uint64_t run_bytes_canonicalized = 0;
  uint64_t revalidations = 0;  // cached successes re-checked across passes

  // Per-howto structural matching (special sections, §4.3): sections
  // accepted under each non-text strategy. Text sections count under
  // sections_matched only.
  uint64_t extable_sections_matched = 0;    // entry-structural
  uint64_t bug_table_sections_matched = 0;  // entry-structural
  uint64_t date_time_sections_matched = 0;  // content-ignoring

  void MergeFrom(const MatchStats& other);
  std::string ToJson() const;
};

// ------------------------------------------------------------------
// Lint diagnostics (src/kanalyze): typed findings of the static
// patch-safety analyzer. Rule IDs are stable ("KSA101", ...); the first
// digit names the pass family (1 call graph, 2 CFG/bytecode, 3 ABI/layout,
// 4 quiescence risk, 5 semantic diff). DESIGN.md carries the full rule
// catalog.

enum class LintSeverity : uint8_t { kNote = 0, kWarning = 1, kError = 2 };

inline const char* LintSeverityName(LintSeverity severity) {
  switch (severity) {
    case LintSeverity::kNote:
      return "note";
    case LintSeverity::kWarning:
      return "warning";
    case LintSeverity::kError:
      return "error";
  }
  return "?";
}

// One diagnostic: rule id, severity, location (unit/symbol, and a byte
// offset into the named section when the finding is about a particular
// instruction), message, and a fix hint.
struct LintFinding {
  std::string rule;  // "KSA202"
  LintSeverity severity = LintSeverity::kNote;
  std::string pass;  // "callgraph" | "cfg" | "abi" | "quiescence" |
                     // "semdiff"
  std::string unit;    // object/unit the finding is in (may be empty)
  std::string symbol;  // function or section name (may be empty)
  uint32_t offset = 0;      // byte offset within `symbol`'s section
  bool has_offset = false;  // whether `offset` is meaningful
  std::string message;
  std::string hint;  // how to revise the patch/package

  std::string ToString() const;  // "KSA202 error [cfg] unit:sym+0x12: ..."
  std::string ToJson() const;
};

// Everything the analyzer observed over one package: the findings plus
// per-pass work counters (the registry carries the per-process aggregate
// under "kanalyze.*").
struct LintReport {
  std::string id;  // package id
  std::vector<LintFinding> findings;
  uint64_t functions_scanned = 0;   // text sections analyzed (pre + post)
  uint64_t call_edges = 0;          // call-graph edges recovered
  uint64_t blocks_analyzed = 0;     // CFG basic blocks
  uint64_t insns_decoded = 0;       // instructions decoded across passes
  uint64_t data_sections_compared = 0;  // ABI differ pairs
  uint64_t functions_summarized = 0;    // side-effect summaries computed

  size_t CountAtLeast(LintSeverity severity) const {
    size_t n = 0;
    for (const LintFinding& finding : findings) {
      if (finding.severity >= severity) {
        ++n;
      }
    }
    return n;
  }
  size_t errors() const { return CountAtLeast(LintSeverity::kError); }

  std::string ToJson() const;
};

// One rebuilt unit's double build and section diff.
struct UnitReport {
  std::string unit;
  bool pre_cache_hit = false;   // object served from the ObjectCache
  bool post_cache_hit = false;
  uint32_t pre_text_bytes = 0;
  uint32_t post_text_bytes = 0;
  uint32_t sections_compared = 0;  // union of pre/post section names
  uint32_t sections_changed = 0;   // modified + added + removed
  uint32_t text_changed = 0;
  uint32_t data_changed = 0;

  std::string ToJson() const;
};

// One function the patch changed at the object level.
struct ChangedFunction {
  std::string unit;
  std::string symbol;
  std::string change;  // "modified" | "added" | "removed"
  uint32_t pre_size = 0;   // text bytes before the patch (0 when added)
  uint32_t post_size = 0;  // text bytes after (0 when removed)

  std::string ToJson() const;
};

// Everything ksplice-create observed: compile/cache traffic, the section
// diff, and the changed-function list with sizes.
struct CreateReport {
  std::string id;
  uint32_t units_rebuilt = 0;
  uint64_t cache_hits = 0;    // of the 2 * units_rebuilt unit compiles
  uint64_t cache_misses = 0;
  uint64_t prepost_wall_ns = 0;  // double build + section diff
  uint64_t create_wall_ns = 0;   // whole CreateUpdate call
  uint32_t targets = 0;          // functions the package will splice
  std::vector<UnitReport> units;
  std::vector<ChangedFunction> changed_functions;
  // Static patch-safety findings (CreateOptions::lint != kOff). Rides into
  // the .report.json sidecar so `inspect` shows what the analyzer said.
  LintReport lint;

  std::string ToJson() const;
};

// One spliced function of an applied update (the caller-facing subset of
// the internal AppliedFunction ledger).
struct SpliceRecord {
  std::string unit;
  std::string symbol;
  uint32_t orig_address = 0;  // entry of the obsolete function
  uint32_t repl_address = 0;  // the new code in the primary module
  uint32_t code_size = 0;     // matched run code bytes
  uint32_t repl_size = 0;
  uint32_t trampoline_bytes = 0;

  std::string ToJson() const;
};

// One thread that blocked a stop_machine quiescence check (§5.2): its pc,
// or a conservatively-scanned stack word treated as a return address, fell
// inside a range being patched. Reports carry the union over every failed
// attempt so an operator can see *why* an update would not land even when
// a later retry eventually succeeded.
struct QuiescenceBlocker {
  int tid = 0;
  uint32_t pc = 0;           // the thread's program counter at scan time
  uint32_t hit_address = 0;  // the address that landed in a patched range
  bool from_stack = false;   // found by the stack scan, not the pc check

  std::string ToJson() const;
};

// Wall time one transaction stage took (Prepare, Match, Load, PreApply,
// Rendezvous, Commit — see ksplice/transaction.h).
struct StageTiming {
  std::string stage;
  uint64_t wall_ns = 0;

  std::string ToJson() const;
};

// What one stop_machine rendezvous did (§5.2), success or not: the record
// apply, batch apply and undo share. RunRendezvous (rendezvous.h) fills
// it; nothing else assigns its fields.
struct StopWindow {
  int attempts = 0;          // stop windows opened (1 = first try worked)
  uint64_t pause_ns = 0;     // wall time of the successful stop window
  uint64_t retry_ticks = 0;  // VM ticks advanced across backoff waits
  // Threads that blocked quiescence, the union over every failed attempt
  // deduplicated by thread and pc (shared across a batch).
  std::vector<QuiescenceBlocker> blockers;

  int quiescence_retries() const { return attempts > 0 ? attempts - 1 : 0; }

  // Writes the window's fields (attempts, quiescence_retries, pause_ns,
  // retry_ticks, blockers) into an open JSON object.
  ks::JsonWriter& WriteJson(ks::JsonWriter& json) const;
};

// What KspliceCore::Apply did. `id` doubles as the undo handle. In a batch
// the window is the batch's, copied into every member report.
struct ApplyReport : StopWindow {
  std::string id;
  std::vector<SpliceRecord> functions;
  MatchStats match;              // aggregated run-pre stats (all units)
  uint64_t helper_bytes = 0;     // helper image arena bytes
  uint32_t primary_bytes = 0;    // primary module arena bytes
  uint32_t trampoline_bytes = 0; // total bytes spliced over
  bool helper_retained = false;  // ApplyOptions::keep_helper
  // Per-stage wall times of the transaction that applied this update. In a
  // batch the stages are shared, so every member report carries the same
  // timings.
  std::vector<StageTiming> stages;

  std::string ToJson() const;
};

// What KspliceCore::ApplyAll did: one transaction over N packages with a
// single shared rendezvous. The window is a property of the batch, not of
// any one update.
struct BatchApplyReport : StopWindow {
  uint32_t packages = 0;          // updates applied (== updates.size())
  std::vector<ApplyReport> updates;
  uint32_t functions_spliced = 0; // across all packages
  std::vector<StageTiming> stages;

  std::string ToJson() const;
};

// What KspliceCore::Undo did.
struct UndoReport : StopWindow {
  std::string id;
  uint32_t functions_restored = 0;
  uint32_t bytes_restored = 0;            // trampoline bytes put back
  uint32_t primary_bytes_reclaimed = 0;   // module arena bytes freed
  uint32_t helper_bytes_reclaimed = 0;    // 0 when already unloaded
  bool out_of_order = false;              // reversed from mid-stack (§5.4)
  // Newer updates whose stacked records were re-pointed at this update's
  // replaced code when it left the stack (0 for LIFO undo).
  uint32_t chains_rewritten = 0;

  std::string ToJson() const;
};

// ------------------------------------------------------------------
// Post-apply safety net (src/ksplice/watchdog.{h,cc}): health monitoring,
// fault attribution, automatic revert, and package quarantine.

// One fault whose PC the watchdog mapped into an applied update's
// replacement code (or primary module): the evidence row of an attributed
// regression.
struct AttributedFault {
  std::string update;  // applied update id the faulting PC landed in
  std::string unit;    // patched function whose replacement contained it
  std::string symbol;  // (both empty when only the module range matched)
  int tid = 0;
  uint32_t pc = 0;
  uint64_t tick = 0;   // machine tick the fault was taken at
  std::string reason;  // fault text, e.g. "kernel BUG at unit:line"

  std::string ToJson() const;
};

// What one automatic (or operator-forced) revert did, naming the fault
// that triggered it. attempts > 1 means the first undo failed and the
// watchdog backed off and retried (restore-or-abort each time: a failed
// attempt leaves the update fully applied, never half-reverted).
struct RevertReport {
  std::string id;             // update reverted
  uint64_t package_hash = 0;  // content hash the package is quarantined under
  AttributedFault trigger;    // the fault that tripped the watchdog
  uint64_t detected_tick = 0; // machine tick at attribution
  int attempts = 0;           // undo attempts (>1 = backoff exercised)
  uint64_t backoff_ticks = 0; // VM ticks advanced between failed attempts
  bool reverted = false;      // undo succeeded (byte-identical restore)
  bool quarantined = false;   // package hash registered in the quarantine
  std::string error;          // last undo error when !reverted
  UndoReport undo;            // populated when reverted

  std::string ToJson() const;
};

// One soak window's account: what the monitor saw, what it attributed,
// and what it reverted.
struct WatchdogReport {
  uint64_t window_ticks = 0;  // configured soak window length
  uint64_t samples = 0;       // sampling passes taken
  uint64_t faults_seen = 0;   // new faults observed during the window
  uint64_t faults_attributed = 0;
  uint64_t extable_fixups = 0;  // fixup delta over the window
  bool panicked = false;        // machine halted during the window
  bool window_closed = false;   // the monitor ran the window to its end
  std::vector<AttributedFault> attributed;  // evidence rows
  std::vector<std::string> unattributed;    // fault lines in unpatched code
  std::vector<RevertReport> reverts;        // auto-reverts driven

  std::string ToJson() const;
};

// One quarantined package: the registry is keyed by package content hash,
// with the triggering fault carried as evidence.
struct QuarantineEntry {
  std::string id;             // package id at quarantine time
  uint64_t package_hash = 0;  // FNV-64 over UpdatePackage::Serialize()
  std::string evidence;       // triggering fault text
  int tid = 0;                // triggering fault coordinates
  uint32_t pc = 0;
  uint64_t tick = 0;

  std::string ToJson() const;
};

// Machine-health summary for `ksplice_tool status --json`'s "health"
// block: lifetime fault counters plus the attributed-fault evidence the
// core has accumulated.
struct HealthStatus {
  uint64_t faults_total = 0;       // machine-lifetime fault count
  uint64_t faults_attributed = 0;  // faults attributed to applied updates
  uint64_t extable_fixups = 0;
  uint64_t dropped_log_lines = 0;  // evicted from the bounded kvm logs
  bool panicked = false;
  std::vector<AttributedFault> attributed;

  std::string ToJson() const;
};

// One row of the applied-update stack (`ksplice_tool status`).
struct UpdateStatusRow {
  std::string id;
  uint32_t functions = 0;
  bool helper_loaded = false;     // helper image still resident
  uint32_t helper_bytes = 0;      // arena bytes while resident
  uint32_t primary_bytes = 0;
  uint32_t trampoline_bytes = 0;
  uint64_t attributed_faults = 0; // watchdog evidence against this update
  std::vector<std::string> symbols;  // "unit:symbol" per spliced function

  std::string ToJson() const;
};

// The applied-update stack plus arena accounting, machine health, and the
// quarantine registry.
struct StatusReport {
  std::vector<UpdateStatusRow> updates;
  uint32_t arena_bytes_in_use = 0;  // whole module arena
  HealthStatus health;
  std::vector<QuarantineEntry> quarantine;

  std::string ToJson() const;
};

// ------------------------------------------------------------------
// Fleet rollout reports (src/fleet): what a wave/canary rollout did to
// every node. Same ToJson contract as the per-machine reports above, so
// `ksplice_tool rollout --json`, bench --report-dir and the tests all
// consume one serialization.

// Final disposition of one node after the rollout ends.
enum class RolloutNodeOutcome : uint8_t {
  kNotAttempted = 0,   // rollout aborted before this node's wave
  kAlreadyApplied = 1, // every package already on the node's stack
  kPatched = 2,        // applied and still applied at the end
  kSkippedStale = 3,   // run-pre mismatch (drifted kernel) — not an error
  kFailed = 4,         // apply failed for a non-staleness reason
  kRolledBack = 5,     // patched, then undone by a fleet-wide abort
  kAutoReverted = 6,   // patched, regressed during soak, auto-reverted
};

const char* RolloutNodeOutcomeName(RolloutNodeOutcome outcome);

// One node's row in the rollout ledger. The window is the node's batch
// apply's (zero if the node was not patched).
struct RolloutNodeReport : StopWindow {
  std::string node;      // fleet node id
  std::string version;   // kernel version label ("v2.6.1", ...)
  int wave = -1;         // wave index the node was scheduled in (-1 = none)
  bool canary = false;   // scheduled in the canary wave
  RolloutNodeOutcome outcome = RolloutNodeOutcome::kNotAttempted;
  uint32_t functions_spliced = 0;
  uint64_t soak_faults = 0;  // faults attributed during the soak phase
  std::string error;  // status message for kSkippedStale / kFailed

  std::string ToJson() const;
};

// One wave's aggregate: how many nodes it touched and whether its failure
// fraction tripped the abort threshold.
struct RolloutWaveReport {
  int wave = 0;
  bool canary = false;
  uint32_t nodes = 0;
  uint32_t patched = 0;
  uint32_t already_applied = 0;
  uint32_t skipped_stale = 0;
  uint32_t failed = 0;
  uint32_t auto_reverted = 0;   // nodes reverted by their soak watchdog
  uint64_t wall_ns = 0;         // wave fan-out wall time
  uint64_t max_pause_ns = 0;    // worst per-node stop window in the wave
  bool tripped = false;         // failure fraction exceeded the threshold

  std::string ToJson() const;
};

// The whole rollout: totals over final node outcomes (a node that was
// patched and then rolled back counts under rolled_back only), throughput,
// pause percentiles from the fleet.node_pause_ns histogram, and the
// per-wave / per-node ledgers.
struct RolloutReport {
  std::string id;          // update id(s), "+"-joined for batches
  uint32_t fleet_size = 0;
  bool aborted = false;    // a wave tripped and the rollout stopped
  int tripped_wave = -1;   // which wave tripped (-1 = none)
  uint32_t waves = 0;      // waves actually dispatched
  uint32_t patched = 0;
  uint32_t already_applied = 0;
  uint32_t skipped_stale = 0;
  uint32_t failed = 0;
  uint32_t rolled_back = 0;    // undone by the fleet-wide abort
  uint32_t auto_reverted = 0;  // reverted by per-node soak watchdogs
  uint32_t not_attempted = 0;  // waves never dispatched after the trip
  // Packages blacklisted fleet-wide after a soak-tripped abort, as
  // "id#hash" strings (the fleet blacklist itself is a Quarantine keyed by
  // content hash).
  std::vector<std::string> blacklisted;
  uint64_t wall_ns = 0;        // whole rollout
  double nodes_per_sec = 0.0;  // attempted nodes / wall seconds
  uint64_t pause_p50_ns = 0;   // per-node stop-window percentiles
  uint64_t pause_p99_ns = 0;
  uint64_t pause_max_ns = 0;
  std::vector<RolloutWaveReport> wave_reports;
  std::vector<RolloutNodeReport> nodes;

  std::string ToJson() const;
};

}  // namespace ksplice

#endif  // KSPLICE_KSPLICE_REPORT_H_
