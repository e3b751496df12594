#include "ksplice/report.h"

#include "base/json.h"
#include "base/strings.h"

namespace ksplice {

void MatchStats::MergeFrom(const MatchStats& other) {
  sections_matched += other.sections_matched;
  candidates_tried += other.candidates_tried;
  run_bytes_matched += other.run_bytes_matched;
  nop_bytes_skipped += other.nop_bytes_skipped;
  reloc_sites_inverted += other.reloc_sites_inverted;
  symbols_recovered += other.symbols_recovered;
  ambiguity_deferrals += other.ambiguity_deferrals;
  fixpoint_passes += other.fixpoint_passes;
  pre_bytes_canonicalized += other.pre_bytes_canonicalized;
  run_bytes_canonicalized += other.run_bytes_canonicalized;
  revalidations += other.revalidations;
  extable_sections_matched += other.extable_sections_matched;
  bug_table_sections_matched += other.bug_table_sections_matched;
  date_time_sections_matched += other.date_time_sections_matched;
}

std::string MatchStats::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("sections_matched", sections_matched)
      .Field("candidates_tried", candidates_tried)
      .Field("run_bytes_matched", run_bytes_matched)
      .Field("nop_bytes_skipped", nop_bytes_skipped)
      .Field("reloc_sites_inverted", reloc_sites_inverted)
      .Field("symbols_recovered", symbols_recovered)
      .Field("ambiguity_deferrals", ambiguity_deferrals)
      .Field("fixpoint_passes", fixpoint_passes)
      .Field("pre_bytes_canonicalized", pre_bytes_canonicalized)
      .Field("run_bytes_canonicalized", run_bytes_canonicalized)
      .Field("revalidations", revalidations)
      .Field("extable_sections_matched", extable_sections_matched)
      .Field("bug_table_sections_matched", bug_table_sections_matched)
      .Field("date_time_sections_matched", date_time_sections_matched)
      .EndObject().Take();
}

std::string LintFinding::ToString() const {
  std::string where;
  if (!unit.empty() || !symbol.empty()) {
    where = unit;
    if (!symbol.empty()) {
      where += (where.empty() ? "" : ":") + symbol;
    }
    if (has_offset) {
      where += ks::StrPrintf("+0x%x", offset);
    }
    where += ": ";
  }
  std::string out = ks::StrPrintf("%s %s [%s] %s%s", rule.c_str(),
                                  LintSeverityName(severity), pass.c_str(),
                                  where.c_str(), message.c_str());
  if (!hint.empty()) {
    out += " (hint: " + hint + ")";
  }
  return out;
}

std::string LintFinding::ToJson() const {
  ks::JsonWriter json;
  json.BeginObject()
      .Field("rule", rule)
      .Field("severity", LintSeverityName(severity))
      .Field("pass", pass)
      .Field("unit", unit)
      .Field("symbol", symbol);
  if (has_offset) {
    json.Field("offset", offset);
  }
  return json.Field("message", message)
      .Field("hint", hint)
      .EndObject().Take();
}

std::string LintReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("errors", errors())
      .Field("warnings", CountAtLeast(LintSeverity::kWarning) - errors())
      .Field("notes", findings.size() - CountAtLeast(LintSeverity::kWarning))
      .Field("functions_scanned", functions_scanned)
      .Field("call_edges", call_edges)
      .Field("blocks_analyzed", blocks_analyzed)
      .Field("insns_decoded", insns_decoded)
      .Field("data_sections_compared", data_sections_compared)
      .Field("functions_summarized", functions_summarized)
      .Field("findings", findings)
      .EndObject().Take();
}

std::string UnitReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("unit", unit)
      .Field("pre_cache_hit", pre_cache_hit)
      .Field("post_cache_hit", post_cache_hit)
      .Field("pre_text_bytes", pre_text_bytes)
      .Field("post_text_bytes", post_text_bytes)
      .Field("sections_compared", sections_compared)
      .Field("sections_changed", sections_changed)
      .Field("text_changed", text_changed)
      .Field("data_changed", data_changed)
      .EndObject().Take();
}

std::string ChangedFunction::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("unit", unit)
      .Field("symbol", symbol)
      .Field("change", change)
      .Field("pre_size", pre_size)
      .Field("post_size", post_size)
      .EndObject().Take();
}

std::string CreateReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("units_rebuilt", units_rebuilt)
      .Field("cache_hits", cache_hits)
      .Field("cache_misses", cache_misses)
      .Field("prepost_wall_ns", prepost_wall_ns)
      .Field("create_wall_ns", create_wall_ns)
      .Field("targets", targets)
      .Field("units", units)
      .Field("changed_functions", changed_functions)
      .Field("lint", lint)
      .EndObject().Take();
}

std::string SpliceRecord::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("unit", unit)
      .Field("symbol", symbol)
      .Field("orig_address", orig_address)
      .Field("repl_address", repl_address)
      .Field("code_size", code_size)
      .Field("repl_size", repl_size)
      .Field("trampoline_bytes", trampoline_bytes)
      .EndObject().Take();
}

std::string QuiescenceBlocker::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("tid", tid)
      .Field("pc", pc)
      .Field("hit_address", hit_address)
      .Field("from_stack", from_stack)
      .EndObject().Take();
}

std::string StageTiming::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("stage", stage)
      .Field("wall_ns", wall_ns)
      .EndObject().Take();
}

ks::JsonWriter& StopWindow::WriteJson(ks::JsonWriter& json) const {
  return json.Field("attempts", attempts)
      .Field("quiescence_retries", quiescence_retries())
      .Field("pause_ns", pause_ns)
      .Field("retry_ticks", retry_ticks)
      .Field("blockers", blockers);
}

std::string ApplyReport::ToJson() const {
  ks::JsonWriter json;
  json.BeginObject()
      .Field("id", id)
      .Field("functions", functions)
      .Field("match", match);
  return WriteJson(json)
      .Field("helper_bytes", helper_bytes)
      .Field("primary_bytes", primary_bytes)
      .Field("trampoline_bytes", trampoline_bytes)
      .Field("helper_retained", helper_retained)
      .Field("stages", stages)
      .EndObject().Take();
}

std::string BatchApplyReport::ToJson() const {
  ks::JsonWriter json;
  json.BeginObject()
      .Field("packages", packages)
      .Field("updates", updates);
  return WriteJson(json)
      .Field("functions_spliced", functions_spliced)
      .Field("stages", stages)
      .EndObject().Take();
}

std::string UndoReport::ToJson() const {
  ks::JsonWriter json;
  json.BeginObject()
      .Field("id", id)
      .Field("functions_restored", functions_restored);
  return WriteJson(json)
      .Field("bytes_restored", bytes_restored)
      .Field("primary_bytes_reclaimed", primary_bytes_reclaimed)
      .Field("helper_bytes_reclaimed", helper_bytes_reclaimed)
      .Field("out_of_order", out_of_order)
      .Field("chains_rewritten", chains_rewritten)
      .EndObject().Take();
}

std::string AttributedFault::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("update", update)
      .Field("unit", unit)
      .Field("symbol", symbol)
      .Field("tid", tid)
      .Field("pc", pc)
      .Field("tick", tick)
      .Field("reason", reason)
      .EndObject().Take();
}

std::string RevertReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("package_hash", package_hash)
      .Field("trigger", trigger)
      .Field("detected_tick", detected_tick)
      .Field("attempts", attempts)
      .Field("backoff_ticks", backoff_ticks)
      .Field("reverted", reverted)
      .Field("quarantined", quarantined)
      .Field("error", error)
      .Field("undo", undo)
      .EndObject().Take();
}

std::string WatchdogReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("window_ticks", window_ticks)
      .Field("samples", samples)
      .Field("faults_seen", faults_seen)
      .Field("faults_attributed", faults_attributed)
      .Field("extable_fixups", extable_fixups)
      .Field("panicked", panicked)
      .Field("window_closed", window_closed)
      .Field("attributed", attributed)
      .Field("unattributed", unattributed)
      .Field("reverts", reverts)
      .EndObject().Take();
}

std::string QuarantineEntry::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("package_hash", package_hash)
      .Field("evidence", evidence)
      .Field("tid", tid)
      .Field("pc", pc)
      .Field("tick", tick)
      .EndObject().Take();
}

std::string HealthStatus::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("faults_total", faults_total)
      .Field("faults_attributed", faults_attributed)
      .Field("extable_fixups", extable_fixups)
      .Field("dropped_log_lines", dropped_log_lines)
      .Field("panicked", panicked)
      .Field("attributed", attributed)
      .EndObject().Take();
}

std::string UpdateStatusRow::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("functions", functions)
      .Field("helper_loaded", helper_loaded)
      .Field("helper_bytes", helper_bytes)
      .Field("primary_bytes", primary_bytes)
      .Field("trampoline_bytes", trampoline_bytes)
      .Field("attributed_faults", attributed_faults)
      .Field("symbols", symbols)
      .EndObject().Take();
}

std::string StatusReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("updates", updates)
      .Field("arena_bytes_in_use", arena_bytes_in_use)
      .Field("health", health)
      .Field("quarantine", quarantine)
      .EndObject().Take();
}

const char* RolloutNodeOutcomeName(RolloutNodeOutcome outcome) {
  switch (outcome) {
    case RolloutNodeOutcome::kNotAttempted:
      return "not_attempted";
    case RolloutNodeOutcome::kAlreadyApplied:
      return "already_applied";
    case RolloutNodeOutcome::kPatched:
      return "patched";
    case RolloutNodeOutcome::kSkippedStale:
      return "skipped_stale";
    case RolloutNodeOutcome::kFailed:
      return "failed";
    case RolloutNodeOutcome::kRolledBack:
      return "rolled_back";
    case RolloutNodeOutcome::kAutoReverted:
      return "auto_reverted";
  }
  return "?";
}

std::string RolloutNodeReport::ToJson() const {
  ks::JsonWriter json;
  json.BeginObject()
      .Field("node", node)
      .Field("version", version)
      .Field("wave", wave)
      .Field("canary", canary)
      .Field("outcome", RolloutNodeOutcomeName(outcome));
  return WriteJson(json)
      .Field("functions_spliced", functions_spliced)
      .Field("soak_faults", soak_faults)
      .Field("error", error)
      .EndObject().Take();
}

std::string RolloutWaveReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("wave", wave)
      .Field("canary", canary)
      .Field("nodes", nodes)
      .Field("patched", patched)
      .Field("already_applied", already_applied)
      .Field("skipped_stale", skipped_stale)
      .Field("failed", failed)
      .Field("auto_reverted", auto_reverted)
      .Field("wall_ns", wall_ns)
      .Field("max_pause_ns", max_pause_ns)
      .Field("tripped", tripped)
      .EndObject().Take();
}

std::string RolloutReport::ToJson() const {
  return ks::JsonWriter().BeginObject()
      .Field("id", id)
      .Field("fleet_size", fleet_size)
      .Field("aborted", aborted)
      .Field("tripped_wave", tripped_wave)
      .Field("waves", waves)
      .Field("patched", patched)
      .Field("already_applied", already_applied)
      .Field("skipped_stale", skipped_stale)
      .Field("failed", failed)
      .Field("rolled_back", rolled_back)
      .Field("auto_reverted", auto_reverted)
      .Field("not_attempted", not_attempted)
      .Field("blacklisted", blacklisted)
      .Field("wall_ns", wall_ns)
      .Field("nodes_per_sec", nodes_per_sec)
      .Field("pause_p50_ns", pause_p50_ns)
      .Field("pause_p99_ns", pause_p99_ns)
      .Field("pause_max_ns", pause_max_ns)
      .Field("wave_reports", wave_reports)
      .Field("nodes", nodes)
      .EndObject().Take();
}

}  // namespace ksplice
