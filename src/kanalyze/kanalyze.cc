#include "kanalyze/kanalyze.h"

#include <algorithm>
#include <set>
#include <tuple>

#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "kanalyze/cfg.h"

namespace kanalyze {

namespace {

using ksplice::LintFinding;
using ksplice::LintReport;
using ksplice::LintSeverity;

LintFinding CallGraphFinding(const char* rule, LintSeverity severity,
                             std::string unit, std::string symbol,
                             std::string message, std::string hint) {
  LintFinding finding;
  finding.rule = rule;
  finding.severity = severity;
  finding.pass = "callgraph";
  finding.unit = std::move(unit);
  finding.symbol = std::move(symbol);
  finding.message = std::move(message);
  finding.hint = std::move(hint);
  return finding;
}

int SeverityRank(LintSeverity severity) {
  return -static_cast<int>(severity);  // errors first
}

// KSA103 fires when a patched function has at least this many distinct
// static callers in the pre kernel (a busy function is likelier to be on
// some thread's stack when stop_machine rendezvous).
constexpr uint32_t kFaninNoteThreshold = 8;

void RunCallGraphPass(const ksplice::UpdatePackage& package,
                      const CallGraph& graph, LintReport* report) {
  report->call_edges += graph.edges;
  report->insns_decoded += graph.insns_decoded;
  report->functions_scanned += graph.nodes.size();

  // KSA101: scoped imports that resolve nowhere — a guaranteed apply-time
  // link failure (run-pre has no symbol to recover).
  std::set<std::string> seen_imports;
  for (const DanglingImport& dangling : graph.dangling) {
    if (!seen_imports.insert(dangling.unit + "\0" + dangling.import)
             .second) {
      continue;
    }
    report->findings.push_back(CallGraphFinding(
        "KSA101", LintSeverity::kError, dangling.unit, dangling.symbol,
        ks::StrPrintf("reference to '%s' cannot resolve: the unit's "
                      "helper object defines no such symbol",
                      dangling.import.c_str()),
        "the helper must carry the entire optimization unit (§5.1); "
        "rebuild the package from matching pre source"));
  }

  // KSA104: targets that name code the package does not carry.
  for (const ksplice::Target& target : package.targets) {
    bool has_primary = graph.FindPrimaryNode(target.unit, target.symbol) >= 0;
    bool has_helper = graph.FindHelperNode(target.unit, target.symbol) >= 0;
    if (!has_primary || !has_helper) {
      report->findings.push_back(CallGraphFinding(
          "KSA104", LintSeverity::kError, target.unit, target.symbol,
          ks::StrPrintf(
              "splice target missing from the package (%s object has no "
              "'%s')",
              !has_primary ? "primary" : "helper", target.symbol.c_str()),
          "every target needs replacement code in a primary object and "
          "its pre image in that unit's helper"));
    }
  }

  // KSA102/KSA103 evaluate each patched function against the graph.
  for (const ksplice::Target& target : package.targets) {
    int primary = graph.FindPrimaryNode(target.unit, target.symbol);
    if (primary >= 0 && graph.OnCycle(primary)) {
      report->findings.push_back(CallGraphFinding(
          "KSA102", LintSeverity::kWarning, target.unit, target.symbol,
          "patched function is recursive: long-lived activation frames "
          "make the §4.2 stack check likelier to fail repeatedly",
          "expect quiescence retries on busy systems"));
    }
    int helper = graph.FindHelperNode(target.unit, target.symbol);
    if (helper >= 0) {
      uint32_t fan_in = static_cast<uint32_t>(
          graph.callers[static_cast<size_t>(helper)].size());
      if (fan_in >= kFaninNoteThreshold) {
        report->findings.push_back(CallGraphFinding(
            "KSA103", LintSeverity::kNote, target.unit, target.symbol,
            ks::StrPrintf("high fan-in: %u static caller(s) in the pre "
                          "kernel reach this function",
                          fan_in),
            "a hot function raises the chance a thread is executing it "
            "when stop_machine rendezvous"));
      }
    }
  }
}

void RunCfgPass(const ksplice::UpdatePackage& package, LintReport* report) {
  for (const kelf::ObjectFile& primary : package.primary_objects) {
    // Exception-table fixup targets are entry points the static CFG
    // cannot see (the fault dispatcher jumps there): collect them per
    // text section so the recovery blocks do not lint as unreachable.
    std::map<int, std::set<uint32_t>> fixups_by_section;
    for (const kelf::Section& table : primary.sections()) {
      if (table.howto != kelf::Howto::kExtable) {
        continue;
      }
      for (const kelf::Relocation& rel : table.relocs) {
        if (rel.offset % kelf::kHowtoEntrySize != 4 || rel.symbol < 0 ||
            rel.symbol >= static_cast<int>(primary.symbols().size())) {
          continue;  // word0 (faulting insn) is in normal control flow
        }
        const kelf::Symbol& sym =
            primary.symbols()[static_cast<size_t>(rel.symbol)];
        if (!sym.defined()) {
          continue;
        }
        fixups_by_section[sym.section].insert(
            sym.value + static_cast<uint32_t>(rel.addend));
      }
    }
    for (size_t si = 0; si < primary.sections().size(); ++si) {
      const kelf::Section& section = primary.sections()[si];
      if (section.kind != kelf::SectionKind::kText ||
          section.bytes.empty()) {
        continue;
      }
      std::string symbol = section.name;
      std::optional<int> def =
          primary.DefiningSymbolForSection(static_cast<int>(si));
      if (def.has_value()) {
        symbol = primary.symbols()[static_cast<size_t>(*def)].name;
      }
      VerifyFunction(primary.source_name(), symbol, section, report,
                     fixups_by_section[static_cast<int>(si)]);
    }
  }
}

}  // namespace

ks::Result<LintReport> AnalyzePackage(const ksplice::UpdatePackage& package,
                                      const AnalyzeOptions& options) {
  ks::TraceSpan span("kanalyze.lint");
  static ks::Counter& packages_linted =
      ks::Metrics().GetCounter("kanalyze.packages_linted");
  static ks::Counter& functions_scanned =
      ks::Metrics().GetCounter("kanalyze.functions_scanned");
  static ks::Counter& findings_error =
      ks::Metrics().GetCounter("kanalyze.findings.error");
  static ks::Counter& findings_warning =
      ks::Metrics().GetCounter("kanalyze.findings.warning");
  static ks::Counter& findings_note =
      ks::Metrics().GetCounter("kanalyze.findings.note");
  static ks::Histogram& callgraph_ns =
      ks::Metrics().GetHistogram("kanalyze.callgraph_ns");
  static ks::Histogram& summary_ns =
      ks::Metrics().GetHistogram("kanalyze.summary_ns");
  static ks::Histogram& cfg_ns = ks::Metrics().GetHistogram("kanalyze.cfg_ns");
  static ks::Histogram& abi_ns = ks::Metrics().GetHistogram("kanalyze.abi_ns");
  static ks::Histogram& quiescence_ns =
      ks::Metrics().GetHistogram("kanalyze.quiescence_ns");
  static ks::Histogram& semdiff_ns =
      ks::Metrics().GetHistogram("kanalyze.semdiff_ns");
  static ks::Histogram& howto_ns =
      ks::Metrics().GetHistogram("kanalyze.howto_ns");

  LintReport report;
  report.id = package.id;

  CallGraph graph;
  {
    ks::TraceSpan pass_span("kanalyze.callgraph");
    uint64_t begin = ks::NowNs();
    graph = BuildCallGraph(package);
    RunCallGraphPass(package, graph, &report);
    callgraph_ns.Observe(ks::NowNs() - begin);
    pass_span.Annotate("edges", graph.edges);
  }
  PackageSummaries summaries;
  {
    ks::TraceSpan pass_span("kanalyze.summary");
    uint64_t begin = ks::NowNs();
    summaries = ComputeSummaries(package, graph, options.cache);
    summary_ns.Observe(ks::NowNs() - begin);
    report.functions_summarized += summaries.functions.size();
    report.insns_decoded += summaries.insns_interpreted;
    pass_span.Annotate("functions",
                       static_cast<uint64_t>(summaries.functions.size()));
    pass_span.Annotate("cache_hits", summaries.cache_hits);
    pass_span.Annotate("cache_misses", summaries.cache_misses);
  }
  {
    ks::TraceSpan pass_span("kanalyze.cfg");
    uint64_t begin = ks::NowNs();
    RunCfgPass(package, &report);
    cfg_ns.Observe(ks::NowNs() - begin);
    pass_span.Annotate("blocks", report.blocks_analyzed);
  }
  {
    ks::TraceSpan pass_span("kanalyze.abi");
    uint64_t begin = ks::NowNs();
    RunAbiPass(package, &report);
    abi_ns.Observe(ks::NowNs() - begin);
    pass_span.Annotate("sections", report.data_sections_compared);
  }
  {
    ks::TraceSpan pass_span("kanalyze.quiescence");
    uint64_t begin = ks::NowNs();
    RunQuiescencePass(package, graph, summaries, &report);
    quiescence_ns.Observe(ks::NowNs() - begin);
  }
  {
    ks::TraceSpan pass_span("kanalyze.semdiff");
    uint64_t begin = ks::NowNs();
    RunSemanticDiffPass(package, graph, summaries, &report);
    semdiff_ns.Observe(ks::NowNs() - begin);
  }
  {
    ks::TraceSpan pass_span("kanalyze.howto");
    uint64_t begin = ks::NowNs();
    RunHowtoPass(package, &report);
    howto_ns.Observe(ks::NowNs() - begin);
  }

  std::stable_sort(
      report.findings.begin(), report.findings.end(),
      [](const LintFinding& a, const LintFinding& b) {
        int ra = SeverityRank(a.severity);
        int rb = SeverityRank(b.severity);
        return std::tie(ra, a.rule, a.unit, a.symbol, a.offset) <
               std::tie(rb, b.rule, b.unit, b.symbol, b.offset);
      });

  packages_linted.Add(1);
  functions_scanned.Add(report.functions_scanned);
  for (const LintFinding& finding : report.findings) {
    switch (finding.severity) {
      case LintSeverity::kError:
        findings_error.Add(1);
        break;
      case LintSeverity::kWarning:
        findings_warning.Add(1);
        break;
      case LintSeverity::kNote:
        findings_note.Add(1);
        break;
    }
  }
  span.Annotate("id", package.id);
  span.Annotate("findings", static_cast<uint64_t>(report.findings.size()));
  span.Annotate("errors", static_cast<uint64_t>(report.errors()));
  return report;
}

}  // namespace kanalyze
