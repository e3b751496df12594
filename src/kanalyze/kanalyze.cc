#include "kanalyze/kanalyze.h"

#include <algorithm>
#include <array>
#include <set>
#include <tuple>

#include "base/metrics.h"
#include "base/strings.h"
#include "base/trace.h"
#include "kanalyze/cfg.h"
#include "kanalyze/rules.h"

namespace kanalyze {

namespace {

using ksplice::LintFinding;
using ksplice::LintReport;
using ksplice::LintSeverity;

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
    AddFinding(report, "KSA101", dangling.unit, dangling.symbol,
               ks::StrPrintf("reference to '%s' cannot resolve: the "
                             "unit's helper object defines no such symbol",
                             dangling.import.c_str()),
               "the helper must carry the entire optimization unit "
               "(§5.1); rebuild the package from matching pre source");
  }

  // KSA104: targets that name code the package does not carry.
  for (const ksplice::Target& target : package.targets) {
    bool has_primary = graph.FindPrimaryNode(target.unit, target.symbol) >= 0;
    bool has_helper = graph.FindHelperNode(target.unit, target.symbol) >= 0;
    if (!has_primary || !has_helper) {
      AddFinding(report, "KSA104", target.unit, target.symbol,
                 ks::StrPrintf("splice target missing from the package (%s "
                               "object has no '%s')",
                               !has_primary ? "primary" : "helper",
                               target.symbol.c_str()),
                 "every target needs replacement code in a primary object "
                 "and its pre image in that unit's helper");
    }
  }

  // KSA102/KSA103 evaluate each patched function against the graph.
  for (const ksplice::Target& target : package.targets) {
    int primary = graph.FindPrimaryNode(target.unit, target.symbol);
    if (primary >= 0 && graph.OnCycle(primary)) {
      AddFinding(report, "KSA102", target.unit, target.symbol,
                 "patched function is recursive: long-lived activation "
                 "frames make the §4.2 stack check likelier to fail "
                 "repeatedly",
                 "expect quiescence retries on busy systems");
    }
    int helper = graph.FindHelperNode(target.unit, target.symbol);
    if (helper >= 0) {
      uint32_t fan_in = static_cast<uint32_t>(
          graph.callers[static_cast<size_t>(helper)].size());
      if (fan_in >= kFaninNoteThreshold) {
        AddFinding(report, "KSA103", target.unit, target.symbol,
                   ks::StrPrintf("high fan-in: %u static caller(s) in the "
                                 "pre kernel reach this function",
                                 fan_in),
                   "a hot function raises the chance a thread is executing "
                   "it when stop_machine rendezvous");
      }
    }
  }
}

void RunCfgPass(const ksplice::UpdatePackage& package, LintReport* report) {
  for (const kelf::ObjectFile& primary : package.primary_objects) {
    // Exception-table fixup targets are entry points the static CFG
    // cannot see (the fault dispatcher jumps there): collect them per
    // text section so the recovery blocks do not lint as unreachable.
    std::vector<std::vector<uint32_t>> fixups_by_section(
        primary.sections().size());
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
        if (!sym.defined() ||
            static_cast<size_t>(sym.section) >= fixups_by_section.size()) {
          continue;
        }
        fixups_by_section[static_cast<size_t>(sym.section)].push_back(
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
                     fixups_by_section[si]);
    }
  }
}

// AnalyzePackage's passes, in run order. Each runs under the trace span
// kPassSpans[pass] and observes its wall time in "<span>_ns".
enum Pass {
  kCallGraphPass,
  kSummaryPass,
  kCfgPass,
  kAbiPass,
  kQuiescencePass,
  kSemdiffPass,
  kHowtoPass,
  kNumPasses
};

constexpr std::array<const char*, kNumPasses> kPassSpans = {
    "kanalyze.callgraph", "kanalyze.summary",    "kanalyze.cfg",
    "kanalyze.abi",       "kanalyze.quiescence", "kanalyze.semdiff",
    "kanalyze.howto"};

ks::Histogram& PassHistogram(Pass pass) {
  static const std::array<ks::Histogram*, kNumPasses> histograms = [] {
    std::array<ks::Histogram*, kNumPasses> out{};
    for (size_t i = 0; i < kNumPasses; ++i) {
      out[i] = &ks::Metrics().GetHistogram(std::string(kPassSpans[i]) + "_ns");
    }
    return out;
  }();
  return *histograms[pass];
}

// Runs `body` as `pass`; the body adds the pass's span annotations.
template <typename Body>
void RunPass(Pass pass, Body&& body) {
  ks::TraceSpan span(kPassSpans[pass]);
  uint64_t begin = ks::NowNs();
  body(span);
  PassHistogram(pass).Observe(ks::NowNs() - begin);
}

}  // namespace

ks::Result<LintReport> AnalyzePackage(const ksplice::UpdatePackage& package,
                                      const AnalyzeOptions& options) {
  ks::TraceSpan span("kanalyze.lint");
  static ks::Counter& packages_linted =
      ks::Metrics().GetCounter("kanalyze.packages_linted");
  static ks::Counter& functions_scanned =
      ks::Metrics().GetCounter("kanalyze.functions_scanned");
  // Indexed by LintSeverity.
  static ks::Counter* const findings_by_severity[] = {
      &ks::Metrics().GetCounter("kanalyze.findings.note"),
      &ks::Metrics().GetCounter("kanalyze.findings.warning"),
      &ks::Metrics().GetCounter("kanalyze.findings.error")};

  LintReport report;
  report.id = package.id;

  CallGraph graph;
  RunPass(kCallGraphPass, [&](ks::TraceSpan& pass_span) {
    graph = BuildCallGraph(package);
    RunCallGraphPass(package, graph, &report);
    pass_span.Annotate("edges", graph.edges);
  });
  PackageSummaries summaries;
  RunPass(kSummaryPass, [&](ks::TraceSpan& pass_span) {
    summaries = ComputeSummaries(package, graph, options.cache);
    report.functions_summarized += summaries.functions.size();
    report.insns_decoded += summaries.insns_interpreted;
    pass_span.Annotate("functions",
                       static_cast<uint64_t>(summaries.functions.size()));
    pass_span.Annotate("cache_hits", summaries.cache_hits);
    pass_span.Annotate("cache_misses", summaries.cache_misses);
  });
  RunPass(kCfgPass, [&](ks::TraceSpan& pass_span) {
    RunCfgPass(package, &report);
    pass_span.Annotate("blocks", report.blocks_analyzed);
  });
  RunPass(kAbiPass, [&](ks::TraceSpan& pass_span) {
    RunAbiPass(package, &report);
    pass_span.Annotate("sections", report.data_sections_compared);
  });
  RunPass(kQuiescencePass, [&](ks::TraceSpan&) {
    RunQuiescencePass(package, graph, summaries, &report);
  });
  RunPass(kSemdiffPass, [&](ks::TraceSpan&) {
    RunSemanticDiffPass(package, graph, summaries, &report);
  });
  RunPass(kHowtoPass, [&](ks::TraceSpan&) { RunHowtoPass(package, &report); });

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
    findings_by_severity[static_cast<size_t>(finding.severity)]->Add(1);
  }
  span.Annotate("id", package.id);
  span.Annotate("findings", static_cast<uint64_t>(report.findings.size()));
  span.Annotate("errors", static_cast<uint64_t>(report.errors()));
  return report;
}

LintFinding& AddFinding(LintReport* report, RuleId rule, std::string unit,
                        std::string symbol, std::string message,
                        std::string hint, std::optional<uint32_t> offset) {
  LintFinding& finding = report->findings.emplace_back();
  finding.rule = rule.rule().id;
  finding.severity = rule.rule().severity;
  finding.pass = rule.rule().pass;
  finding.unit = std::move(unit);
  finding.symbol = std::move(symbol);
  finding.offset = offset.value_or(0);
  finding.has_offset = offset.has_value();
  finding.message = std::move(message);
  finding.hint = std::move(hint);
  return finding;
}

}  // namespace kanalyze
