// Tests for the observability layer: trace spans (base/trace.h), the
// metrics registry (base/metrics.h), and the typed per-phase reports
// (ksplice/report.h) produced across a full create -> apply -> undo cycle.

#include <gtest/gtest.h>

#include <algorithm>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "base/metrics.h"
#include "base/trace.h"
#include "json_checker.h"
#include "kcc/compile.h"
#include "kcc/objcache.h"
#include "kdiff/diff.h"
#include "ksplice/core.h"
#include "ksplice/create.h"
#include "ksplice/runpre.h"
#include "kvm/machine.h"
#include "runpre_oracle.h"

namespace ksplice {
namespace {

using kdiff::SourceTree;

using ks::test::ValidJson;

// Restores the global trace switch on scope exit so one test cannot leak
// tracing state into the next.
struct ScopedTrace {
  explicit ScopedTrace(bool enabled) {
    ks::ClearTrace();
    ks::SetTraceEnabled(enabled);
  }
  ~ScopedTrace() {
    ks::SetTraceEnabled(false);
    ks::ClearTrace();
  }
};

const ks::TraceEvent* FindEvent(const std::vector<ks::TraceEvent>& events,
                                const std::string& name) {
  for (const ks::TraceEvent& event : events) {
    if (event.name == name) {
      return &event;
    }
  }
  return nullptr;
}

// ------------------------------------------------------------ trace spans

TEST(TraceTest, SpansNestAndRecordDepth) {
  ScopedTrace trace(true);
  {
    ks::TraceSpan outer("test.outer");
    outer.AddTicks(5);
    outer.AddTicks(7);
    outer.Annotate("unit", std::string("sys/vuln.kc"));
    outer.Annotate("bytes", uint64_t{42});
    {
      ks::TraceSpan inner("test.inner");
      EXPECT_TRUE(inner.enabled());
      { ks::TraceSpan innermost("test.innermost"); }
    }
  }
  std::vector<ks::TraceEvent> events = ks::TraceSnapshot();
  ASSERT_EQ(events.size(), 3u);

  const ks::TraceEvent* outer = FindEvent(events, "test.outer");
  const ks::TraceEvent* inner = FindEvent(events, "test.inner");
  const ks::TraceEvent* innermost = FindEvent(events, "test.innermost");
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  ASSERT_NE(innermost, nullptr);

  EXPECT_EQ(outer->depth, 0);
  EXPECT_EQ(inner->depth, 1);
  EXPECT_EQ(innermost->depth, 2);
  EXPECT_EQ(outer->thread, inner->thread);

  // The outer span contains the inner one in time.
  EXPECT_LE(outer->start_ns, inner->start_ns);
  EXPECT_GE(outer->start_ns + outer->dur_ns, inner->start_ns + inner->dur_ns);

  // Ticks accumulate; annotations are preserved as strings.
  EXPECT_EQ(outer->ticks, 12u);
  ASSERT_EQ(outer->args.size(), 2u);
  EXPECT_EQ(outer->args[0].first, "unit");
  EXPECT_EQ(outer->args[0].second, "sys/vuln.kc");
  EXPECT_EQ(outer->args[1].second, "42");
}

TEST(TraceTest, DisabledModeRecordsNothing) {
  ScopedTrace trace(false);
  {
    ks::TraceSpan span("test.disabled");
    EXPECT_FALSE(span.enabled());
    span.AddTicks(100);
    span.Annotate("key", std::string("value"));
  }
  EXPECT_TRUE(ks::TraceSnapshot().empty());
  EXPECT_EQ(ks::TraceDropped(), 0u);
}

TEST(TraceTest, JsonExportIsWellFormedChromeTrace) {
  ScopedTrace trace(true);
  {
    ks::TraceSpan span("test.json_span");
    span.Annotate("note", std::string("with \"quotes\" and \\slashes\\"));
  }
  std::string json = ks::TraceJson();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("test.json_span"), std::string::npos);

  // The summary mentions the span too.
  std::string summary = ks::TraceSummary();
  EXPECT_NE(summary.find("test.json_span"), std::string::npos);
}

// ------------------------------------------------------------- histograms

TEST(MetricsTest, HistogramPowerOfTwoBucketing) {
  ks::Histogram hist;
  for (uint64_t v : {1ull, 2ull, 3ull, 4ull, 1024ull}) {
    hist.Observe(v);
  }
  EXPECT_EQ(hist.count(), 5u);
  EXPECT_EQ(hist.sum(), 1034u);
  EXPECT_EQ(hist.min(), 1u);
  EXPECT_EQ(hist.max(), 1024u);
  EXPECT_DOUBLE_EQ(hist.mean(), 1034.0 / 5.0);

  // Bucket i counts observations in (2^(i-1), 2^i].
  EXPECT_EQ(hist.bucket(0), 1u);   // 1
  EXPECT_EQ(hist.bucket(1), 1u);   // 2
  EXPECT_EQ(hist.bucket(2), 2u);   // 3, 4
  EXPECT_EQ(hist.bucket(10), 1u);  // 1024
  EXPECT_EQ(ks::Histogram::BucketBound(0), 1u);
  EXPECT_EQ(ks::Histogram::BucketBound(10), 1024u);

  hist.Reset();
  EXPECT_EQ(hist.count(), 0u);
  EXPECT_EQ(hist.min(), 0u);
  EXPECT_EQ(hist.max(), 0u);
}

TEST(MetricsTest, RegistryJsonRoundTrip) {
  ks::Counter& counter = ks::Metrics().GetCounter("test.roundtrip.counter");
  ks::Gauge& gauge = ks::Metrics().GetGauge("test.roundtrip.gauge");
  ks::Histogram& hist = ks::Metrics().GetHistogram("test.roundtrip.hist");
  counter.Reset();
  counter.Add(3);
  gauge.Set(-7);
  hist.Observe(5);

  std::string json = ks::Metrics().ToJson();
  EXPECT_TRUE(ValidJson(json)) << json;
  EXPECT_NE(json.find("\"counters\""), std::string::npos);
  EXPECT_NE(json.find("\"gauges\""), std::string::npos);
  EXPECT_NE(json.find("\"histograms\""), std::string::npos);
  EXPECT_NE(json.find("\"test.roundtrip.counter\":3"), std::string::npos);
  EXPECT_NE(json.find("\"test.roundtrip.gauge\":-7"), std::string::npos);

  // The same instrument comes back on lookup (stable references), and the
  // counter snapshot includes it.
  EXPECT_EQ(&counter, &ks::Metrics().GetCounter("test.roundtrip.counter"));
  std::map<std::string, uint64_t> values = ks::Metrics().CounterValues();
  ASSERT_NE(values.find("test.roundtrip.counter"), values.end());
  EXPECT_EQ(values["test.roundtrip.counter"], 3u);
}

TEST(MetricsTest, ObjectCacheHitsAndMissesReachTheRegistry) {
  kdiff::SourceTree tree;
  tree.Write("cached.kc", "int cached_fn(int x) { return x * 3 + 1; }\n");
  kcc::CompileOptions options;
  kcc::ObjectCache cache;

  uint64_t hits_before =
      ks::Metrics().GetCounter("kcc.objcache.hits").value();
  uint64_t misses_before =
      ks::Metrics().GetCounter("kcc.objcache.misses").value();

  bool was_hit = true;
  ASSERT_TRUE(cache.GetOrCompile(tree, "cached.kc", options, &was_hit).ok());
  EXPECT_FALSE(was_hit);
  ASSERT_TRUE(cache.GetOrCompile(tree, "cached.kc", options, &was_hit).ok());
  EXPECT_TRUE(was_hit);

  EXPECT_EQ(ks::Metrics().GetCounter("kcc.objcache.hits").value(),
            hits_before + 1);
  EXPECT_EQ(ks::Metrics().GetCounter("kcc.objcache.misses").value(),
            misses_before + 1);
}

// ----------------------------------------------- reports, full cycle

SourceTree MiniKernelTree() {
  SourceTree tree;
  tree.Write("kapi.h", "int check_access(int uid, int requested);\n");
  tree.Write("sys/vuln.kc", R"(
int check_access(int uid, int requested) {
  if (requested > 100) {
    return 1;
  }
  if (uid == 0) {
    return 1;
  }
  return 0;
}
)");
  tree.Write("sys/probes.kc", R"(
#include "kapi.h"
void probe_access(int requested) { record(200, check_access(1000, requested)); }
)");
  return tree;
}

kcc::CompileOptions MonolithicBuild() {
  kcc::CompileOptions options;
  options.function_sections = false;
  options.data_sections = false;
  return options;
}

std::string FixPatch(const SourceTree& tree) {
  SourceTree post = tree;
  std::string contents = *tree.Read("sys/vuln.kc");
  size_t at = contents.find("return 1;");
  EXPECT_NE(at, std::string::npos);
  contents.replace(at, 9, "return 0;");
  post.Write("sys/vuln.kc", contents);
  return kdiff::MakeUnifiedDiff(tree, post);
}

// A unit compile records its front end (preprocess, lex, parse) and its
// code generation as spans one level inside kcc.compile_unit, in order.
TEST(TraceTest, CompileStagesNestInTheUnitSpan) {
  ScopedTrace trace(true);
  ASSERT_TRUE(
      kcc::CompileUnit(MiniKernelTree(), "sys/vuln.kc", MonolithicBuild())
          .ok());
  std::vector<ks::TraceEvent> events = ks::TraceSnapshot();
  const ks::TraceEvent* unit = FindEvent(events, "kcc.compile_unit");
  const ks::TraceEvent* parse = FindEvent(events, "kcc.parse");
  const ks::TraceEvent* codegen = FindEvent(events, "kcc.codegen");
  ASSERT_NE(unit, nullptr);
  ASSERT_NE(parse, nullptr);
  ASSERT_NE(codegen, nullptr);
  for (const ks::TraceEvent* stage : {parse, codegen}) {
    EXPECT_EQ(stage->depth, unit->depth + 1);
    EXPECT_EQ(stage->thread, unit->thread);
    EXPECT_LE(unit->start_ns, stage->start_ns);
    EXPECT_GE(unit->start_ns + unit->dur_ns, stage->start_ns + stage->dur_ns);
  }
  EXPECT_LE(parse->start_ns + parse->dur_ns, codegen->start_ns);
}

TEST(ReportTest, FullCyclePopulatesCreateApplyUndoReports) {
  ScopedTrace trace(true);
  SourceTree tree = MiniKernelTree();
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, MonolithicBuild());
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  kvm::MachineConfig config;
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), config);
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();

  CreateOptions options;
  options.compile = MonolithicBuild();
  options.id = "obs-test";
  ks::Result<CreateResult> created =
      CreateUpdate(tree, FixPatch(tree), options);
  ASSERT_TRUE(created.ok()) << created.status().ToString();

  // Create report: one unit rebuilt, the changed function identified by
  // name with plausible sizes, wall times measured and properly nested.
  const CreateReport& create_report = created->report;
  EXPECT_EQ(create_report.id, "obs-test");
  EXPECT_EQ(create_report.units_rebuilt, 1u);
  ASSERT_EQ(create_report.units.size(), 1u);
  EXPECT_EQ(create_report.units[0].unit, "sys/vuln.kc");
  EXPECT_GT(create_report.units[0].sections_compared, 0u);
  EXPECT_GT(create_report.units[0].sections_changed, 0u);
  EXPECT_GT(create_report.units[0].pre_text_bytes, 0u);
  EXPECT_EQ(create_report.targets, 1u);
  ASSERT_EQ(create_report.changed_functions.size(), 1u);
  EXPECT_EQ(create_report.changed_functions[0].symbol, "check_access");
  EXPECT_EQ(create_report.changed_functions[0].change, "modified");
  EXPECT_GT(create_report.changed_functions[0].pre_size, 0u);
  EXPECT_GT(create_report.changed_functions[0].post_size, 0u);
  EXPECT_GT(create_report.create_wall_ns, 0u);
  EXPECT_GE(create_report.create_wall_ns, create_report.prepost_wall_ns);
  EXPECT_TRUE(ValidJson(create_report.ToJson())) << create_report.ToJson();

  // MatchStats out-param on a direct matcher call.
  kcc::CompileOptions pre_options = MonolithicBuild();
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "sys/vuln.kc", pre_options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  RunPreMatcher matcher(**machine);
  MatchStats stats;
  ASSERT_TRUE(matcher.MatchUnit(*pre, &stats).ok());
  EXPECT_GT(stats.sections_matched, 0u);
  EXPECT_GT(stats.candidates_tried, 0u);
  EXPECT_GT(stats.run_bytes_matched, 0u);
  // The matcher decodes each section and candidate once (canonicalized
  // counters) instead of re-walking pre bytes per candidate attempt.
  EXPECT_GT(stats.pre_bytes_canonicalized, 0u);
  EXPECT_GT(stats.run_bytes_canonicalized, 0u);
  EXPECT_GT(stats.symbols_recovered, 0u);
  EXPECT_GE(stats.fixpoint_passes, 1u);
  EXPECT_TRUE(ValidJson(stats.ToJson())) << stats.ToJson();

  // A plan charges its pre-side decode once, to its builder and to the
  // registry; a match against the shared plan reports run-side work only.
  ks::Counter& pre_bytes =
      ks::Metrics().GetCounter("runpre.index.pre_bytes_canonicalized");
  const uint64_t pre_bytes_before = pre_bytes.value();
  MatchStats plan_stats;
  ks::Result<MatchPlan> plan = MatchPlan::Build(*pre, &plan_stats);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_EQ(plan_stats.pre_bytes_canonicalized,
            stats.pre_bytes_canonicalized);
  EXPECT_EQ(pre_bytes.value(),
            pre_bytes_before + plan_stats.pre_bytes_canonicalized);
  for (int node = 0; node < 2; ++node) {
    MatchStats node_stats;
    ks::Result<UnitMatch> shared = matcher.MatchUnit(*plan, &node_stats);
    ASSERT_TRUE(shared.ok()) << shared.status().ToString();
    EXPECT_EQ(node_stats.pre_bytes_canonicalized, 0u);
    EXPECT_EQ(node_stats.run_bytes_canonicalized,
              stats.run_bytes_canonicalized);
    EXPECT_EQ(node_stats.candidates_tried, stats.candidates_tried);
  }
  EXPECT_EQ(pre_bytes.value(),
            pre_bytes_before + plan_stats.pre_bytes_canonicalized);

  // The walk-only oracle decodes the run code it walks, with decisions
  // identical to the production plan's.
  MatchStats linear_stats;
  ks::Result<UnitMatch> linear_match =
      MatchWalkOnly(matcher, *pre, &linear_stats);
  ASSERT_TRUE(linear_match.ok());
  EXPECT_GT(linear_stats.run_bytes_canonicalized, 0u);
  EXPECT_EQ(linear_stats.sections_matched, stats.sections_matched);
  EXPECT_EQ(linear_stats.candidates_tried, stats.candidates_tried);

  uint64_t applies_before = ks::Metrics().GetCounter("ksplice.applies").value();
  uint64_t pauses_before =
      ks::Metrics().GetHistogram("ksplice.stop_pause_ns").count();

  KspliceCore core(machine->get());
  ks::Result<ApplyReport> applied = core.Apply(created->package);
  ASSERT_TRUE(applied.ok()) << applied.status().ToString();
  EXPECT_EQ(applied->id, "obs-test");
  ASSERT_EQ(applied->functions.size(), 1u);
  EXPECT_EQ(applied->functions[0].symbol, "check_access");
  EXPECT_GT(applied->functions[0].trampoline_bytes, 0u);
  EXPECT_GE(applied->attempts, 1);
  EXPECT_EQ(applied->quiescence_retries(), applied->attempts - 1);
  EXPECT_GT(applied->trampoline_bytes, 0u);
  EXPECT_GT(applied->primary_bytes, 0u);
  EXPECT_GT(applied->helper_bytes, 0u);
  EXPECT_FALSE(applied->helper_retained);
  EXPECT_GT(applied->match.sections_matched, 0u);
  EXPECT_GT(applied->match.run_bytes_matched, 0u);
  // Apply built the package's plan itself, so its report owns the decode.
  EXPECT_GT(applied->match.pre_bytes_canonicalized, 0u);
  EXPECT_TRUE(ValidJson(applied->ToJson())) << applied->ToJson();

  // The per-process aggregates moved in step with the report.
  EXPECT_EQ(ks::Metrics().GetCounter("ksplice.applies").value(),
            applies_before + 1);
  EXPECT_EQ(ks::Metrics().GetHistogram("ksplice.stop_pause_ns").count(),
            pauses_before + 1);

  ks::Result<UndoReport> undone = core.Undo(applied->id);
  ASSERT_TRUE(undone.ok()) << undone.status().ToString();
  EXPECT_EQ(undone->id, "obs-test");
  EXPECT_EQ(undone->functions_restored, 1u);
  EXPECT_GE(undone->attempts, 1);
  EXPECT_GT(undone->bytes_restored, 0u);
  EXPECT_EQ(undone->bytes_restored, applied->trampoline_bytes);
  EXPECT_GT(undone->primary_bytes_reclaimed, 0u);
  EXPECT_TRUE(ValidJson(undone->ToJson())) << undone->ToJson();

  // The traced pipeline left spans for every phase.
  std::vector<ks::TraceEvent> events = ks::TraceSnapshot();
  EXPECT_NE(FindEvent(events, "create.update"), nullptr);
  EXPECT_NE(FindEvent(events, "prepost.run"), nullptr);
  EXPECT_NE(FindEvent(events, "runpre.match_unit"), nullptr);
  EXPECT_NE(FindEvent(events, "ksplice.apply"), nullptr);
  EXPECT_NE(FindEvent(events, "ksplice.undo"), nullptr);
}

TEST(ReportTest, MatchStatsCountEachCandidateAttemptOnce) {
  // Regression: deferred ambiguous sections used to re-try (and re-count)
  // every candidate on every fixpoint pass, inflating candidates_tried.
  // With the attempt cache each (section, candidate) pair is verified
  // exactly once, however many passes run.
  SourceTree tree;
  // Two same-named static functions with different bodies: the ambiguous
  // unit defers on pass 1 (both `pick` copies match some candidate until
  // the valuation narrows) only if content alone cannot decide — here the
  // bodies differ, so content decides in one pass, but both candidates
  // must still be tried exactly once.
  tree.Write("a.kc", R"(
static int pick(int x) {
  return x * 3 + 1;
}
int entry_a(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  tree.Write("b.kc", R"(
static int pick(int x) {
  return x * 5 + 2;
}
int entry_b(int x) {
  return pick(x) + pick(x + 1) + pick(x + 2) + pick(x + 3) + pick(x + 4)
       + pick(x + 5) + pick(x + 6);
}
)");
  kcc::CompileOptions run_options;
  run_options.inline_threshold = 0;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(tree, run_options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), kvm::MachineConfig{});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  ASSERT_EQ((*machine)->SymbolsNamed("pick").size(), 2u);

  kcc::CompileOptions pre_options = run_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(tree, "b.kc", pre_options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();

  // The walk-only oracle first: the unit has two sections (.text.pick with
  // 2 candidates, .text.entry_b with 1), hence exactly 3 verification
  // attempts — even if ambiguity forces extra fixpoint passes. The b.kc
  // copy of `pick` differs from a.kc's in imm32 constants only, which
  // run-pre content comparison resolves directly.
  RunPreMatcher matcher(**machine);
  MatchStats linear_stats;
  ks::Result<UnitMatch> linear_match =
      MatchWalkOnly(matcher, *pre, &linear_stats);
  ASSERT_TRUE(linear_match.ok()) << linear_match.status().ToString();
  EXPECT_EQ(linear_stats.sections_matched, 2u);
  EXPECT_EQ(linear_stats.candidates_tried, 3u);
  EXPECT_EQ(linear_stats.ambiguity_deferrals, 0u);
  EXPECT_EQ(linear_stats.fixpoint_passes, 1u);

  // The production plan agrees on every decision and attempt.
  MatchStats once_stats;
  ks::Result<UnitMatch> once_match = matcher.MatchUnit(*pre, &once_stats);
  ASSERT_TRUE(once_match.ok()) << once_match.status().ToString();
  EXPECT_EQ(once_match->symbol_values, linear_match->symbol_values);
  EXPECT_EQ(once_stats.sections_matched, 2u);
  EXPECT_EQ(once_stats.candidates_tried, linear_stats.candidates_tried);
  EXPECT_EQ(once_stats.fixpoint_passes, linear_stats.fixpoint_passes);
}

TEST(ReportTest, RefusedMatchChargesItsRunDecode) {
  // A stale unit: the pre object is built from source whose constant
  // differs from the running kernel's, so the match is refused after the
  // walk has decoded run code up to the differing immediate. That decode
  // is charged like a successful match's, to the out-param and the
  // registry alike.
  SourceTree run_tree;
  run_tree.Write("s.kc", R"(
int stale_fn(int x) {
  return x * 7 + 3;
}
int caller(int x) {
  return stale_fn(x) + 1;
}
)");
  SourceTree pre_tree;
  pre_tree.Write("s.kc", R"(
int stale_fn(int x) {
  return x * 7 + 4;
}
int caller(int x) {
  return stale_fn(x) + 1;
}
)");
  kcc::CompileOptions run_options;
  run_options.inline_threshold = 0;
  ks::Result<std::vector<kelf::ObjectFile>> objects =
      kcc::BuildTree(run_tree, run_options);
  ASSERT_TRUE(objects.ok()) << objects.status().ToString();
  ks::Result<std::unique_ptr<kvm::Machine>> machine =
      kvm::Machine::Boot(std::move(objects).value(), kvm::MachineConfig{});
  ASSERT_TRUE(machine.ok()) << machine.status().ToString();
  kcc::CompileOptions pre_options = run_options;
  pre_options.function_sections = true;
  pre_options.data_sections = true;
  ks::Result<kelf::ObjectFile> pre =
      kcc::CompileUnit(pre_tree, "s.kc", pre_options);
  ASSERT_TRUE(pre.ok()) << pre.status().ToString();
  ks::Result<MatchPlan> plan = MatchPlan::Build(*pre);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();

  ks::Counter& failures = ks::Metrics().GetCounter("runpre.match_failures");
  ks::Counter& run_bytes =
      ks::Metrics().GetCounter("runpre.index.run_bytes_canonicalized");
  ks::Counter& nops = ks::Metrics().GetCounter("runpre.nop_bytes_skipped");
  const uint64_t failures_before = failures.value();
  const uint64_t run_bytes_before = run_bytes.value();
  const uint64_t nops_before = nops.value();
  RunPreMatcher matcher(**machine);
  MatchStats stats;
  ks::Result<UnitMatch> match = matcher.MatchUnit(*plan, &stats);
  ASSERT_FALSE(match.ok());
  EXPECT_NE(match.status().message().find("immediate differs"),
            std::string::npos)
      << match.status().ToString();
  EXPECT_GT(stats.run_bytes_canonicalized, 0u);
  EXPECT_EQ(failures.value(), failures_before + 1);
  EXPECT_EQ(run_bytes.value(), run_bytes_before + stats.run_bytes_canonicalized);
  EXPECT_EQ(nops.value(), nops_before + stats.nop_bytes_skipped);
}

TEST(ReportTest, MatchStatsJsonRoundTripsEveryField) {
  // Every field of MatchStats, each set to a distinct value, reads back
  // from ToJson under its key, and the object holds no other member.
  const std::pair<const char*, uint64_t MatchStats::*> fields[] = {
      {"sections_matched", &MatchStats::sections_matched},
      {"candidates_tried", &MatchStats::candidates_tried},
      {"run_bytes_matched", &MatchStats::run_bytes_matched},
      {"nop_bytes_skipped", &MatchStats::nop_bytes_skipped},
      {"reloc_sites_inverted", &MatchStats::reloc_sites_inverted},
      {"symbols_recovered", &MatchStats::symbols_recovered},
      {"ambiguity_deferrals", &MatchStats::ambiguity_deferrals},
      {"fixpoint_passes", &MatchStats::fixpoint_passes},
      {"pre_bytes_canonicalized", &MatchStats::pre_bytes_canonicalized},
      {"run_bytes_canonicalized", &MatchStats::run_bytes_canonicalized},
      {"revalidations", &MatchStats::revalidations},
      {"extable_sections_matched", &MatchStats::extable_sections_matched},
      {"bug_table_sections_matched", &MatchStats::bug_table_sections_matched},
      {"date_time_sections_matched", &MatchStats::date_time_sections_matched},
  };
  MatchStats stats;
  uint64_t value = 1000003;
  for (const auto& [key, field] : fields) {
    stats.*field = value;
    value += 7919;
  }
  const std::string json = stats.ToJson();
  ASSERT_TRUE(ValidJson(json)) << json;
  for (const auto& [key, field] : fields) {
    EXPECT_EQ(ks::test::JsonNumberAt(json, key),
              static_cast<double>(stats.*field))
        << key << " in " << json;
  }
  // A flat object of numbers: one ':' per member.
  EXPECT_EQ(static_cast<size_t>(std::count(json.begin(), json.end(), ':')),
            std::size(fields))
      << json;
}

}  // namespace
}  // namespace ksplice
