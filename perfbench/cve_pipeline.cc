// cve_pipeline: the distributor and single-host path.
//
// Set-up builds release 0's kernel and boots a machine. Each pass visits
// the 64 corpus CVEs in a seeded order on one machine and, for each,
// closes the loop create -> lint -> apply -> exploit -> undo:
//   - CreateUpdate with a fresh ObjectCache (cold, like `ksplice_tool
//     create`), lint off;
//   - AnalyzePackage on the same cache;
//   - Apply; RunExploit, which must now be blocked; Undo.
// kcc, prepost and kanalyze do ~90% of the work, so compile, cache and lint
// changes show here and fleet or boot changes should not.
//
// Oracles, per CVE: the exploit is blocked while the update is applied;
// after Undo the kernel text is byte-identical to the set-up snapshot and
// the module arena is back to its set-up size; for updates without custom
// code, Apply and Undo leave the kernel's data bytes untouched (the guest
// itself writes data while the exploit runs, so data is compared across
// each Ksplice call, not against set-up).
//
// Every pass gets a freshly booted machine (the boot is not timed). kvm
// keeps every thread it ever ran, and each stop_machine quiescence scan
// copies the whole thread table, so on one long-lived machine the stop
// window grows with the exploit threads spawned so far (measured on a
// 4-vCPU x86 VM: p50 15 us after 1300 threads, 48 us after 5100). That would tie every
// per-update cost to how many passes the run managed, i.e. to the speed of
// unrelated layers. A fresh machine per pass keeps each pass the same.

#include <memory>

#include "common.h"
#include "kanalyze/kanalyze.h"
#include "kcc/compile.h"
#include "ksplice/core.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
// The p99 stop window needs at least this many windows.
constexpr uint64_t kMinPauses = 1000;
constexpr uint64_t kMaxPasses = 1000;
// The corpus kernel keys credentials by tid % 64 and slot 0 is root, so a
// thread whose tid is a multiple of 64 starts escalated. Such tids go to a
// side-effect-free filler thread so exploit outcomes measure the patch.
constexpr int kRootCredSlots = 64;
constexpr const char* kFillerEntry = "escalated";

struct Host {
  std::unique_ptr<kvm::Machine> machine;
  std::unique_ptr<ksplice::KspliceCore> core;
  ImageLayout layout;
  std::vector<uint8_t> text;  // kernel text at set-up
  uint32_t arena_bytes = 0;   // module arena in use at set-up
  int next_tid = 0;
};

struct SetupTimes {
  Samples build_ms;
  Samples boot_ms;
  Samples rss_mb;
};

// Boots a release-0 machine (the corpus default size) and snapshots it.
ks::Result<Host> Boot(SpanRecorder* spans, SetupTimes* times) {
  Host host;
  {
    PERFBENCH_SPAN(spans, "kvm.boot");
    double rss_before = CurrentRssMb();
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(host.machine, corpus::BootKernelVersion(0));
    times->boot_ms.Add(MsSince(start));
    times->rss_mb.Add(CurrentRssMb() - rss_before);
  }
  host.core = std::make_unique<ksplice::KspliceCore>(host.machine.get());
  host.layout = LayoutOf(*host.machine);
  host.text = ReadImage(*host.machine, host.layout.base, host.layout.text_end);
  host.arena_bytes = host.machine->ModuleArenaBytesInUse();
  std::vector<kvm::ThreadInfo> threads = host.machine->Threads();
  host.next_tid = threads.empty() ? 1 : threads.back().tid + 1;
  return host;
}

ks::Result<Host> SetUp(SpanRecorder* spans, SetupTimes* times) {
  PERFBENCH_SPAN(spans, "setup");
  {
    PERFBENCH_SPAN(spans, "kcc.build_tree");
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(kdiff::SourceTree tree, corpus::KernelSourceAt(0));
    KS_RETURN_IF_ERROR(
        kcc::BuildTree(tree, corpus::RunBuildOptions()).status());
    times->build_ms.Add(MsSince(start));
  }
  return Boot(spans, times);
}

// What the timed loop measures, split by whether the recorder was on.
struct LoopSamples {
  Samples create_ms, apply_ms, undo_ms, pause_us;
  Samples pass_rate;  // updates per second of each pass
  // Per CVE, the best create -> undo time, undo time and stop window.
  BestOf best_update_ms, best_undo_ms, best_pause_us;
  uint64_t updates = 0;
};

// Runs the create -> undo loop for corpus entry `index`.
void RunOne(size_t index, const CveInput& input, Host& host,
            SpanRecorder* spans, LayerSamples* layers, LoopSamples* out,
            ReportCounts* counts, WorkloadReport* report) {
  const std::string& cve = input.vuln->cve;
  const bool plain = !input.vuln->needs_custom_code;
  kvm::Machine& machine = *host.machine;
  PERFBENCH_SPAN(spans, "cve");
  ++out->updates;
  report->attempted += 5;  // create, lint, apply, exploit, undo

  kcc::ObjectCache cache;
  const uint64_t update_start = NowNs();
  uint64_t start = update_start;
  ks::Result<ksplice::CreateResult> created = [&] {
    PERFBENCH_SPAN(spans, "create");
    return CreatePackage(input, &cache);
  }();
  double create_ms = MsSince(start);
  if (!created.ok()) {
    report->Fail("create " + cve + ": " + created.status().ToString());
    return;
  }
  out->create_ms.Add(create_ms);
  double prepost_ms =
      static_cast<double>(created->report.prepost_wall_ns) / 1e6;
  layers->Add("create.ms", create_ms);
  layers->Add("prepost.ms", prepost_ms);
  layers->Add("create.self_ms", create_ms - prepost_ms);

  start = NowNs();
  ks::Result<ksplice::LintReport> lint = [&] {
    PERFBENCH_SPAN(spans, "kanalyze");
    kanalyze::AnalyzeOptions options;
    options.cache = &cache;
    return kanalyze::AnalyzePackage(created->package, options);
  }();
  layers->Add("kanalyze.ms", MsSince(start));
  if (!lint.ok()) {
    report->Fail("lint " + cve + ": " + lint.status().ToString());
    return;
  }
  counts->insns_decoded += lint->insns_decoded;

  const ImageLayout& layout = host.layout;
  std::vector<uint8_t> data = ReadImage(machine, layout.text_end, layout.end);
  start = NowNs();
  ks::Result<ksplice::ApplyReport> applied = [&] {
    PERFBENCH_SPAN(spans, "apply");
    return host.core->Apply(created->package);
  }();
  double apply_ms = MsSince(start);
  if (!applied.ok()) {
    report->Fail("apply " + cve + ": " + applied.status().ToString());
    return;
  }
  out->apply_ms.Add(apply_ms);
  out->pause_us.Add(static_cast<double>(applied->pause_ns) / 1e3);
  out->best_pause_us.Add(index, static_cast<double>(applied->pause_ns) / 1e3);
  layers->AddApplyStages(*applied);
  ++counts->applies;
  counts->apply_attempts += static_cast<uint64_t>(applied->attempts);
  if (plain && ReadImage(machine, layout.text_end, layout.end) != data) {
    report->Fail("apply " + cve + " changed kernel data");
  }

  if (host.next_tid % kRootCredSlots == 0) {
    if (machine.SpawnNamed(kFillerEntry, 0).ok()) {
      ++host.next_tid;
    }
  }
  start = NowNs();
  ks::Result<bool> escalated = [&] {
    PERFBENCH_SPAN(spans, "exploit");
    return corpus::RunExploit(machine, *input.vuln);
  }();
  double exploit_ms = MsSince(start);
  layers->Add("kvm.exploit_ms", exploit_ms);
  ++host.next_tid;
  if (!escalated.ok()) {
    report->Fail("exploit " + cve + ": " + escalated.status().ToString());
    std::vector<kvm::ThreadInfo> threads = machine.Threads();
    host.next_tid = threads.empty() ? 1 : threads.back().tid + 1;
  } else if (*escalated) {
    report->Fail("exploit " + cve + " not blocked by its update");
  }

  data = ReadImage(machine, layout.text_end, layout.end);
  start = NowNs();
  ks::Result<ksplice::UndoReport> undone = [&] {
    PERFBENCH_SPAN(spans, "undo");
    return host.core->Undo(applied->id);
  }();
  double undo_ms = MsSince(start);
  if (!undone.ok()) {
    report->Fail("undo " + cve + ": " + undone.status().ToString());
    return;
  }
  out->undo_ms.Add(undo_ms);
  out->best_undo_ms.Add(index, undo_ms);
  out->best_update_ms.Add(index, MsSince(update_start));
  layers->Add("undo.ms", undo_ms);

  PERFBENCH_SPAN(spans, "check");
  if (ReadImage(machine, layout.base, layout.text_end) != host.text) {
    report->Fail("undo " + cve + ": kernel text differs from set-up");
  }
  if (machine.ModuleArenaBytesInUse() != host.arena_bytes) {
    report->Fail("undo " + cve + ": module arena not reclaimed");
  }
  if (plain && ReadImage(machine, layout.text_end, layout.end) != data) {
    report->Fail("undo " + cve + " changed kernel data");
  }
}

}  // namespace

ks::Status RunCvePipeline(const RunConfig& config, WorkloadReport* report) {
  KS_ASSIGN_OR_RETURN(std::vector<CveInput> inputs, CorpusInputs());

  SpanRecorder spans;
  spans.set_enabled(config.trace);
  LayerSamples layers(&spans);
  SetupTimes setup_times;
  Host host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    host = Host();  // the previous machine goes before the next boots
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(host, SetUp(&spans, &setup_times));
    report->setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }

  LoopSamples untraced, traced;
  ReportCounts counts, later_counts;
  LoopClock clock(config.seconds, config.trace ? 0 : kMinPauses);
  uint64_t passes = 0;
  for (uint64_t pass = 0; pass < kMaxPasses; ++pass) {
    // Pass 0 is the fixed reference for the work-counter block and is never
    // traced; in a traced run odd passes record spans.
    const bool reference = pass == 0;
    const bool tracing = config.trace && pass % 2 == 1;
    spans.set_enabled(tracing);
    if (pass != 0) {
      host = Host();
      KS_ASSIGN_OR_RETURN(host, Boot(&spans, &setup_times));
    }
    LoopSamples& out = tracing ? traced : untraced;
    CounterMap before = WorkCounterSnapshot();
    uint64_t pass_start = NowNs();
    uint64_t pass_updates = out.updates;
    for (size_t index :
         Permutation(inputs.size(), SubSeed(config.seed, pass))) {
      RunOne(index, inputs[index], host, &spans, &layers, &out,
             reference ? &counts : &later_counts, report);
    }
    out.pass_rate.Add(static_cast<double>(out.updates - pass_updates) * 1e9 /
                      static_cast<double>(NowNs() - pass_start));
    if (reference) {
      report->work_counters = CounterDelta(before, WorkCounterSnapshot());
    }
    ++passes;
    // A traced run needs at least one traced pass for its span table.
    if ((!config.trace || traced.updates > 0) &&
        clock.Done(untraced.pause_us.count())) {
      break;
    }
  }
  spans.set_enabled(false);

  report->reference_pass = "pass 0: all 64 CVEs once";
  report->shape.Set("loop", JsonValue::String(
      "closed loop, 1 thread: per CVE create -> lint -> apply -> exploit -> "
      "undo, each call issued after the previous returns"));
  report->shape.Set("threads", JsonValue::Number(1));
  report->shape.Set("cves_per_pass", JsonValue::Number(
                                         static_cast<double>(inputs.size())));
  report->shape.Set("passes", JsonValue::Number(static_cast<double>(passes)));
  report->shape.Set("machine", JsonValue::String(
      "one release-0 machine per pass, corpus default size"));
  report->shape.Set("seed_role", JsonValue::String(
      "shuffles the CVE order of every pass"));
  report->shape.Set("setup_repeats", JsonValue::Number(kSetupRepeats));

  auto rate = [](const LoopSamples& s) { return s.pass_rate.Percentile(0.5); };
  const LoopSamples& e2e = untraced;
  report->Add("best_updates_per_s",
              static_cast<double>(e2e.best_update_ms.inputs()) * 1e3 /
                  e2e.best_update_ms.Sum(),
              "1/s", e2e.best_update_ms.inputs());
  report->Add("best_undo_ms_p50", e2e.best_undo_ms.Percentile(0.5), "ms",
              e2e.best_undo_ms.inputs());
  report->Add("best_pause_us_p50", e2e.best_pause_us.Percentile(0.5), "us",
              e2e.best_pause_us.inputs());
  report->Add("undo_ms_p50", e2e.undo_ms.Percentile(0.5), "ms",
              e2e.undo_ms.count());
  report->Add("pause_us_p50", e2e.pause_us.Percentile(0.5), "us",
              e2e.pause_us.count());
  report->Add("pause_us_p99", e2e.pause_us.Percentile(0.99), "us",
              e2e.pause_us.count());
  report->Add("pipeline_updates_per_s", rate(e2e), "1/s",
              e2e.pass_rate.count());
  report->Add("create_ms_p50", e2e.create_ms.Percentile(0.5), "ms",
              e2e.create_ms.count());
  report->Add("create_ms_p90", e2e.create_ms.Percentile(0.9), "ms",
              e2e.create_ms.count());
  report->Add("apply_ms_p50", e2e.apply_ms.Percentile(0.5), "ms",
              e2e.apply_ms.count());
  report->Add("apply_ms_p90", e2e.apply_ms.Percentile(0.9), "ms",
              e2e.apply_ms.count());

  report->untraced_rate = rate(untraced);
  report->traced_rate = rate(traced);

  AddCounterLayers(report, counts);
  report->AddLayer("kcc.build_tree_ms", setup_times.build_ms.Percentile(0.5),
                   "ms", setup_times.build_ms.count());
  report->AddLayer("kvm.boot_ms_per_node", setup_times.boot_ms.Percentile(0.5),
                   "ms", setup_times.boot_ms.count());
  report->AddLayer("kvm.rss_mb_per_node", setup_times.rss_mb.Percentile(0.5),
                   "MB", setup_times.rss_mb.count());
  for (const char* name :
       {"create.ms", "create.self_ms", "prepost.ms", "kanalyze.ms",
        "runpre.match_ms", "txn.prepare_ms", "txn.load_ms", "txn.commit_ms",
        "rendezvous.ms", "undo.ms", "kvm.exploit_ms"}) {
    layers.Report(report, name, name, "ms");
  }
  report->layers = spans.Aggregate();
  if (config.trace) {
    report->chrome_trace = spans.ChromeTrace();
  }
  return ks::OkStatus();
}

}  // namespace perfbench
