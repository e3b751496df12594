// busy_kernel: a production host taking updates under load.
//
// Set-up builds release 0, creates and lints a fixed seeded draw of 8
// corpus packages (no two patching one file), boots a machine and applies
// them as a stack in run-seeded order. Each cycle of the timed loop spawns
// stress_main and stress_worker, soaks them under a HealthMonitor
// (cooperative Run, so VM ticks are deterministic), then, with the stress
// threads still live, undoes one seeded applied update (often mid-stack)
// and applies it again, and finally runs the stress threads to completion.
// The kvm interpreter does most of the work; splices land while threads
// are in flight, so quiescence retries and the stack check are real. A
// faster interpreter shows here, and so does a watchdog or rendezvous
// change that costs guest throughput.
//
// Oracles: the watchdog attributes no fault and reverts nothing; every
// stress pair finishes without a fault; when a machine retires, UndoAll
// leaves its kernel text byte-identical to the snapshot from before the
// stack was applied and its module arena at the boot size. (The stress
// workload writes kernel data, so data bytes are not compared.)
//
// A machine serves kCyclesPerMachine cycles, then retires and a fresh one
// boots with the same stack (not timed). kvm keeps every thread it ever
// ran, and both its scheduler and each stop_machine quiescence scan walk
// the whole thread table, so on one long-lived machine every cycle would
// cost more than the last and the figures would depend on how many cycles
// the run managed, i.e. on the speed of unrelated layers.

#include <memory>

#include "base/strings.h"
#include "common.h"
#include "kcc/compile.h"
#include "ksplice/core.h"
#include "ksplice/watchdog.h"

namespace perfbench {
namespace {

constexpr int kSetupRepeats = 9;
constexpr size_t kStackDepth = 8;
constexpr uint64_t kCyclesPerMachine = 64;
// The p99 stop window needs at least this many windows.
constexpr uint64_t kMinPauses = 1000;
constexpr uint64_t kMaxCycles = 100'000;
// stress_main + stress_worker at 16 rounds retire ~326k instructions; the
// default soak window (200k ticks) ends with both still running.
constexpr uint32_t kStressRounds = 16;
constexpr uint64_t kRunBudgetTicks = 50'000'000;
// The stack's packages are a fixed draw (this seed), so every run does the
// same work; the run seed orders the stack and picks each cycle's update.
// This draw patches functions the stress pair is often inside when the
// soak ends, so about one rendezvous in eight waits for quiescence.
constexpr uint64_t kDrawSeed = 6;
// The work-counter block covers this many cycles.
constexpr uint64_t kReferenceCycles = 32;

struct SetupTimes {
  Samples build_ms;
  Samples boot_ms;
  Samples rss_mb;
};

struct Host {
  std::vector<ksplice::UpdatePackage> packages;
  std::unique_ptr<kvm::Machine> machine;
  std::unique_ptr<ksplice::KspliceCore> core;
  ImageLayout layout;
  std::vector<uint8_t> text;  // kernel text before the stack was applied
  uint32_t arena_bytes = 0;   // module arena in use before the stack
};

// Boots a fresh release-0 machine (the corpus default size) for `host`,
// snapshots it, and applies host->packages as a stack.
ks::Status Boot(Host* host, SpanRecorder* spans, SetupTimes* times) {
  host->core.reset();
  host->machine.reset();
  {
    PERFBENCH_SPAN(spans, "kvm.boot");
    double rss_before = CurrentRssMb();
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(host->machine, corpus::BootKernelVersion(0));
    times->boot_ms.Add(MsSince(start));
    times->rss_mb.Add(CurrentRssMb() - rss_before);
  }
  host->core = std::make_unique<ksplice::KspliceCore>(host->machine.get());
  host->layout = LayoutOf(*host->machine);
  host->text =
      ReadImage(*host->machine, host->layout.base, host->layout.text_end);
  host->arena_bytes = host->machine->ModuleArenaBytesInUse();
  for (const ksplice::UpdatePackage& package : host->packages) {
    PERFBENCH_SPAN(spans, "apply");
    KS_RETURN_IF_ERROR(host->core->Apply(package).status());
  }
  return ks::OkStatus();
}

// Undoes the whole stack and checks the machine is back to its boot text.
void Retire(Host& host, WorkloadReport* report) {
  ++report->attempted;
  ks::Result<std::vector<ksplice::UndoReport>> undone = host.core->UndoAll();
  if (!undone.ok()) {
    report->Fail("UndoAll: " + undone.status().ToString());
    return;
  }
  if (ReadImage(*host.machine, host.layout.base, host.layout.text_end) !=
      host.text) {
    report->Fail("kernel text differs from boot after UndoAll");
  }
  if (host.machine->ModuleArenaBytesInUse() != host.arena_bytes) {
    report->Fail("module arena not reclaimed after UndoAll");
  }
}

ks::Result<Host> SetUp(const std::vector<CveInput>& inputs, uint64_t seed,
                       SpanRecorder* spans, LayerSamples* layers,
                       SetupTimes* times) {
  PERFBENCH_SPAN(spans, "setup");
  {
    PERFBENCH_SPAN(spans, "kcc.build_tree");
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(kdiff::SourceTree tree, corpus::KernelSourceAt(0));
    KS_RETURN_IF_ERROR(
        kcc::BuildTree(tree, corpus::RunBuildOptions()).status());
    times->build_ms.Add(MsSince(start));
  }
  KS_ASSIGN_OR_RETURN(
      std::vector<ksplice::UpdatePackage> built,
      BuildPackages(DrawPlainCves(inputs, kStackDepth, kDrawSeed), spans,
                    layers));
  Host host;
  for (size_t index : Permutation(built.size(), SubSeed(seed, 1))) {
    host.packages.push_back(std::move(built[index]));
  }
  KS_RETURN_IF_ERROR(Boot(&host, spans, times));
  return host;
}

struct LoopSamples {
  Samples apply_ms, undo_ms, pause_us;
  Samples cycle_rate;  // 1 / wall seconds of each cycle
  Samples guest_rate;  // guest instructions per wall second of each cycle
  // Per cycled update, the best cycle time, undo time and stop window.
  BestOf best_cycle_s, best_undo_ms, best_pause_us;
  uint64_t cycles = 0;
};

// One cycle: spawn the stress pair, soak, undo and re-apply one update
// under load, then run the pair to completion.
void Cycle(Host& host, Rng* pick, SpanRecorder* spans, LayerSamples* layers,
           LoopSamples* out, ReportCounts* counts, uint64_t* under_load,
           WorkloadReport* report) {
  kvm::Machine& machine = *host.machine;
  PERFBENCH_SPAN(spans, "cycle");
  report->attempted += 4;  // soak, undo, apply, run
  uint64_t cycle_start = NowNs();
  uint64_t ticks = machine.Ticks();
  uint64_t faults = machine.FaultCount();
  size_t stress_done = machine.RecordsWithKey(corpus::kKeyStress).size();

  if (!machine.SpawnNamed("stress_main", kStressRounds).ok() ||
      !machine.SpawnNamed("stress_worker", kStressRounds).ok()) {
    report->Fail("could not spawn the stress workload");
    return;
  }

  uint64_t start = NowNs();
  ksplice::WatchdogReport soak = [&] {
    PERFBENCH_SPAN(spans, "watchdog.soak");
    ksplice::HealthMonitor monitor(&host.core->manager());
    return monitor.Soak();
  }();
  layers->Add("watchdog.soak_ms", MsSince(start));
  counts->watchdog_samples += soak.samples;
  if (soak.faults_attributed != 0 || !soak.reverts.empty() || soak.panicked) {
    report->Fail(ks::StrPrintf(
        "watchdog: %llu attributed fault(s), %zu revert(s)%s",
        static_cast<unsigned long long>(soak.faults_attributed),
        soak.reverts.size(), soak.panicked ? ", panic" : ""));
  }
  if (machine.HasLiveThreads()) {
    ++*under_load;
  }

  std::vector<std::string> ids = host.core->AppliedIds();
  if (ids.empty()) {
    report->Fail("no applied update left to cycle");
    return;
  }
  const std::string id = ids[pick->Below(ids.size())];
  size_t input = 0;
  while (host.packages[input].id != id) {
    ++input;
  }
  const ksplice::UpdatePackage* package = &host.packages[input];
  start = NowNs();
  ks::Result<ksplice::UndoReport> undone = [&] {
    PERFBENCH_SPAN(spans, "undo");
    return host.core->Undo(id);
  }();
  double undo_ms = MsSince(start);
  if (!undone.ok()) {
    report->Fail("undo " + id + " under load: " + undone.status().ToString());
  } else {
    out->undo_ms.Add(undo_ms);
    out->best_undo_ms.Add(input, undo_ms);
    layers->Add("undo.ms", undo_ms);
    start = NowNs();
    ks::Result<ksplice::ApplyReport> applied = [&] {
      PERFBENCH_SPAN(spans, "apply");
      return host.core->Apply(*package);
    }();
    double apply_ms = MsSince(start);
    if (!applied.ok()) {
      report->Fail("apply " + id + " under load: " +
                   applied.status().ToString());
    } else {
      out->apply_ms.Add(apply_ms);
      out->pause_us.Add(static_cast<double>(applied->pause_ns) / 1e3);
      out->best_pause_us.Add(input,
                             static_cast<double>(applied->pause_ns) / 1e3);
      layers->AddApplyStages(*applied);
      ++counts->applies;
      counts->apply_attempts += static_cast<uint64_t>(applied->attempts);
    }
  }

  start = NowNs();
  ks::Status ran = [&] {
    PERFBENCH_SPAN(spans, "kvm.run");
    return machine.Run(kRunBudgetTicks);
  }();
  layers->Add("kvm.exec_ms", MsSince(start));
  if (!ran.ok() || machine.HasLiveThreads()) {
    report->Fail("stress workload did not finish: " + ran.ToString());
  }
  if (machine.FaultCount() != faults) {
    report->Fail("stress workload faulted");
  }
  if (machine.RecordsWithKey(corpus::kKeyStress).size() != stress_done + 2) {
    report->Fail("stress workload did not complete");
  }
  ++out->cycles;
  double cycle_s = static_cast<double>(NowNs() - cycle_start) / 1e9;
  out->cycle_rate.Add(1.0 / cycle_s);
  out->best_cycle_s.Add(input, cycle_s);
  out->guest_rate.Add(static_cast<double>(machine.Ticks() - ticks) / cycle_s);
}

}  // namespace

ks::Status RunBusyKernel(const RunConfig& config, WorkloadReport* report) {
  KS_ASSIGN_OR_RETURN(std::vector<CveInput> inputs, CorpusInputs());

  SpanRecorder spans;
  spans.set_enabled(config.trace);
  LayerSamples layers(&spans);
  SetupTimes setup_times;
  Host host;
  for (int i = 0; i < kSetupRepeats; ++i) {
    host = Host();
    uint64_t start = NowNs();
    KS_ASSIGN_OR_RETURN(
        host, SetUp(inputs, config.seed, &spans, &layers, &setup_times));
    report->setup_s.Add(static_cast<double>(NowNs() - start) / 1e9);
  }

  Rng pick(SubSeed(config.seed, 3));
  LoopSamples untraced, traced;
  ReportCounts counts, later_counts;
  uint64_t under_load = 0;
  CounterMap before = WorkCounterSnapshot();
  LoopClock clock(config.seconds, config.trace ? 0 : kMinPauses);
  uint64_t cycles = 0;
  for (uint64_t cycle = 0; cycle < kMaxCycles; ++cycle) {
    // The first kReferenceCycles are the untraced reference for the
    // work-counter block; after them a traced run alternates cycles.
    const bool reference = cycle < kReferenceCycles;
    const bool tracing = config.trace && !reference && cycle % 2 == 1;
    if (cycle != 0 && cycle % kCyclesPerMachine == 0) {
      spans.set_enabled(false);
      Retire(host, report);
      KS_RETURN_IF_ERROR(Boot(&host, &spans, &setup_times));
    }
    spans.set_enabled(tracing);
    Cycle(host, &pick, &spans, &layers, tracing ? &traced : &untraced,
          reference ? &counts : &later_counts, &under_load, report);
    if (cycle + 1 == kReferenceCycles) {
      report->work_counters = CounterDelta(before, WorkCounterSnapshot());
    }
    ++cycles;
    if (cycles > kReferenceCycles && (!config.trace || traced.cycles > 0) &&
        clock.Done(untraced.pause_us.count())) {
      break;
    }
  }
  spans.set_enabled(false);
  Retire(host, report);

  report->reference_pass = ks::StrPrintf(
      "the first %llu cycles",
      static_cast<unsigned long long>(kReferenceCycles));
  report->shape.Set("loop", JsonValue::String(
      "closed loop, 1 thread: per cycle spawn stress pair -> Soak -> Undo "
      "one update -> Apply it again -> Run to completion"));
  report->shape.Set("threads", JsonValue::Number(1));
  report->shape.Set("cycles", JsonValue::Number(static_cast<double>(cycles)));
  report->shape.Set("stack_depth", JsonValue::Number(kStackDepth));
  report->shape.Set("stress_rounds", JsonValue::Number(kStressRounds));
  report->shape.Set("soak_ticks", JsonValue::Number(static_cast<double>(
                                      ksplice::WatchdogOptions().soak_ticks)));
  report->shape.Set("cycles_per_machine", JsonValue::Number(kCyclesPerMachine));
  report->shape.Set("cycles_under_load",
                    JsonValue::Number(static_cast<double>(under_load)));
  report->shape.Set("draw_seed", JsonValue::Number(kDrawSeed));
  report->shape.Set("seed_role", JsonValue::String(
      "orders the stack and picks the applied update each cycle undoes"));
  report->shape.Set("setup_repeats", JsonValue::Number(kSetupRepeats));

  auto rate = [](const LoopSamples& s) { return s.cycle_rate.Percentile(0.5); };
  const LoopSamples& e2e = untraced;
  report->Add("best_updates_per_s",
              static_cast<double>(e2e.best_cycle_s.inputs()) /
                  e2e.best_cycle_s.Sum(),
              "1/s", e2e.best_cycle_s.inputs());
  report->Add("best_undo_ms_p50", e2e.best_undo_ms.Percentile(0.5), "ms",
              e2e.best_undo_ms.inputs());
  report->Add("best_pause_us_p50", e2e.best_pause_us.Percentile(0.5), "us",
              e2e.best_pause_us.inputs());
  report->Add("cycles_per_s", rate(e2e), "1/s", e2e.cycle_rate.count());
  report->Add("undo_ms_p50", e2e.undo_ms.Percentile(0.5), "ms",
              e2e.undo_ms.count());
  report->Add("pause_us_p50", e2e.pause_us.Percentile(0.5), "us",
              e2e.pause_us.count());
  report->Add("pause_us_p99", e2e.pause_us.Percentile(0.99), "us",
              e2e.pause_us.count());
  report->Add("apply_ms_p50", e2e.apply_ms.Percentile(0.5), "ms",
              e2e.apply_ms.count());
  report->Add("apply_ms_p90", e2e.apply_ms.Percentile(0.9), "ms",
              e2e.apply_ms.count());
  report->Add("guest_minsn_per_s", e2e.guest_rate.Percentile(0.5) / 1e6,
              "Minsn/s", e2e.guest_rate.count());
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
        "rendezvous.ms", "undo.ms", "kvm.exec_ms", "watchdog.soak_ms"}) {
    layers.Report(report, name, name, "ms");
  }
  report->layers = spans.Aggregate();
  if (config.trace) {
    report->chrome_trace = spans.ChromeTrace();
  }
  return ks::OkStatus();
}

}  // namespace perfbench
